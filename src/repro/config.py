"""Configuration dataclasses and the paper's cluster presets.

Every timing constant in the model lives here.  The values are calibrated to
the hardware the paper used (Sec. VI): Myrinet-2000 (2 Gbit/s), LANai 9.x
NICs, Pentium-III hosts of two classes, MPICH 1.2.4..8a over GM 1.5.2.1 with
GM's eager/rendezvous split.  Absolute microseconds are *era-plausible*, not
authoritative; what the reproduction commits to is the cost *structure*
(polling-vs-signal trade-off, copy counts, per-hop accumulation) — see
DESIGN.md §6.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import NoneType, UnionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .units import gbit_per_s

# ---------------------------------------------------------------------------
# machine specifications (paper Sec. VI, first paragraph)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """One hardware class of the paper's heterogeneous cluster."""

    name: str
    cpu_mhz: int                 # host processor clock
    lanai_mhz: int               # NIC processor clock (LANai 9.x)
    pci_bytes_per_us: float      # effective DMA bandwidth over the PCI bus
    memcpy_bytes_per_us: float   # effective host memory-copy bandwidth

    def host_scale(self, reference_mhz: int = 1000) -> float:
        """Multiplier for host CPU costs relative to a 1 GHz reference."""
        return reference_mhz / float(self.cpu_mhz)

    def lanai_scale(self, reference_mhz: int = 200) -> float:
        """Multiplier for NIC processing costs relative to LANai 9.2."""
        return reference_mhz / float(self.lanai_mhz)


#: 700 MHz quad-SMP Pentium-III, 66 MHz/64-bit PCI, LANai 9.1 (PCI64B).
MACHINE_P3_700 = MachineSpec(
    name="p3-700/pci64b",
    cpu_mhz=700,
    lanai_mhz=133,
    pci_bytes_per_us=350.0,    # 66 MHz x 64 bit = 528 B/us peak; ~2/3 effective
    memcpy_bytes_per_us=400.0,
)

#: 1 GHz dual-SMP Pentium-III, 33 MHz/32-bit PCI.  Four of these carried
#: PCI64C cards with 200 MHz LANai 9.2; the paper notes the PCI/NIC spread
#: barely matters for small reductions.
MACHINE_P3_1000 = MachineSpec(
    name="p3-1000/pci64b",
    cpu_mhz=1000,
    lanai_mhz=133,
    pci_bytes_per_us=100.0,    # 33 MHz x 32 bit = 132 B/us peak
    memcpy_bytes_per_us=600.0,
)

#: The four 1 GHz nodes with PCI64C / LANai 9.2 cards.
MACHINE_P3_1000_L92 = MachineSpec(
    name="p3-1000/pci64c",
    cpu_mhz=1000,
    lanai_mhz=200,
    pci_bytes_per_us=100.0,
    memcpy_bytes_per_us=600.0,
)


# ---------------------------------------------------------------------------
# substrate parameter blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NicParams:
    """GM / LANai cost model (per-NIC, scaled by the machine's LANai clock)."""

    #: LANai control-program time to stage one outgoing packet (at 200 MHz).
    lanai_send_us: float = 1.2
    #: LANai time to accept one incoming packet and start host DMA.
    lanai_recv_us: float = 1.2
    #: Fixed DMA engine start-up cost per transfer.
    dma_setup_us: float = 0.3
    #: Host-side cost of handing a send to GM (token + doorbell write).
    host_send_overhead_us: float = 0.7
    #: Kernel signal delivery + handler entry/exit on the host CPU.  This is
    #: the central "interrupt overhead" knob of the paper (Sec. IV-A).
    signal_overhead_us: float = 5.0
    #: Latency from DMA completion to the host handler starting.
    signal_dispatch_us: float = 2.0
    #: Extra LANai processing for an AB-collective packet while signals are
    #: enabled at the receiving NIC: the modified control program takes the
    #: interrupt-raising path instead of the plain deposit path.  This is
    #: the per-hop delivery cost behind the paper's Fig. 9/10 latency
    #: penalty ("overhead from signals associated with late messages").
    ab_rx_extra_us: float = 4.0
    #: Cost of the GM library calls that flip signal generation on/off
    #: (paper Sec. V-A adds these entry points to the MPICH layer).
    signal_toggle_us: float = 0.3
    #: Pinned-memory registration: base syscall + per-4KiB-page cost
    #: (rendezvous mode only).
    pin_base_us: float = 5.0
    pin_per_page_us: float = 0.6
    unpin_base_us: float = 3.0
    #: GM flow control: send tokens bound the number of sends a host may
    #: have outstanding at its NIC; receive tokens are the pre-provided
    #: receive buffers.  GM's defaults are generous enough that the paper's
    #: small-message reductions never block on them, but the model enforces
    #: them so saturation behaviour is honest.
    send_tokens: int = 16
    recv_tokens: int = 64
    #: LANai-side arithmetic cost per double-word element, used by the
    #: NIC-based reduction extension (refs. [10]/[11]: the NIC processor is
    #: roughly an order of magnitude slower than the host at combining).
    nic_op_us_per_element: float = 0.08


@dataclass(frozen=True)
class NetParams:
    """Myrinet-2000 fabric model."""

    #: Full-duplex link rate (2 Gbit/s).
    link_bytes_per_us: float = field(default_factory=lambda: gbit_per_s(2.0))
    #: Cut-through latency of the 32-port crossbar switch.
    switch_latency_us: float = 0.35
    #: Cable/propagation delay per traversal.
    cable_latency_us: float = 0.1
    #: GM packet header+CRC bytes added to every payload on the wire.
    header_bytes: int = 40
    #: Fault injection: probability that the fabric drops any given packet.
    #: When non-zero, the NICs run GM's reliable-delivery protocol
    #: (go-back-N with ACKs and retransmit timers); at the default 0.0 the
    #: protocol is bypassed, as its traffic is invisible on a loss-free
    #: fabric.
    drop_prob: float = 0.0
    #: Retransmission timeout for the reliable-delivery protocol.
    retransmit_timeout_us: float = 120.0
    #: Interconnect topology (see ``repro.topo.TOPOLOGIES``): "crossbar"
    #: (the paper's single 32-port switch), "fattree" (two-level Clos) or
    #: "torus" (2D, dimension-order routing).
    topology: str = "crossbar"
    #: Fat-tree: hosts per edge switch.
    fattree_hosts_per_switch: int = 8
    #: Fat-tree: host-port to uplink bandwidth ratio (1.0 = full
    #: bisection; 2.0 = half as many uplinks as host ports).
    fattree_oversubscription: float = 1.0
    #: Torus: X extent of the grid; 0 auto-factors the node count into
    #: the most-square W x H arrangement.
    torus_width: int = 0


@dataclass(frozen=True)
class MpiParams:
    """MPICH-over-GM layer cost model (at the 1 GHz host reference)."""

    #: GM eager/rendezvous switch-over (MPICH-GM default is 16 KiB).
    eager_limit_bytes: int = 16384
    #: Envelope matching against the posted-receive / unexpected queues.
    match_us: float = 0.5
    #: Posting a receive descriptor.
    post_recv_us: float = 0.4
    #: One progress-engine poll iteration that finds nothing.
    poll_empty_us: float = 0.2
    #: Per-call entry overhead of any MPI function.
    call_overhead_us: float = 0.4
    #: Reduction arithmetic per element (double-word ALU op + load/store).
    op_us_per_element: float = 0.008
    #: Fixed part of computing the binomial tree / rank arithmetic.
    tree_setup_us: float = 0.3
    #: Allocating + enqueueing an unexpected-queue entry (excl. the copy).
    unexpected_insert_us: float = 0.3
    #: Reduction/broadcast tree shape (see ``repro.topo.TREE_SHAPES``):
    #: "binomial" (MPICH default), "knomial", "chain" or "bine" — or
    #: "auto", which consults the persisted tuning table
    #: (``repro.schedule.table``) per message size, falling back to
    #: binomial when no entry matches.
    tree_shape: str = "binomial"
    #: Radix for shapes that take one (k-nomial); ignored by the rest.
    tree_radix: int = 2


@dataclass(frozen=True)
class AbParams:
    """Application-bypass build configuration (the paper's contribution)."""

    #: Exit-delay heuristic (Sec. IV-E): "none", "fixed", "log" or "linear".
    #: The paper calls this optimization experimental ("we are still
    #: investigating these issues"); the reported results match the
    #: heuristic being off, so "none" is the default and the other policies
    #: are exercised by the ablation benchmarks.
    exit_delay_policy: str = "none"
    #: Coefficient: window = coeff * log2(size) ("log"), coeff * size
    #: ("linear"), or just coeff ("fixed").
    exit_delay_coeff_us: float = 2.0
    #: Messages larger than this fall back to the default nab reduction
    #: (the paper implements eager mode only).
    eager_limit_bytes: int = 16384
    #: Per-packet cost of the progress-engine pre-processing hook that the
    #: AB build adds for *every* incoming packet (Fig. 4, gray boxes).
    progress_hook_us: float = 0.25
    #: Per-call cost of deciding ab-vs-fallback and checking signal state.
    decision_us: float = 0.8
    #: Building + enqueueing a reduce descriptor.
    descriptor_us: float = 0.7
    #: Matching one packet against the descriptor queue.
    descriptor_match_us: float = 0.4
    #: Ablation (Sec. V-A): model the rejected design that reuses MPICH's
    #: non-blocking primitives — costs an extra buffer copy per child and
    #: extra management overhead per message.
    reuse_mpich_queues: bool = False
    reuse_mgmt_us: float = 0.9


@dataclass(frozen=True)
class NoiseParams:
    """Naturally occurring process skew (OS daemons, timer ticks...).

    The paper's Sec. VI-B results hinge on this: "Even though we are not
    introducing artificial process skew, the effects of naturally-occurring
    skew appear as the number of nodes involved ... increases."
    """

    #: Uniform per-iteration entry jitter in [0, base_jitter_us].
    base_jitter_us: float = 1.5
    #: Probability, per node per iteration, of an OS preemption spike.
    spike_prob: float = 0.04
    #: Spike duration drawn uniformly from [spike_min_us, spike_max_us].
    spike_min_us: float = 20.0
    spike_max_us: float = 120.0
    #: Extra jitter applied to barrier exit.
    barrier_jitter_us: float = 0.5

    def validate(self) -> None:
        if not (0.0 <= self.spike_prob <= 1.0):
            raise ConfigError(f"spike_prob out of range: {self.spike_prob}")
        if self.spike_min_us > self.spike_max_us:
            raise ConfigError("spike_min_us > spike_max_us")


#: A noiseless variant, useful for unit tests and deterministic examples.
NO_NOISE = NoiseParams(base_jitter_us=0.0, spike_prob=0.0, barrier_jitter_us=0.0)


@dataclass(frozen=True)
class FaultParams:
    """Deterministic fault-injection schedule (see ``repro.faults``).

    Every field defaults to *disarmed*: with a default ``FaultParams`` no
    injector is instantiated, no extra RNG stream is drawn and no event is
    scheduled, so the simulation is bit-identical to a build without the
    fault subsystem.  Each armed injector draws from its own named RNG
    stream (``faults.<name>``), keeping the baseline streams untouched.
    """

    # -- packet_loss_burst: correlated drop bursts on the fabric --------
    #: Probability that any given packet *starts* a loss burst (layered on
    #: top of the independent Bernoulli ``NetParams.drop_prob``).  Arming
    #: this forces the GM reliable-delivery protocol on even when
    #: ``drop_prob`` is zero.
    burst_prob: float = 0.0
    #: Packets destroyed per burst (the trigger packet included).
    burst_len: int = 4

    # -- link_degrade: time-windowed bandwidth/latency degradation ------
    #: Degradation window [start, end) in simulation microseconds; the
    #: injector is armed only when the window is non-empty and at least
    #: one factor exceeds 1.
    degrade_start_us: float = 0.0
    degrade_end_us: float = 0.0
    #: Per-hop latency multiplier inside the window (1.0 = unchanged).
    degrade_latency_factor: float = 1.0
    #: Serialization-time multiplier inside the window (1.0 = unchanged).
    degrade_bandwidth_factor: float = 1.0
    #: Source nodes whose egress traffic is degraded; empty = every link.
    degrade_links: tuple[int, ...] = ()

    # -- nic_signal_suppress: swallow AB collective signals -------------
    #: Node whose NIC stops raising signals during the window (-1 = off).
    #: The AB engine must survive on the Fig.-3 synchronous path alone.
    suppress_node: int = -1
    suppress_start_us: float = 0.0
    suppress_end_us: float = 0.0

    # -- rank_pause: freeze one rank's CPU (generalized straggler) ------
    pause_rank: int = -1
    pause_at_us: float = 0.0
    pause_duration_us: float = 0.0

    # -- rank_crash: permanent fail-stop mid-run ------------------------
    crash_rank: int = -1
    crash_at_us: float = 0.0

    # -- recovery layer (repro.core) ------------------------------------
    #: Per-descriptor timeout for pending children (0 = recovery off).
    descriptor_timeout_us: float = 0.0
    #: Timeouts tolerated before the remaining children are abandoned and
    #: the partial result is propagated (honestly reported, INV-FAULT).
    timeout_retries: int = 3
    #: Reassign a crashed child's subtree to its nearest live ancestor
    #: using the TreeShape interface (needs the crash schedule's
    #: deterministic failure oracle; see DESIGN.md §10).
    tree_heal: bool = False

    def __post_init__(self) -> None:
        # JSON round trips hand lists back; keep the block hashable.
        if not isinstance(self.degrade_links, tuple):
            object.__setattr__(self, "degrade_links",
                               tuple(self.degrade_links))

    def validate(self) -> None:
        if not (0.0 <= self.burst_prob <= 1.0):
            raise ConfigError(f"burst_prob out of range: {self.burst_prob}")
        if self.burst_len < 1:
            raise ConfigError(f"burst_len must be >= 1: {self.burst_len}")
        if self.degrade_end_us < self.degrade_start_us:
            raise ConfigError("degrade_end_us < degrade_start_us")
        if (self.degrade_latency_factor < 1.0
                or self.degrade_bandwidth_factor < 1.0):
            raise ConfigError("degrade factors must be >= 1.0 (a fault "
                              "cannot speed the fabric up)")
        if self.suppress_end_us < self.suppress_start_us:
            raise ConfigError("suppress_end_us < suppress_start_us")
        if self.pause_rank >= 0 and self.pause_duration_us <= 0.0:
            raise ConfigError("pause_rank armed with a non-positive "
                              "pause_duration_us")
        if self.descriptor_timeout_us < 0.0:
            raise ConfigError("descriptor_timeout_us must be >= 0")
        if self.timeout_retries < 0:
            raise ConfigError("timeout_retries must be >= 0")

    @property
    def degrade_armed(self) -> bool:
        return (self.degrade_end_us > self.degrade_start_us
                and (self.degrade_latency_factor > 1.0
                     or self.degrade_bandwidth_factor > 1.0))

    @property
    def suppress_armed(self) -> bool:
        return (self.suppress_node >= 0
                and self.suppress_end_us > self.suppress_start_us)

    @property
    def armed(self) -> bool:
        """True when at least one injector would be instantiated."""
        return (self.burst_prob > 0.0
                or self.degrade_armed
                or self.suppress_armed
                or self.pause_rank >= 0
                or self.crash_rank >= 0)


@dataclass(frozen=True)
class PipelineParams:
    """Segmented, pipelined collectives (see ``repro.pipeline``).

    Defaults to *disarmed*: with ``segment_size_bytes == 0`` no segmenter
    is built, no counter source is registered and every collective takes
    today's whole-message path, so the simulation stays bit-identical to a
    build without the pipeline subsystem (same guarantee style as
    :class:`FaultParams`).
    """

    #: Target segment payload size in bytes; 0 disarms the subsystem.
    #: Messages that split into fewer than two segments keep the
    #: whole-message path, so the arming decision is a pure function of
    #: message size and is globally consistent across ranks.  The string
    #: "auto" consults the persisted tuning table per message size
    #: (``repro.schedule.table``), falling back to disarmed when no entry
    #: matches.
    segment_size_bytes: int | str = 0
    #: Maximum number of per-segment reduce descriptors an internal node
    #: keeps open at once (the in-flight window per child; later segments
    #: open as earlier ones complete, driven by the asynchronous side).
    max_inflight_segments: int = 4
    #: Segment schedule: "fixed" cuts equal chunks of ``segment_size_bytes``;
    #: "greedy" starts at a quarter of that and doubles per segment up to
    #: the cap (Lowery & Langou: small head segments prime the pipe, large
    #: tail segments amortize per-segment overhead).
    schedule: str = "fixed"

    def validate(self) -> None:
        if isinstance(self.segment_size_bytes, str):
            if self.segment_size_bytes != "auto":
                raise ConfigError(
                    f"segment_size_bytes must be an int >= 0 or 'auto': "
                    f"{self.segment_size_bytes!r}")
        elif self.segment_size_bytes < 0:
            raise ConfigError(
                f"segment_size_bytes must be >= 0: {self.segment_size_bytes}")
        if self.max_inflight_segments < 1:
            raise ConfigError(
                f"max_inflight_segments must be >= 1: "
                f"{self.max_inflight_segments}")
        if self.schedule not in ("fixed", "greedy"):
            raise ConfigError(
                f"unknown pipeline schedule {self.schedule!r}; "
                f"known: fixed, greedy")

    @property
    def armed(self) -> bool:
        """True when collectives may be segmented."""
        if self.segment_size_bytes == "auto":
            return True
        return self.segment_size_bytes > 0


#: Arrival patterns ``WorkloadParams.pattern`` may name; mirrored by the
#: generator registry in ``repro.workload.patterns`` (which asserts the two
#: stay in sync, so config validation never imports the workload package).
WORKLOAD_PATTERNS = ("none", "constant", "uniform_random", "bursty",
                     "compute_coupled", "trace_replay")


@dataclass(frozen=True)
class WorkloadParams:
    """Process-arrival-pattern workload (see ``repro.workload``).

    Defaults to *disarmed*: with ``pattern == "none"`` no
    :class:`~repro.workload.WorkloadModel` is built, no RNG stream is
    drawn, no counter source is registered and every collective entry is
    untouched, so the simulation stays bit-identical to a build without
    the workload subsystem (same guarantee style as :class:`FaultParams`
    and :class:`PipelineParams`).  Armed generators draw from per-rank
    named streams (``workload/<rank>``), keeping the baseline streams
    untouched.
    """

    #: Arrival pattern name (see :data:`WORKLOAD_PATTERNS`); "none" disarms.
    pattern: str = "none"
    #: Base arrival-delay scale in microseconds (the pattern's amplitude):
    #: the constant offset, the uniform upper bound, the bursty straggler
    #: delay, or the compute-coupled median phase length.
    scale_us: float = 0.0
    #: Uniform per-rank jitter in [0, jitter_us] layered on top (bursty's
    #: non-straggler baseline noise).
    jitter_us: float = 0.0
    #: Bursty: fraction of ranks in the correlated straggler set.
    straggler_frac: float = 0.25
    #: Bursty: number of independent straggler groups the set splits into
    #: (each group shares one delay draw per iteration — correlated
    #: arrival, the pattern PAP-aware algorithms exploit).
    straggler_groups: int = 1
    #: Compute-coupled: log-normal sigma of the per-rank compute phase
    #: (arrival = scale_us * lognormal(0, sigma); heavier tails = more
    #: imbalance).
    compute_sigma: float = 1.0
    #: Trace-replay: per-iteration tuples of per-rank delays (us).  Rows
    #: cycle when the run needs more iterations than the trace holds.
    trace: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        # JSON round trips hand lists back; keep the block hashable.
        if not isinstance(self.trace, tuple) or any(
                not isinstance(row, tuple) for row in self.trace):
            object.__setattr__(
                self, "trace", tuple(tuple(row) for row in self.trace))

    def validate(self) -> None:
        if self.pattern not in WORKLOAD_PATTERNS:
            raise ConfigError(
                f"unknown workload pattern {self.pattern!r}; "
                f"known: {', '.join(WORKLOAD_PATTERNS)}")
        if self.scale_us < 0.0:
            raise ConfigError(f"scale_us must be >= 0: {self.scale_us}")
        if self.jitter_us < 0.0:
            raise ConfigError(f"jitter_us must be >= 0: {self.jitter_us}")
        if not (0.0 < self.straggler_frac <= 1.0):
            raise ConfigError(
                f"straggler_frac out of (0, 1]: {self.straggler_frac}")
        if self.straggler_groups < 1:
            raise ConfigError(
                f"straggler_groups must be >= 1: {self.straggler_groups}")
        if self.compute_sigma <= 0.0:
            raise ConfigError(
                f"compute_sigma must be > 0: {self.compute_sigma}")
        if self.pattern == "trace_replay" and not self.trace:
            raise ConfigError("trace_replay armed with an empty trace")
        for it, row in enumerate(self.trace):
            if not row:
                raise ConfigError(f"trace row {it} is empty")
            if len(row) != len(self.trace[0]):
                raise ConfigError(
                    f"trace row {it} has {len(row)} rank(s), row 0 has "
                    f"{len(self.trace[0])} — the trace must be rectangular")
            if any(d < 0.0 for d in row):
                raise ConfigError(f"trace row {it} has a negative delay")

    @property
    def armed(self) -> bool:
        """True when a WorkloadModel would be instantiated."""
        return self.pattern != "none"


# ---------------------------------------------------------------------------
# cluster-level configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to instantiate a simulated cluster."""

    machines: tuple[MachineSpec, ...]
    nic: NicParams = NicParams()
    net: NetParams = NetParams()
    mpi: MpiParams = MpiParams()
    ab: AbParams = AbParams()
    noise: NoiseParams = NoiseParams()
    seed: int = 12345
    faults: FaultParams = FaultParams()
    pipeline: PipelineParams = PipelineParams()
    workload: WorkloadParams = WorkloadParams()

    def __post_init__(self) -> None:
        if len(self.machines) < 1:
            raise ConfigError("cluster needs at least one node")
        self.noise.validate()
        self.faults.validate()
        self.pipeline.validate()
        self.workload.validate()

    @property
    def size(self) -> int:
        return len(self.machines)


def interlaced_roster(total: int = 32) -> tuple[MachineSpec, ...]:
    """The paper's machine file: the two 16-node groups interlaced so that
    "a balanced mix of nodes" appears at every system size.

    Four of the 1 GHz nodes carry the faster LANai 9.2 cards; we spread them
    evenly through the fast group's slots (positions 1, 9, 17, 25).
    """
    if not (1 <= total <= 32):
        raise ConfigError(f"paper cluster has 1 to 32 nodes, asked for {total}")
    roster: list[MachineSpec] = []
    l92_slots = {1, 9, 17, 25}
    for i in range(total):
        if i % 2 == 0:
            roster.append(MACHINE_P3_700)
        elif i in l92_slots:
            roster.append(MACHINE_P3_1000_L92)
        else:
            roster.append(MACHINE_P3_1000)
    return tuple(roster)


def paper_cluster(size: int = 32, *, seed: int = 12345,
                  noise: Optional[NoiseParams] = None,
                  ab: Optional[AbParams] = None) -> ClusterConfig:
    """The heterogeneous 32-node evaluation cluster (Figs. 6-10)."""
    return ClusterConfig(
        machines=interlaced_roster(size),
        noise=noise if noise is not None else NoiseParams(),
        ab=ab if ab is not None else AbParams(),
        seed=seed,
    )


def homogeneous_cluster(size: int = 16, *, machine: MachineSpec = MACHINE_P3_700,
                        seed: int = 12345,
                        noise: Optional[NoiseParams] = None) -> ClusterConfig:
    """The homogeneous 16-node (700 MHz) cluster of Fig. 9(b)."""
    if size < 1:
        raise ConfigError("size must be >= 1")
    return ClusterConfig(
        machines=tuple([machine] * size),
        noise=noise if noise is not None else NoiseParams(),
        seed=seed,
    )


def extrapolated_cluster(size: int, *, seed: int = 12345,
                         noise: Optional[NoiseParams] = None) -> ClusterConfig:
    """A what-if cluster larger than the paper's 32 nodes, built by tiling
    the same interlaced two-class mix (for the scalability-extrapolation
    experiment: the paper predicts its advantage keeps growing with
    system size).
    """
    if size < 1:
        raise ConfigError("size must be >= 1")
    base = interlaced_roster(32)
    machines = tuple(base[i % 32] for i in range(size))
    return ClusterConfig(
        machines=machines,
        noise=noise if noise is not None else NoiseParams(),
        seed=seed,
    )


def quiet_cluster(size: int, *, seed: int = 0) -> ClusterConfig:
    """Homogeneous, noise-free cluster — the workhorse of the unit tests."""
    return ClusterConfig(
        machines=tuple([MACHINE_P3_1000] * size),
        noise=NO_NOISE,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# records: the one typed JSON codec behind every front door (DESIGN.md §17)
# ---------------------------------------------------------------------------


class RecordError(ConfigError, ValueError):
    """Outside input — JSON text, or what it parsed to — does not describe
    the record it claims to be.  One line naming the place and the value."""


#: Annotation -> (the JSON types a value may have, "a one", "several").
#: Types are exact: ``true`` is not an int, ``1.0`` and ``"1"`` are not
#: ints, an int is a number.  A bare ``tuple`` is any list, and the null in
#: ``Optional[X]`` means what leaving the key out means.
_KINDS = {
    int: ((int,), "an int", "ints"),
    float: ((float, int), "a number", "numbers"),
    str: ((str,), "a string", "strings"),
    bool: ((bool,), "a bool", "bools"),
    dict: ((dict,), "an object", "objects"),
    tuple: ((list,), "a list", "lists"),
    NoneType: ((NoneType,), "null", "nulls"),
}


def _refuse_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def loads(text, where: str, allow_nan: bool = False):
    """``json.loads`` for outside input: text that is not JSON is a
    :class:`RecordError` naming ``where`` it was meant for.  So are the
    literals ``NaN`` and ``±Infinity`` that ``json.loads`` would accept,
    unless ``allow_nan`` (a BENCH file, whose metrics may be NaN)."""
    try:
        return json.loads(
            text, parse_constant=None if allow_nan else _refuse_constant)
    except (TypeError, ValueError) as exc:
        raise RecordError("%s is not valid JSON: %s" % (where, exc)) from None


def check_name(what: str, name, known, error=RecordError) -> None:
    """Refuse a ``name`` that the registry ``known`` does not hold."""
    if name not in known:
        raise error(f"unknown {what} {name!r}; known: {sorted(known)}")


def _shape(hint):
    """``(fits, convert, a_one, several)`` of an annotation: the test a JSON
    value must pass as a whole, ``convert(path, value, unknown)`` to what it
    decodes to (None: to itself), and how messages name one such value and
    several."""
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        def convert(path, v, unknown):
            return hint(**_walk(hint, v, path, path + ".", unknown))
        return (lambda v: type(v) is dict), convert, "an object", "objects"
    if origin in (tuple, list) and args:        # tuple[X, ...], list[X]
        fits_each, convert_each, _, several = _shape(args[0])

        def convert(path, v, unknown):
            if convert_each is None:
                return origin(v)
            return origin(convert_each("%s[%d]" % (path, i), item, unknown)
                          for i, item in enumerate(v))
        return ((lambda v: type(v) is list and all(map(fits_each, v))),
                convert, "a list of " + several, "lists of " + several)
    if origin in (Union, UnionType):            # int | str, Optional[X]
        shapes = [_shape(arg) for arg in args]

        def convert(path, v, unknown):
            as_one = next(s for s in shapes if s[0](v))[1]
            return v if as_one is None else as_one(path, v, unknown)
        return ((lambda v: any(s[0](v) for s in shapes)), convert,
                *(" or ".join(s[n] for s in shapes) for n in (2, 3)))
    types, a_one, several = _KINDS[hint]
    return ((lambda v: type(v) in types),
            (lambda path, v, unknown: float(v)) if hint is float else None,
            a_one, several)


@functools.cache
def typed(hint):
    """The typed-field primitive: annotation ``hint`` compiled, once, into
    ``check(path, value, unknown=None)``, which returns the decoded value
    or raises :class:`RecordError` ``<path> must be <kind>, got <value>``
    (``unknown`` collects the unknown keys of records inside)."""
    fits, convert, a_one, _ = _shape(hint)

    def check(path, value, unknown=None):
        if not fits(value):
            raise RecordError("%s must be %s, got %r" % (path, a_one, value))
        return value if convert is None else convert(path, value, unknown)
    return check


@functools.cache
def _plan(cls) -> tuple:
    """``(name, required, check)`` per field of record class ``cls``."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, f.default is MISSING and f.default_factory is MISSING,
         typed(hints[f.name])) for f in fields(cls))


def _walk(cls, d: dict, where: str, prefix: str, unknown: list,
          own=(), given=()) -> dict:
    """The keyword arguments that build the ``cls`` record ``d`` describes;
    its unknown keys go to ``unknown``."""
    plan = [entry for entry in _plan(cls) if entry[0] not in given]
    known = {name for name, _, _ in plan}.union(own)
    if not known.issuperset(d):
        unknown.append("%s has unknown key(s) %s" % (
            where, ", ".join(sorted(repr(k) for k in set(d) - known))))
    kwargs = dict(given)
    for name, required, check in plan:
        if name in d:
            kwargs[name] = check(prefix + name, d[name], unknown)
        elif required:
            raise RecordError("%s has no %r" % (where, name))
    return kwargs


def decode(cls, d, where: str, *, schema: Optional[int] = None, own=(),
           prefix: str = "", **given):
    """The ``cls`` record that JSON object ``d`` describes, typed by the
    dataclass declaration alone: each key decodes as its field's annotation
    says (:func:`typed`), a missing key takes the dataclass default or is
    refused, and no key may be unknown, here or in a record inside (``config
    has unknown key(s) 'nett'``; all of them in one line).  ``where`` names
    the record in messages and ``prefix`` its fields (``send.peer``),
    ``schema`` is the version its ``"schema"`` key must carry, ``own``
    names keys the door reads by itself and ``given`` supplies fields it
    has decoded by hand.  The record is built only once its keys are all
    known, so nothing its constructor refuses outranks an unknown key."""
    if type(d) is not dict:
        raise RecordError("a %s must be a JSON object, got %r" % (where, d))
    if schema is not None:
        if type(d.get("schema")) is not int or d["schema"] != schema:
            raise RecordError("unsupported %s schema %r (expected %d)"
                              % (where, d.get("schema"), schema))
        own = (*own, "schema")
    unknown: list = []
    kwargs = _walk(cls, d, where, prefix, unknown, own, given)
    if unknown:
        raise RecordError("; ".join(unknown))
    return cls(**kwargs)


def encode(value, **given):
    """The JSON form of a record: its fields in declaration order, records
    and tuples inside walked, ``None`` left out.  ``given`` replaces fields
    the door writes by hand (``None`` drops one)."""
    if is_dataclass(value):
        out = {f.name: given[f.name] if f.name in given
               else encode(getattr(value, f.name)) for f in fields(value)}
        return {name: v for name, v in out.items() if v is not None}
    if type(value) in (tuple, list):
        return [encode(item) for item in value]
    return value


class Record:
    """Mixin: a dataclass whose JSON object is its declaration.  ``WHERE``
    names it in messages; ``validate`` (nothing, unless the class says
    otherwise) sees every decoded record before the caller does."""

    def validate(self) -> None:
        pass

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, d: dict):
        record = decode(cls, d, cls.WHERE)
        record.validate()
        return record
