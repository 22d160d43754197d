"""Per-rule unit tests for the simlint AST linter."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.simlint import collect_generator_names
import ast


def lint_source(tmp_path: Path, source: str, *,
                relpath: str = "repro/sim/mod.py"):
    """Write ``source`` under a repro-shaped tree and lint it."""
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path])


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# SIM001 — dropped SimGen
# ----------------------------------------------------------------------
def test_sim001_discarded_generator_call(tmp_path):
    findings = lint_source(tmp_path, """
        def proto():
            yield 1

        def driver():
            proto()
            yield 2
    """)
    assert rules_of(findings) == ["SIM001"]
    assert "yield from" in findings[0].message


def test_sim001_yield_without_from(tmp_path):
    findings = lint_source(tmp_path, """
        def proto():
            yield 1

        def driver():
            yield proto()
    """)
    assert rules_of(findings) == ["SIM001"]


def test_sim001_correct_yield_from_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def proto():
            yield 1

        def driver():
            yield from proto()
    """)
    assert findings == []


def test_sim001_receiver_hint_table(tmp_path):
    # `wait` is ambiguous codebase-wide, but `progress.wait(...)` is known
    # generator API via the receiver-hint table.
    findings = lint_source(tmp_path, """
        def driver(self):
            self.progress.wait(request)
            yield 1
    """)
    assert rules_of(findings) == ["SIM001"]


def test_sim001_ambiguous_name_not_flagged(tmp_path):
    # One generator def and one plain def under the same name: the
    # two-pass collection must refuse to guess.
    findings = lint_source(tmp_path, """
        class A:
            def op(self):
                yield 1

        class B:
            def op(self):
                return 2

        def driver(b):
            b.op()
            yield 3
    """)
    assert findings == []


def test_generator_name_collection():
    tree = ast.parse(textwrap.dedent("""
        def gen():
            yield 1

        def nested_only():
            def inner():
                yield 2
            return inner

        def plain():
            return 3
    """))
    names = collect_generator_names([tree])
    assert "gen" in names and "inner" in names
    assert "nested_only" not in names and "plain" not in names


# ----------------------------------------------------------------------
# SIM002 — wall clock / ambient randomness (sim-scoped only)
# ----------------------------------------------------------------------
def test_sim002_time_and_random(tmp_path):
    findings = lint_source(tmp_path, """
        import time
        import random
        import numpy as np
        from time import perf_counter

        def f():
            a = time.time()
            b = perf_counter()
            c = random.randint(0, 3)
            d = np.random.default_rng()
            return a, b, c, d
    """)
    # The three stdlib time/random imports additionally trip SIM008.
    assert sorted(rules_of(findings)) == ["SIM002"] * 4 + ["SIM008"] * 3


def test_sim002_not_applied_outside_sim_scope(tmp_path):
    findings = lint_source(tmp_path, """
        import time

        def f():
            return time.time()
    """, relpath="repro/bench/mod.py")
    assert findings == []


def test_sim002_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        import time  # simlint: ignore[SIM008]

        def f():
            bad = time.time()
            ok = time.time()  # simlint: ignore[SIM002]
            also_ok = time.time()  # simlint: ignore
            return bad, ok, also_ok
    """)
    assert len(findings) == 1
    assert findings[0].line == 5


# ----------------------------------------------------------------------
# SIM003 — float equality on timestamps
# ----------------------------------------------------------------------
def test_sim003_timestamp_equality(tmp_path):
    findings = lint_source(tmp_path, """
        def f(sim, deadline):
            if sim.now == deadline:
                return 1
            if sim.now >= deadline:   # ordering is fine
                return 2
            if sim.finished_at is None:   # identity is fine
                return 3
            return 0
    """)
    assert rules_of(findings) == ["SIM003"]
    assert findings[0].line == 3


# ----------------------------------------------------------------------
# SIM004 — unconsumed ledger
# ----------------------------------------------------------------------
def test_sim004_charged_but_never_consumed(tmp_path):
    findings = lint_source(tmp_path, """
        def driver(costs):
            ledger = Ledger()
            ledger.charge(costs.match_us, "match")
            yield 1
    """)
    assert rules_of(findings) == ["SIM004"]
    assert "(yield `ledger`)" in findings[0].message


def test_sim004_consumed_via_busy_or_call(tmp_path):
    findings = lint_source(tmp_path, """
        def a(costs):
            ledger = Ledger()
            ledger.charge(1.0, "x")
            yield ledger

        def b(costs, engine):
            ledger = Ledger()
            ledger.charge(1.0, "x")
            engine.finish(ledger)
            yield 1

        def c(costs):
            ledger = Ledger()
            ledger.charge(1.0, "x")
            if ledger.total > 0.0:
                yield ledger
    """)
    assert findings == []


# ----------------------------------------------------------------------
# SIM005 / SIM006
# ----------------------------------------------------------------------
def test_sim005_mutable_default(tmp_path):
    findings = lint_source(tmp_path, """
        def f(a, b=[], c={}, d=None, e=()):
            return a, b, c, d, e
    """)
    assert rules_of(findings) == ["SIM005", "SIM005"]


def test_sim006_loop_capture(tmp_path):
    findings = lint_source(tmp_path, """
        def f(sim, items):
            for item in items:
                sim.schedule(1.0, lambda: item.fire())
            for item in items:
                sim.schedule(1.0, lambda _it=item: _it.fire())
    """)
    assert rules_of(findings) == ["SIM006"]
    assert findings[0].line == 4


def test_sim000_syntax_error(tmp_path):
    findings = lint_source(tmp_path, """
        def f(:
    """)
    assert rules_of(findings) == ["SIM000"]


# ----------------------------------------------------------------------
# SIM007 — direct switch/link construction outside topo/network
# ----------------------------------------------------------------------
def test_sim007_direct_construction_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.network.link import Link
        from repro.network.switch import CrossbarSwitch

        def build(params, nodes):
            sw = CrossbarSwitch(nodes, 0.35, 250.0)
            tx = Link("tx", 250.0)
            return sw, tx
    """, relpath="repro/core/bad.py")
    assert rules_of(findings) == ["SIM007", "SIM007"]
    assert "make_topology" in findings[0].message


def test_sim007_attribute_call_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.network import switch

        def build(nodes):
            return switch.CrossbarSwitch(nodes, 0.35, 250.0)
    """, relpath="repro/cluster/bad.py")
    assert rules_of(findings) == ["SIM007"]


def test_sim007_topo_and_network_packages_allowed(tmp_path):
    source = """
        from repro.network.link import Link
        from repro.network.switch import CrossbarSwitch

        def build(nodes):
            return CrossbarSwitch(nodes, 0.35, 250.0), Link("l", 250.0)
    """
    assert lint_source(tmp_path, source,
                       relpath="repro/topo/custom.py") == []
    assert lint_source(tmp_path, source,
                       relpath="repro/network/fabric2.py") == []


def test_sim007_unrelated_same_named_class_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        import reportlib

        def render():
            return reportlib.chart.Link("a", "b")
    """, relpath="repro/core/render.py")
    assert findings == []


def test_sim007_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.network.link import Link

        def probe():
            return Link("l", 1.0)  # simlint: ignore[SIM007]
    """, relpath="repro/core/probe.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM008 — random/time stdlib imports in simulation-scoped code
# ----------------------------------------------------------------------
def test_sim008_flags_stdlib_imports(tmp_path):
    findings = lint_source(tmp_path, """
        import random
        from time import sleep

        def f():
            return sleep, random
    """, relpath="repro/faults/bad.py")
    assert rules_of(findings) == ["SIM008", "SIM008"]
    assert "RngStreams" in findings[0].message


def test_sim008_aliased_import_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        import random as rnd

        def f():
            return rnd.random()
    """)
    # The alias trips SIM008 at the import and SIM002 at the call.
    assert sorted(rules_of(findings)) == ["SIM002", "SIM008"]


def test_sim008_not_applied_outside_sim_scope(tmp_path):
    findings = lint_source(tmp_path, """
        import time
        import random

        def f():
            return time, random
    """, relpath="repro/orchestrate/runner2.py")
    assert findings == []


def test_sim008_numpy_and_relative_imports_clean(tmp_path):
    findings = lint_source(tmp_path, """
        import numpy as np
        from numpy.random import default_rng
        from .timers import later

        def f():
            return np, default_rng, later
    """)
    assert findings == []


# ----------------------------------------------------------------------
# SIM009 — segment/descriptor construction outside pipeline/core
# ----------------------------------------------------------------------
def test_sim009_direct_construction_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.pipeline.segmenter import Segment, Segmenter
        from repro.core.descriptor import ReduceDescriptor

        def build(params):
            seg = Segment(0, 0, 128, 8)
            planner = Segmenter(params)
            desc = ReduceDescriptor(context_id=0, instance=1)
            return seg, planner, desc
    """, relpath="repro/mpich/bad.py")
    assert rules_of(findings) == ["SIM009", "SIM009", "SIM009"]
    assert "plan_segments" in findings[0].message


def test_sim009_attribute_call_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.pipeline import segmenter

        def build(params):
            return segmenter.Segmenter(params)
    """, relpath="repro/runtime/bad.py")
    assert rules_of(findings) == ["SIM009"]


def test_sim009_pipeline_and_core_packages_allowed(tmp_path):
    source = """
        from repro.pipeline.segmenter import Segment, Segmenter

        def build(params):
            return Segmenter(params), Segment(0, 0, 4, 8)
    """
    assert lint_source(tmp_path, source,
                       relpath="repro/pipeline/custom.py") == []
    assert lint_source(tmp_path, source,
                       relpath="repro/core/engine2.py") == []


def test_sim009_hardcoded_segment_size_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        def run(pipeline_cls):
            return pipeline_cls(segment_size_bytes=4096)
    """, relpath="repro/apps/bad.py")
    assert rules_of(findings) == ["SIM009"]
    assert "PipelineParams" in findings[0].message


def test_sim009_pipeline_params_keyword_allowed(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.config import PipelineParams

        def configure():
            return PipelineParams(segment_size_bytes=2048)
    """, relpath="repro/orchestrate/points2.py")
    assert findings == []


def test_sim009_zero_segment_size_allowed(tmp_path):
    # segment_size_bytes=0 is the disarmed spelling — never flagged.
    findings = lint_source(tmp_path, """
        def run(pipeline_cls):
            return pipeline_cls(segment_size_bytes=0)
    """, relpath="repro/apps/ok.py")
    assert findings == []


def test_sim009_unrelated_same_named_class_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        import svglib

        def render():
            return svglib.path.Segment("M", "0,0")
    """, relpath="repro/mpich/render.py")
    assert findings == []


def test_sim009_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.pipeline.segmenter import Segmenter

        def probe(params):
            return Segmenter(params)  # simlint: ignore[SIM009]
    """, relpath="repro/apps/probe.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM010 — iteration over unordered sets in sim scope
# ----------------------------------------------------------------------
def test_sim010_for_over_set_literal(tmp_path):
    findings = lint_source(tmp_path, """
        def walk(sim):
            for child in {3, 1, 2}:
                sim.schedule(1.0, print, child)
    """)
    assert "SIM010" in rules_of(findings)


def test_sim010_for_over_set_typed_attribute(tmp_path):
    findings = lint_source(tmp_path, """
        class Engine:
            def __init__(self):
                self.pending = set()

            def drain(self):
                for item in self.pending:
                    item.run()
    """)
    assert "SIM010" in rules_of(findings)


def test_sim010_sorted_iteration_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def walk(children):
            out = []
            for child in sorted({3, 1, 2}):
                out.append(child)
            return out
    """)
    assert "SIM010" not in rules_of(findings)


def test_sim010_set_into_set_comprehension_is_clean(tmp_path):
    # A set built FROM a set cannot leak iteration order: the sink is
    # itself unordered (the split_phase children x segments idiom).
    findings = lint_source(tmp_path, """
        def fanout(children, segments):
            return {(c, s) for c in children for s in segments}
    """)
    assert "SIM010" not in rules_of(findings)


def test_sim010_not_applied_outside_sim_scope(tmp_path):
    findings = lint_source(tmp_path, """
        def report(keys):
            for k in {1, 2, 3}:
                print(k)
    """, relpath="repro/analysis/report.py")
    assert "SIM010" not in rules_of(findings)


# ----------------------------------------------------------------------
# SIM011 — schedule() order flowing from container iteration
# ----------------------------------------------------------------------
def test_sim011_schedule_inside_set_loop(tmp_path):
    findings = lint_source(tmp_path, """
        def fire_all(sim, waiters):
            for w in set(waiters):
                sim.schedule(0.0, w.notify)
    """)
    assert "SIM011" in rules_of(findings)


def test_sim011_schedule_from_sorted_loop_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def fire_all(sim, waiters):
            for w in sorted(set(waiters)):
                sim.schedule(0.0, w.notify)
    """)
    assert "SIM011" not in rules_of(findings)


def test_sim011_schedule_from_list_loop_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def fire_all(sim, waiters):
            for w in waiters:
                sim.schedule(0.0, w.notify)
    """)
    assert "SIM011" not in rules_of(findings)


# ----------------------------------------------------------------------
# SIM013 — fabric/cluster/topology construction in job-level code
# ----------------------------------------------------------------------
def test_sim013_job_level_cluster_construction_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.cluster.cluster import Cluster
        from repro.network.fabric import Fabric

        def job(config, sim):
            cluster = Cluster(config)
            fabric = Fabric(sim, config.net, config.size)
            return cluster, fabric
    """, relpath="repro/apps/bad.py")
    assert rules_of(findings) == ["SIM013", "SIM013"]
    assert "shared fabric" in findings[0].message


def test_sim013_topology_factory_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.topo import base

        def job(params, nodes):
            return base.make_topology(params, nodes)
    """, relpath="repro/experiments/bad.py")
    assert rules_of(findings) == ["SIM013"]


def test_sim013_service_layers_allowed(tmp_path):
    source = """
        from repro.cluster.cluster import Cluster
        from repro.network.fabric import Fabric
        from repro.topo.base import make_topology

        def build(sim, config):
            return (Cluster(config), Fabric(sim, config.net, config.size),
                    make_topology(config.net, config.size))
    """
    for relpath in ("repro/tenancy/svc.py", "repro/orchestrate/svc.py",
                    "repro/runtime/svc.py", "repro/cluster/svc.py",
                    "repro/network/svc.py", "repro/topo/svc.py",
                    "tests/unit/test_svc.py"):
        assert lint_source(tmp_path, source, relpath=relpath) == [], relpath


def test_sim013_unrelated_same_named_class_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        import sklearn.cluster_viz as viz

        def render(points):
            return viz.charts.Cluster(points)
    """, relpath="repro/apps/render.py")
    assert findings == []


def test_sim013_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.cluster.cluster import Cluster

        def probe(config):
            return Cluster(config)  # simlint: ignore[SIM013]
    """, relpath="repro/apps/probe.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM014 — hand-constructed collective send/recv orderings
# ----------------------------------------------------------------------
def test_sim014_descriptor_post_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        def my_reduce(rank, data, children):
            for child in children:
                rank.progress.start_send(data, child, 4096, None)
    """, relpath="repro/apps/bad.py")
    assert rules_of(findings) == ["SIM014"]
    assert "Schedule" in findings[0].message


def test_sim014_ab_header_framing_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.mpich.message import AbHeader

        def frame(root, instance):
            return AbHeader(root=root, instance=instance, kind="reduce")
    """, relpath="repro/apps/bad.py")
    assert rules_of(findings) == ["SIM014"]
    assert "engine" in findings[0].message


def test_sim014_collective_layers_allowed(tmp_path):
    source = """
        from repro.mpich.message import AbHeader

        def push(rank, data, dst):
            rank.progress.start_send(data, dst, 4096, None)
            return AbHeader(root=0, instance=1, kind="reduce")
    """
    for relpath in ("repro/schedule/lower.py", "repro/core/engine2.py",
                    "repro/mpich/coll2.py", "repro/pipeline/seg2.py",
                    "tests/unit/test_push.py"):
        assert lint_source(tmp_path, source, relpath=relpath) == [], relpath


def test_sim014_unrelated_same_named_class_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        import mailkit.headers as headers

        def parse(raw):
            return headers.mime.AbHeader(raw)
    """, relpath="repro/apps/parse.py")
    assert findings == []


def test_sim014_bare_start_send_function_not_flagged(tmp_path):
    # Only attribute calls (posting through a progress engine) count; a
    # local helper that happens to share the name is fine.
    findings = lint_source(tmp_path, """
        def start_send(queue, item):
            queue.append(item)

        def driver(queue):
            start_send(queue, 1)
    """, relpath="repro/apps/util.py")
    assert findings == []


def test_sim014_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        def probe(rank, data):
            rank.progress.start_send(data, 1, 0, None)  # simlint: ignore[SIM014]
    """, relpath="repro/apps/probe.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM015 — ad-hoc pre-collective delay injection
# ----------------------------------------------------------------------
def test_sim015_cpu_freeze_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        def fake_straggler(node, us):
            node.cpu.freeze(us)
    """, relpath="repro/apps/straggle.py")
    assert rules_of(findings) == ["SIM015"]
    assert "WorkloadParams" in findings[0].message


def test_sim015_allowed_layers(tmp_path):
    source = """
        def pause(node, us):
            node.cpu.freeze(us)
    """
    for relpath in ("repro/workload/model2.py", "repro/faults/injector2.py",
                    "repro/sim/cpu2.py", "tests/unit/test_pause.py"):
        assert lint_source(tmp_path, source, relpath=relpath) == [], relpath


def test_sim015_bare_freeze_function_not_flagged(tmp_path):
    # Only attribute calls (freezing through a host CPU object) count; a
    # local helper that happens to share the name is fine.
    findings = lint_source(tmp_path, """
        def freeze(config):
            return tuple(sorted(config.items()))

        def snapshot(config):
            return freeze(config)
    """, relpath="repro/apps/util.py")
    assert findings == []


def test_sim015_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        def probe(node):
            node.cpu.freeze(5.0)  # simlint: ignore[SIM015]
    """, relpath="repro/apps/probe.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM016 — ad-hoc progress spin
# ----------------------------------------------------------------------
SIM016_SPIN = """
    def block_until(engine, done):
        while not done():
            trigger = engine.nic.rx_notifier.wait()
            yield trigger
"""


def test_sim016_hand_rolled_spin_flagged(tmp_path):
    findings = lint_source(tmp_path, SIM016_SPIN,
                           relpath="repro/core/broadcast2.py")
    assert rules_of(findings) == ["SIM016"]
    assert "progress.spin" in findings[0].message


def test_sim016_progress_engine_and_tests_allowed(tmp_path):
    for relpath in ("repro/mpich/progress.py", "tests/unit/test_spin.py"):
        assert lint_source(tmp_path, SIM016_SPIN, relpath=relpath) == [], \
            relpath


def test_sim016_other_waits_not_flagged(tmp_path):
    # Only the NIC receive notifier counts: waiting on a request through
    # the progress engine, or on some other notifier, is fine.
    findings = lint_source(tmp_path, """
        def recv(rank, request, node):
            yield from rank.progress.wait(request)
            return node.tx_notifier.wait()
    """, relpath="repro/core/ext.py")
    assert findings == []


def test_sim016_pragma_suppression(tmp_path):
    findings = lint_source(tmp_path, """
        def probe(nic):
            return nic.rx_notifier.wait()  # simlint: ignore[SIM016]
    """, relpath="repro/apps/probe.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM017 — tree neighbours re-derived from config
# ----------------------------------------------------------------------
SIM017_DERIVE = """
    from ..topo import ranks as tree

    def forward(rank, comm, root, me):
        _, kids = tree.family(rank.tree_shape, comm.size, root, me)
        return kids
"""


def test_sim017_config_derived_neighbours_flagged(tmp_path):
    findings = lint_source(tmp_path, SIM017_DERIVE,
                           relpath="repro/core/broadcast2.py")
    assert rules_of(findings) == ["SIM017"]
    assert "take neighbours from your steps" in findings[0].message


def test_sim017_derivation_layers_and_tests_allowed(tmp_path):
    for relpath in ("repro/topo/ranks2.py", "repro/schedule/lower2.py",
                    "repro/mpich/collectives/walk.py",
                    "tests/unit/test_tree.py"):
        assert lint_source(tmp_path, SIM017_DERIVE, relpath=relpath) == [], \
            relpath
    # The NIC reduction reads its tree off steps like every other caller.
    assert rules_of(lint_source(tmp_path, SIM017_DERIVE,
                                relpath="repro/core/nic_reduce.py")) \
        == ["SIM017"]


def test_sim017_unrelated_family_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        from fonts import catalog

        def pick(name):
            return catalog.family(name)
    """, relpath="repro/report/fonts.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM018 — JSON decoded outside the record codec
# ----------------------------------------------------------------------
SIM018_PARSE = """
    import json

    def read(path, text):
        with open(path) as fh:
            stored = json.load(fh)
        return stored, json.loads(text)
"""


def test_sim018_json_parse_outside_the_codec_flagged(tmp_path):
    for relpath in ("repro/tenancy/cache2.py", "repro/analysis/report2.py"):
        findings = lint_source(tmp_path / relpath.split("/")[1],
                               SIM018_PARSE, relpath=relpath)
        assert rules_of(findings) == ["SIM018", "SIM018"], relpath
        assert "decode outside input through the record codec" \
            in findings[0].message


def test_sim018_codec_and_tests_allowed(tmp_path):
    for relpath in ("repro/config.py", "tests/unit/test_doors.py"):
        assert lint_source(tmp_path, SIM018_PARSE, relpath=relpath) == [], \
            relpath


def test_sim018_writing_json_and_other_loads_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """
        import json
        import pickle

        def write(record, blob):
            return json.dumps(record), pickle.loads(blob)
    """, relpath="repro/report/out.py")
    assert findings == []


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
def test_registry_lists_all_rules():
    from repro.analysis.rules import REGISTRY, rule_table
    table = rule_table()
    assert {"SIM000", "SIM001", "SIM009", "SIM010", "SIM011",
            "SIM013", "SIM014", "SIM015",
            "SIM016", "SIM017", "SIM018"} <= set(table)
    assert "SIM012" not in table
    assert REGISTRY["SIM010"].spec.sim_scope_only


def test_readme_rule_table_lists_exactly_the_registry():
    """README's table is the one hand-written rule list: a rule added to
    or dropped from the registry must be added to or dropped from it."""
    import re
    from repro.analysis.rules import REGISTRY
    readme = Path(__file__).resolve().parents[2] / "README.md"
    first_cells = [line.split("|")[1]
                   for line in readme.read_text(encoding="utf-8").splitlines()
                   if line.startswith("| `SIM")]
    listed = re.findall(r"SIM\d{3}", "".join(first_cells))
    assert sorted(listed) == sorted(REGISTRY)
