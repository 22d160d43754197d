"""Segmented, pipelined application-bypass collectives (repro.pipeline).

The paper's AB protocol bypasses the application for messages below the
eager limit; larger reductions fall back to the blocking store-and-forward
tree.  This subsystem opens the large-message path: a
:class:`~repro.config.PipelineParams` block is compiled by the
:class:`~repro.pipeline.segmenter.Segmenter` into per-segment chunks, each
small enough to travel as an ordinary AB eager packet.  Internal nodes keep
a *window* of per-segment reduce descriptors open, fold each arriving chunk
asynchronously and forward it to the parent before later chunks arrive
(cut-through reduction), so a long message streams through the tree instead
of being staged whole at every level.  The window itself is the AB engine's
(:meth:`repro.core.engine.AbEngine.reduce` — a whole message is its
one-segment case); this package supplies the segment plans and what only a
segmented run needs.

Disarmed (``segment_size_bytes == 0``, the default) the subsystem is never
constructed and every simulated metric is bit-identical to a build without
it.

Modules
-------
``segmenter``
    :class:`Segment` / :class:`Segmenter`: compile a ``PipelineParams``
    block into chunk plans (fixed or greedy ramp-up schedules).
``reduce``
    :class:`AbPipeline`: the segment plan the engine's routing decision
    asks for, the per-rank segment counters, the root's per-fold hook, and
    the Träff-style pipelined allreduce (segmented reduce overlapped with
    segmented broadcast, reusing :mod:`repro.core.broadcast`).
``numerics``
    The documented reassociation-tolerance policy for floating-point SUM.
"""

from .segmenter import Segment, Segmenter, plan_segments

__all__ = [
    "Segment",
    "Segmenter",
    "plan_segments",
]
