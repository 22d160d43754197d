"""Differential test of the execute path (ROADMAP 3c, tree case): schedules
no lowering emits — the reduce leg on one random tree, the bcast leg on an
*independent* random tree — built from the per-rank step functions,
validated, executed through ``execute_schedule`` on both builds and compared
with numpy on every rank.

Steps are the only thing the entry points take, so nothing below the
interpreter can fall back on the configured (binomial) tree: the host
walker, the AB engine's neighbours, the AB broadcast's forwarding and the
pipelined root all have to follow the drawn trees.  Two consecutive calls on
one communicator use different trees, which is what the broadcast's
per-communicator registration has to survive (DESIGN.md §15).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import COLLECT, InvariantMonitor
from repro.cluster.cluster import Cluster
from repro.config import PipelineParams, quiet_cluster
from repro.core.interpreter import execute_schedule
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from repro.runtime.program import run_program
from repro.schedule import Schedule
from repro.schedule.lower import (ab_reduce_rank_steps, bcast_rank_steps,
                                  reduce_rank_steps, seg_ids)

ELEMENTS = 24          # splits evenly into 2, 3 and 4 segments


@st.composite
def random_trees(draw, size: int, root: int):
    """``{rank: (parent, kids)}`` of a random tree over ``size`` ranks
    rooted at ``root``: ranks join in a drawn order, each under a drawn
    earlier one."""
    others = [r for r in range(size) if r != root]
    order = [root] + draw(st.permutations(others))
    family = {rank: [None, []] for rank in order}
    for i in range(1, size):
        parent = order[draw(st.integers(min_value=0, max_value=i - 1))]
        family[order[i]][0] = parent
        family[parent][1].append(order[i])
    return family


@st.composite
def two_tree_allreduces(draw):
    """(size, root, nseg, [(reduce tree, bcast tree)] * 2)."""
    size = draw(st.integers(min_value=2, max_value=16))
    root = draw(st.integers(min_value=0, max_value=size - 1))
    nseg = draw(st.sampled_from((0, 2, 3, 4)))
    calls = [(draw(random_trees(size, root)), draw(random_trees(size, root)))
             for _ in range(2)]
    return size, root, nseg, calls


def two_tree_schedule(lowering, reduce_steps, size, root, nseg, up, down):
    segs = seg_ids(nseg)
    steps = [reduce_steps(*up[me], segs) + bcast_rank_steps(*down[me], segs)
             for me in range(size)]
    if lowering == "allreduce.ab" and nseg:
        # The AB build pipelines a segmented allreduce: the root
        # interleaves fold and re-broadcast per segment.
        lowering = "allreduce.pipelined"
        steps[root] = [step for s in segs
                       for step in (reduce_steps(*up[root], (s,))
                                    + bcast_rank_steps(*down[root], (s,)))]
    return Schedule("allreduce", lowering, size, root, nseg,
                    steps=steps).validate()


def contribution(rank: int) -> np.ndarray:
    return np.arange(ELEMENTS, dtype=np.float64) * (rank + 1) + 7.0 * rank


@given(drawn=two_tree_allreduces())
@settings(max_examples=30, deadline=None)
def test_two_tree_allreduce_matches_numpy_on_both_builds(drawn):
    size, root, nseg, calls = drawn
    config = quiet_cluster(size, seed=3)
    if nseg:
        config = replace(config, pipeline=PipelineParams(
            segment_size_bytes=ELEMENTS * 8 // nseg, max_inflight_segments=2))
    expected = np.add.reduce([contribution(r) for r in range(size)])
    for build, lowering, reduce_steps in (
            (MpiBuild.DEFAULT, "allreduce.reduce_bcast", reduce_rank_steps),
            (MpiBuild.AB, "allreduce.ab", ab_reduce_rank_steps)):
        schedules = [two_tree_schedule(lowering, reduce_steps, size, root,
                                       nseg, up, down) for up, down in calls]

        def program(mpi):
            results = []
            for schedule in schedules:
                result = yield from execute_schedule(
                    mpi, schedule, contribution(mpi.rank), SUM)
                results.append(result.copy())
            return results

        monitor = InvariantMonitor(mode=COLLECT)
        out = run_program(Cluster(config, monitor=monitor), program,
                          build=build)
        assert monitor.checks > 0 and monitor.violations == []
        if build is MpiBuild.AB and nseg:     # took the pipelined path
            stats = out.contexts[root].ab_engine.pipeline.stats
            assert stats.pipelined_allreduces == len(schedules)
        for results in out.results:
            for result in results:
                assert np.array_equal(result, expected)
