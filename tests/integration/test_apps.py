"""Application-kernel evaluations: the paper's claimed benefits must show
up in application-shaped loops, not just microbenchmarks."""

import pytest

from repro import MpiBuild, paper_cluster, quiet_cluster
from repro.apps import KERNELS, compare_builds
from repro.runtime.program import run_program


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_run_and_verify(kernel):
    comp = compare_builds(kernel, quiet_cluster(8, seed=2), iterations=8)
    for stats in comp.default_stats + comp.ab_stats:
        assert stats.iterations == 8
        assert stats.wall_us > 0
        assert stats.collective_us >= 0.0


def test_jacobi_ab_cuts_blocking():
    comp = compare_builds("jacobi", paper_cluster(16, seed=3),
                          iterations=15, imbalance=1.0)
    assert comp.blocking_improvement > 2.0, comp.summary()


def test_particles_ab_cuts_blocking():
    comp = compare_builds("particles", paper_cluster(16, seed=3),
                          iterations=15)
    assert comp.blocking_improvement > 1.5, comp.summary()


def test_particles_blocking_bcast_reclaims_skew():
    """Adversarial variant: a periodic *blocking* broadcast re-synchronizes
    everyone, so application bypass barely helps — the effect that makes
    the paper (Sec. II) ask for split-phase synchronizing collectives."""
    comp = compare_builds("particles", paper_cluster(16, seed=3),
                          iterations=15, rebalance_every=5)
    assert comp.blocking_improvement < 1.5, comp.summary()


def test_cg_allreduce_limits_gain():
    """CG's allreduces synchronize *everyone* (reduce+bcast): the bypass
    only helps the reduce half and its overheads can even make things
    slightly worse — an honest negative control matching the paper's
    Sec. II remark that synchronizing operations need a split-phase
    treatment to benefit."""
    comp = compare_builds("cg", paper_cluster(16, seed=3), iterations=10)
    assert 0.5 < comp.blocking_improvement < 2.0, comp.summary()


def test_kernel_stats_fractions():
    comp = compare_builds("jacobi", quiet_cluster(4, seed=1), iterations=5)
    for stats in comp.ab_stats:
        assert 0.0 <= stats.collective_us < stats.wall_us


def test_cg_pipelined_recovers_the_loss():
    """The split-phase extension fixes CG's negative result: hiding the
    first dot product's reduce tree behind the mat-vec beats the fully
    blocking loop in both wall time and collective blocking."""
    import numpy as np
    from repro.apps import cg_pipelined, conjugate_gradient
    from repro.runtime.program import run_program

    iters = 12
    blocking = run_program(paper_cluster(16, seed=3),
                           conjugate_gradient(iterations=iters),
                           build=MpiBuild.AB)
    pipelined = run_program(paper_cluster(16, seed=3),
                            cg_pipelined(iterations=iters),
                            build=MpiBuild.AB)
    b_wall = np.mean([s.wall_us for s in blocking.results])
    p_wall = np.mean([s.wall_us for s in pipelined.results])
    b_coll = np.mean([s.collective_us for s in blocking.results])
    p_coll = np.mean([s.collective_us for s in pipelined.results])
    assert p_wall < b_wall
    assert p_coll < b_coll * 0.85


def test_cg_pipelined_requires_ab_build():
    from repro.apps import cg_pipelined
    from repro.errors import ProcessFailed
    from repro.runtime.program import run_program

    with pytest.raises(ProcessFailed):
        run_program(quiet_cluster(4), cg_pipelined(iterations=2),
                    build=MpiBuild.DEFAULT)


def test_results_deterministic_per_seed():
    a = compare_builds("particles", paper_cluster(8, seed=5), iterations=6)
    b = compare_builds("particles", paper_cluster(8, seed=5), iterations=6)
    assert a.nonroot_mean_collective_us(MpiBuild.AB) == \
        b.nonroot_mean_collective_us(MpiBuild.AB)
