"""Per-figure experiment drivers (see DESIGN.md §4 for the index)."""

from . import (ablations, extensions, fig6, fig7, fig8, fig9, fig10,
               fig_faults, fig_pap, fig_pipeline, fig_schedule, fig_tenancy,
               fig_topo, scale)
from .common import (ExperimentOutput, PAPER_ELEMENTS, PAPER_MSG_SIZES,
                     PAPER_SIZES, PAPER_SKEWS)

#: name -> (run, banner title, default iterations), in ``all`` order;
#: ``common.main(name, argv)`` is the CLI of every entry.
EXPERIMENTS = {
    "fig6": (fig6.run,
             "Fig. 6: CPU utilization vs. process skew (32 nodes)", 100),
    "fig7": (fig7.run,
             "Fig. 7: CPU utilization vs. nodes (max skew 1000 us)", 100),
    "fig8": (fig8.run,
             "Fig. 8: CPU utilization vs. nodes (no injected skew)", 150),
    "fig9": (fig9.run, "Fig. 9: reduction latency vs. nodes (no skew)", 150),
    "fig10": (fig10.run,
              "Fig. 10: reduction latency vs. message size (32 nodes)", 120),
    "fig_topo": (fig_topo.run,
                 "fig_topo: topology x tree shape x skew sweep", 60),
    "fig_faults": (fig_faults.run,
                   "fig_faults: fault type x rate x build x topology sweep",
                   40),
    "fig_pipeline": (fig_pipeline.run,
                     "fig_pipeline: segment size x message size x build x "
                     "tree shape", 60),
    "fig_schedule": (fig_schedule.run,
                     "fig_schedule: schedule IR crossover + persisted "
                     "autotuning", 40),
    "fig_tenancy": (fig_tenancy.run,
                    "fig_tenancy: co-tenant jobs sharing one fabric", 10),
    "fig_pap": (fig_pap.run,
                "fig_pap: arrival patterns x PAP-aware allreduce crossover",
                8),
    "ablations": (ablations.run, "Ablations: design-choice studies", 60),
    "extensions": (extensions.run,
                   "Extensions: NIC-based reduction, application kernels, "
                   "pipelined CG", 30),
    "scale": (scale.run, "Scalability extrapolation (16..256 nodes)", 20),
}

__all__ = [
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig_topo", "fig_faults",
    "fig_pap", "fig_pipeline", "fig_schedule", "fig_tenancy", "ablations",
    "extensions", "scale",
    "EXPERIMENTS", "ExperimentOutput",
    "PAPER_SIZES", "PAPER_ELEMENTS", "PAPER_SKEWS", "PAPER_MSG_SIZES",
]
