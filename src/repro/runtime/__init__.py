"""SPMD runtime: per-rank contexts and the program launcher."""

from .context import MpiContext
from .program import ProgramResult, RankProgram, build_cluster, run_program

__all__ = ["MpiContext", "run_program", "build_cluster", "ProgramResult",
           "RankProgram"]
