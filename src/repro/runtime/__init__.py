"""SPMD runtime: the program launcher."""

from .program import ProgramResult, RankProgram, build_cluster, run_program

__all__ = ["run_program", "build_cluster", "ProgramResult", "RankProgram"]
