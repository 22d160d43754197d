"""Microbenchmarks reproducing the paper's measurement methodology."""

from .cpu_util import APP_CATEGORIES, CpuUtilResult, cpu_util_benchmark
from .faulted import FaultReduceResult, fault_reduce_benchmark
from .latency import LatencyResult, latency_benchmark, measure_one_way
from .nicred import nicred_cpu_util, nicred_latency
from .report import Series, Table
from .skew import SkewModel, conservative_latency_estimate
from .stats import SampleSummary, summarize

__all__ = [
    "cpu_util_benchmark", "CpuUtilResult", "APP_CATEGORIES",
    "fault_reduce_benchmark", "FaultReduceResult",
    "latency_benchmark", "LatencyResult", "measure_one_way",
    "nicred_cpu_util", "nicred_latency",
    "SkewModel", "conservative_latency_estimate",
    "SampleSummary", "summarize",
    "Table", "Series",
]
