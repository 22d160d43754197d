"""Microbenchmarks reproducing the paper's measurement methodology.

Each benchmark kind is imported from its own module (``cpu_util``,
``latency``, ``faulted``, ``nicred``, ``scheduled``, ``pap``), so a point
loads only the kind it runs.
"""
