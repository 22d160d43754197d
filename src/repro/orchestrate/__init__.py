"""Parallel experiment orchestration and the bit-identity gate.

The sweep shape behind every figure in the paper — a grid of independent,
seed-keyed, bit-deterministic simulator runs — is embarrassingly parallel.
This package fans those grids out across worker processes
(:mod:`.runner`), records each sweep as a machine-readable
``BENCH_<name>.json`` (:mod:`.benchjson`), and gates drift in the
simulated numbers by diffing two such files exactly (:mod:`.compare`, also
``python -m repro.orchestrate.compare``).

Entry points:

* ``python -m repro.experiments <fig> --jobs N`` — parallel figure sweeps;
* ``python -m repro.orchestrate run-point '<json>'`` — replay one point
  serially (printed by worker-failure errors);
* ``python -m repro.orchestrate smoke [grid]`` — any CI grid registered in
  :data:`.points.GRIDS`; emits its BENCH json plus an InvariantMonitor
  report.

The package re-exports only :mod:`.points`, what every run uses; the pool
runner and the BENCH writer are imported from :mod:`.runner` and
:mod:`.benchjson`, so a single point never loads ``multiprocessing`` or
``subprocess``.
"""

from .points import ConfigSpec, PointResult, SweepPoint, execute_point

__all__ = ["ConfigSpec", "SweepPoint", "PointResult", "execute_point"]
