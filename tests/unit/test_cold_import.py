"""A simulation process loads only what it arms (DESIGN §13).

Each case runs a fresh interpreter that imports ``repro``, executes one
paper-8 ``cpu_util`` point through ``execute_point`` and reports
``sys.modules``.  Disarmed, none of :data:`NEVER_DISARMED` may load: the
linter, the pool runner, the BENCH writer and the subsystems that only an
armed config calls.  Armed with faults and the monitor, the modules those
arm do load, so the check can fail in both directions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a disarmed paper-8 ``cpu_util`` point never calls.
NEVER_DISARMED = (
    "repro.analysis.simlint", "repro.analysis.rules",
    "repro.analysis.invariants",
    "repro.orchestrate.runner", "repro.orchestrate.benchjson",
    "multiprocessing", "concurrent.futures",
    "repro.core.nic_reduce", "repro.core.split_phase",
    "repro.core.broadcast", "repro.schedule.passes",
    "repro.faults.injectors",
)
#: What faults plus the monitor arm: the injectors and the checker.
ARMED = ("repro.faults.injectors", "repro.analysis.invariants")
#: Tools that even an armed point never calls.
TOOLS = ("repro.analysis.simlint", "repro.orchestrate.runner",
         "repro.orchestrate.benchjson", "multiprocessing")

SCRIPT = """
import json, sys
import repro
from repro.orchestrate.points import burst_loss, cpu_util_point, execute_point
armed = sys.argv[1] == "armed"
blocks = {"faults": burst_loss(0.01)} if armed else {}
point = cpu_util_point("cold", 8, "ab", seed=1, iterations=2, elements=4,
                       skew=100.0, collect_invariants=armed, **blocks)
result = execute_point(point)
assert result.metrics and (result.invariant_report is not None) == armed
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(mode: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT, mode], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_a_disarmed_point_loads_no_tool_and_no_unarmed_subsystem():
    loaded = _loaded("disarmed")
    assert "repro.core.engine" in loaded      # the AB build did run
    assert sorted(loaded.intersection(NEVER_DISARMED)) == []


def test_an_armed_point_loads_what_it_arms_and_still_no_tool():
    loaded = _loaded("armed")
    assert sorted(set(ARMED) - loaded) == []
    assert sorted(loaded.intersection(TOOLS)) == []
