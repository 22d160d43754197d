"""Every JSON front door answers damage in one line (ROADMAP 3e).

A *door* is a place where a record written by something other than this
process comes in: a sweep point (``run-point``, the result cache, the
pinned smoke grid), a job or cluster spec, the tuned table, an arrival
trace, a schedule, a cache record, a BENCH file.  For each door the module
takes one valid record and damages it — drops a key, adds a key, swaps a
value for one of another JSON type, wraps the root in a list, cuts the
text short — exhaustively for single edits and through Hypothesis for
pairs.  The outcome must be one of two: the door refuses with its own
error type in a single line, or it accepts and hands back a record that
says everything the damaged input said (nothing dropped, nothing coerced).
Any other exception type, and any silently different record, fails.

The explicit tables below are the kinds of case that motivated the codec:
of thirty-three such records tried at 6ceee86, thirteen were accepted and
seventeen escaped as ``KeyError``/``TypeError``/``AttributeError``/
``JSONDecodeError``.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (AbParams, FaultParams, MpiParams, NetParams,
                          NicParams, NoiseParams, PipelineParams,
                          RecordError, WorkloadParams, loads)
from repro.orchestrate import __main__ as orchestrate_cli
from repro.orchestrate import compare as compare_cli
from repro.orchestrate.benchjson import bench_payload, load_bench_json
from repro.orchestrate.points import ConfigSpec, PointResult, SweepPoint
from repro.schedule import lower
from repro.schedule.ir import Schedule, ScheduleError
from repro.schedule.table import TunedEntry, TuningTable
from repro.tenancy import (ClusterSpec, JobSpec, ResultCache, SpecError,
                           point_cache_key)
from repro.topo.trees import make_tree_shape
from repro.workload.trace import ArrivalTrace, WorkloadError


# ---------------------------------------------------------------------------
# the doors
# ---------------------------------------------------------------------------

POINT = SweepPoint(
    experiment="doors", kind="schedule", build="ab", elements=256,
    max_skew_us=100.0, iterations=3, warmup=1, collect_invariants=True,
    tiebreak_seed=7,
    options={"lowering": "reduce.ab", "passes": [["p", {"k": 1}]]},
    config=ConfigSpec(
        "paper", 8, 1,
        ab=AbParams(eager_limit_bytes=512),
        nic=NicParams(send_tokens=8),
        net=NetParams(topology="fattree", fattree_hosts_per_switch=4),
        mpi=MpiParams(tree_shape="knomial", tree_radix=4),
        noise=NoiseParams(spike_prob=0.1),
        faults=FaultParams(burst_prob=0.02, degrade_links=(1, 2)),
        pipeline=PipelineParams(segment_size_bytes="auto"),
        workload=WorkloadParams(pattern="trace_replay",
                                trace=((0.0, 5.5), (2.0, 0.0)))))

RESULT = PointResult(point=POINT, metrics={"avg_latency_us": 12.5},
                     wall_time_s=0.25, counters={"events": 40, "tag": "x"},
                     invariant_report={"checks": 3, "violations": []})


@dataclass(frozen=True)
class Door:
    #: JSON value -> whatever the door hands back; raises on refusal.
    decode: Callable
    #: What decode handed back -> the JSON object it stands for.
    encode: Callable
    #: A record the door accepts.
    valid: dict
    #: The only exception types decode may raise.
    errors: tuple
    #: Top-level keys the door does not read (another layer's envelope).
    unread: tuple = ()
    #: decode() also takes the text of a file, not only a parsed value.
    reads_text: bool = False


def _file_door(tmp_path_factory, name: str, read: Callable):
    """decode() for a door that reads a file: write the value, read it."""
    path = tmp_path_factory.mktemp(name) / f"{name}.json"

    def decode(value):
        path.write_text(value if isinstance(value, str)
                        else json.dumps(value))
        return read(path)
    return decode


def _cache_record() -> dict:
    """What ``ResultCache.put`` writes for RESULT (put is the only writer)."""
    with tempfile.TemporaryDirectory() as scratch:
        cache = ResultCache(scratch)
        key = cache.put(RESULT)
        with open(cache._path(key)) as fh:
            return json.load(fh)


class _Refused(Exception):
    """The cache's way of refusing is a miss, not an exception."""


@pytest.fixture(scope="module")
def doors(tmp_path_factory) -> dict:
    cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
    record_path = cache._path(point_cache_key(POINT))

    def cache_get(value):
        with open(record_path, "w") as fh:
            fh.write(value if isinstance(value, str) else json.dumps(value))
        result = cache.get(POINT)
        if result is None:
            raise _Refused
        return result

    def cache_fields(result: PointResult) -> dict:
        return {"metrics": result.metrics, "wall_time_s": result.wall_time_s,
                "counters": result.counters,
                "invariant_report": result.invariant_report}

    table = TuningTable(entries=[
        TunedEntry(topology="crossbar", nranks=8, min_msg_bytes=0,
                   max_msg_bytes=4095, tree_shape="knomial", tree_radix=4,
                   source={"experiment": "t", "seed": "1"}),
        TunedEntry(topology="torus", nranks=8, min_msg_bytes=4096,
                   max_msg_bytes=1 << 40, segment_size_bytes=2048,
                   max_inflight_segments=2)])
    return {
        "point": Door(SweepPoint.from_dict, SweepPoint.to_dict,
                      POINT.to_dict(), (RecordError,)),
        "job": Door(JobSpec.from_dict, JobSpec.to_dict,
                    JobSpec(name="t0", nranks=4, collective="allreduce",
                            max_skew_us=50.0).to_dict(),
                    (RecordError, SpecError)),
        "cluster": Door(ClusterSpec.from_dict, ClusterSpec.to_dict,
                        ClusterSpec(hosts=16, topology="fattree",
                                    fattree_oversubscription=4.0).to_dict(),
                        (RecordError, SpecError)),
        "table": Door(TuningTable.from_dict, TuningTable.to_dict,
                      table.to_dict(), (RecordError,)),
        "table file": Door(
            _file_door(tmp_path_factory, "tuned", TuningTable.load),
            TuningTable.to_dict, table.to_dict(), (RecordError,),
            reads_text=True),
        "trace": Door(ArrivalTrace.from_dict, ArrivalTrace.to_dict,
                      ArrivalTrace(((0.5, 12.25), (3.0, 0.0))).to_dict(),
                      (RecordError, WorkloadError)),
        "schedule": Door(Schedule.from_dict, Schedule.to_dict,
                         lower("allreduce.ab", make_tree_shape("binomial"), 4,
                               nseg=2).with_meta("by", "test").to_dict(),
                         (ScheduleError,)),
        "cache record": Door(cache_get, cache_fields, _cache_record(),
                             (_Refused,),
                             unread=("cache_schema", "bench_schema", "key",
                                     "point"), reads_text=True),
        "bench": Door(
            _file_door(tmp_path_factory, "BENCH_doors", load_bench_json),
            lambda payload: payload,
            json.loads(json.dumps(bench_payload("doors", [RESULT],
                                                sha="test"))),
            (RecordError,), reads_text=True),
    }


DOOR_NAMES = ("point", "job", "cluster", "table", "table file", "trace",
              "schedule", "cache record", "bench")


# ---------------------------------------------------------------------------
# damage, and what counts as surviving it
# ---------------------------------------------------------------------------

#: One value of each JSON type, to swap in where another type stood.
SWAPS = (7, 4.7, "x", True, None, [], {})


def _paths(value, prefix=()):
    """Every node of a JSON value, as a tuple of keys/indices from the root."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _at(value, path):
    for step in path:
        value = value[step]
    return value


def _set(path, value):
    """An edit: put ``value`` at ``path`` (which may be a new key)."""
    def edit(d):
        _at(d, path[:-1])[path[-1]] = copy.deepcopy(value)
        return d
    return edit


def _drop(path):
    def edit(d):
        del _at(d, path[:-1])[path[-1]]
        return d
    return edit


def edits(valid) -> list:
    """Every single edit of ``valid`` as ``(label, edit)``; ``edit(copy)``
    returns the damaged root."""
    out = [("root in a list", lambda d: [d]), ("root := null", lambda d: None)]
    for path in _paths(valid):
        here = "/".join(map(str, path)) or "."
        node = _at(valid, path)
        if isinstance(node, dict):
            out.append((f"add {here}/zzz", _set(path + ("zzz",), 1)))
        if path:
            out.append((f"drop {here}", _drop(path)))
            out += [(f"{here} := {swap!r}", _set(path, swap))
                    for swap in SWAPS if type(swap) is not type(node)]
    return out


def outcome(door: Door, damaged, label: str) -> None:
    """The one assertion of this module: refuse in the door's own words, or
    hand back a record that says everything the input said."""
    try:
        record = door.decode(damaged)
    except door.errors as exc:
        assert "\n" not in str(exc), f"{label}: {exc}"
        return
    assert isinstance(damaged, dict), f"{label}: took a root that is no object"
    says_everything(door.encode(record),
                    {k: v for k, v in damaged.items() if k not in door.unread},
                    label)


def says_everything(record, said, where="") -> None:
    """Assert ``record`` (what the door re-encodes) carries everything
    ``said`` (what the door was given): no key ignored, no value coerced.
    A null stands for a key left out; an int may stand for a number."""
    if said is None:
        assert record is None, f"{where}: null became {record!r}"
    elif isinstance(said, dict):
        assert isinstance(record, dict), f"{where}: {said!r} -> {record!r}"
        for key, item in said.items():
            if item is None:
                assert record.get(key) is None, \
                    f"{where}/{key}: null became {record.get(key)!r}"
            else:
                assert key in record, f"{where}: key {key!r} was ignored"
                says_everything(record[key], item, f"{where}/{key}")
    elif isinstance(said, list):
        assert isinstance(record, (list, tuple)) \
            and len(record) == len(said), f"{where}: {said!r} -> {record!r}"
        for i, item in enumerate(said):
            says_everything(record[i], item, f"{where}/{i}")
    elif type(said) in (int, float):
        assert type(record) in (int, float) and record == said, \
            f"{where}: {said!r} -> {record!r}"
    else:
        assert type(record) is type(said) and record == said, \
            f"{where}: {said!r} -> {record!r}"


# ---------------------------------------------------------------------------
# every single edit, and random pairs of them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", DOOR_NAMES)
def test_the_valid_record_round_trips(doors, name):
    door = doors[name]
    outcome(door, copy.deepcopy(door.valid), name)
    assert door.encode(door.decode(copy.deepcopy(door.valid))) == {
        k: v for k, v in door.valid.items() if k not in door.unread}


@pytest.mark.parametrize("name", DOOR_NAMES)
def test_every_single_edit_is_refused_or_says_everything(doors, name):
    door = doors[name]
    cases = edits(door.valid)
    assert len(cases) > 20
    for label, edit in cases:
        outcome(door, edit(copy.deepcopy(door.valid)), f"{name}: {label}")


@pytest.mark.parametrize("name", DOOR_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_two_edits_at_once(doors, name, data):
    door = doors[name]
    damaged = copy.deepcopy(door.valid)
    labels = []
    for _ in range(2):
        if not isinstance(damaged, dict):
            break
        label, edit = data.draw(st.sampled_from(edits(damaged)))
        labels.append(label)
        damaged = edit(damaged)
    outcome(door, damaged, f"{name}: {' + '.join(labels)}")


@pytest.mark.parametrize("name", DOOR_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_text_cut_short(doors, name, data):
    """A door that reads a file must refuse the cut text itself; the rest
    have ``loads`` in front of them."""
    door = doors[name]
    text = json.dumps(door.valid)
    cut = text[:data.draw(st.integers(0, len(text) - 1))]
    if door.reads_text:
        outcome(door, cut, f"{name}: cut at {len(cut)}")
    else:
        with pytest.raises(RecordError) as err:
            loads(cut, name)
        assert str(err.value).startswith(f"{name} is not valid JSON: ")


@pytest.mark.parametrize("door,text", [
    (Schedule.from_json, '{"schema": 1, "collective": "reduce"'),
    (ArrivalTrace.from_json, '{"schema": 1, "nranks": 2, "delays": [[0.5'),
], ids=["schedule", "trace"])
def test_from_json_refuses_cut_text(door, text):
    with pytest.raises((RecordError, ScheduleError)) as err:
        door(text)
    assert "is not valid JSON: " in str(err.value)


# ---------------------------------------------------------------------------
# the explicit table: the malformed records of ISSUE 19
# ---------------------------------------------------------------------------

def _entry(i, key):
    return ("entries", i, key)


#: (door, what is wrong, edit, the line the door answers with)
MALFORMED = [
    # accepted at 6ceee86: ignored keys ...
    ("point", "misspelt block", _set(("config", "nett"), {"topology": "torus"}),
     "config has unknown key(s) 'nett'"),
    ("point", "misspelt field", _set(("max_skew",), 1000.0),
     "point has unknown key(s) 'max_skew'"),
    ("job", "misspelt field", _set(("colective",), "bcast"),
     "job has unknown key(s) 'colective'"),
    ("cluster", "misspelt field", _set(("topolgy",), "torus"),
     "cluster has unknown key(s) 'topolgy'"),
    ("cluster", "misspelt knob", _set(("tre_shape",), "chain"),
     "cluster has unknown key(s) 'tre_shape'"),
    ("table", "misspelt entry field", _set(_entry(0, "tre_shape"), "chain"),
     "entries[0] has unknown key(s) 'tre_shape'"),
    # ... and coerced values
    ("point", "4.7 elements", _set(("elements",), 4.7),
     "elements must be an int, got 4.7"),
    ("point", "true iterations", _set(("iterations",), True),
     "iterations must be an int, got True"),
    ("job", "null build", _set(("build",), None),
     "build must be a string, got None"),
    ("point", "a number for a name",
     _set(("config", "net", "topology"), 7),
     "config.net.topology must be a string, got 7"),
    ("cluster", "4.7 hosts", _set(("hosts",), 4.7),
     "hosts must be an int, got 4.7"),
    ("table", "a numeral string", _set(_entry(1, "nranks"), "8"),
     "entries[1].nranks must be an int, got '8'"),
    ("trace", "a numeral string among the delays",
     _set(("delays", 0, 1), "12.25"),
     "delays must be a list of lists of numbers, got [[0.5, '12.25'], "),
    # escaped at 6ceee86 as KeyError / TypeError / AttributeError / ValueError
    ("point", "no kind", _drop(("kind",)), "point has no 'kind'"),
    ("point", "no config", _drop(("config",)), "point has no 'config'"),
    ("point", "no factory", _drop(("config", "factory")),
     "config has no 'factory'"),
    ("point", "config is a list", _set(("config",), []),
     "config must be an object, got []"),
    ("point", "a block is a word", _set(("config", "mpi"), "knomial"),
     "config.mpi must be an object or null, got 'knomial'"),
    ("point", "an unknown block field",
     _set(("config", "mpi", "tree_shap"), "chain"),
     "config.mpi has unknown key(s) 'tree_shap'"),
    ("point", "a size in words", _set(("config", "size"), "eight"),
     "config.size must be an int, got 'eight'"),
    ("point", "links as a string",
     _set(("config", "faults", "degrade_links"), "1,2"),
     "config.faults.degrade_links must be a list of ints, got '1,2'"),
    ("point", "a flag as an int", _set(("collect_invariants",), 1),
     "collect_invariants must be a bool, got 1"),
    ("point", "options is a list", _set(("options",), []),
     "options must be an object, got []"),
    ("point", "a segment size of 1.5",
     _set(("config", "pipeline", "segment_size_bytes"), 1.5),
     "config.pipeline.segment_size_bytes must be an int or a string, "
     "got 1.5"),
    ("point", "the root is a list", lambda d: [d],
     "a point must be a JSON object, got ["),
    ("job", "no name", _drop(("name",)), "job has no 'name'"),
    ("job", "a skew in words", _set(("max_skew_us",), "fast"),
     "max_skew_us must be a number, got 'fast'"),
    ("job", "the root is null", lambda d: None,
     "a job must be a JSON object, got None"),
    ("cluster", "a bool radix", _set(("tree_radix",), True),
     "tree_radix must be an int, got True"),
    ("table", "entries is an int", _set(("entries",), 7),
     "entries must be a list of objects, got 7"),
    ("table", "no topology", _drop(_entry(0, "topology")),
     "entries[0] has no 'topology'"),
    ("table", "the schema as a string", _set(("schema",), "1"),
     "unsupported tuning table schema '1' (expected 1)"),
    ("trace", "delays is null", _set(("delays",), None),
     "delays must be a list of lists of numbers, got None"),
    ("trace", "nranks as a string", _set(("nranks",), "2"),
     "nranks must be an int, got '2'"),
    ("schedule", "nseg is a float", _set(("nseg",), 2.0),
     "nseg must be an int, got 2.0"),
    # an exactly shaped step is one intern-table lookup: types before hash
    ("schedule", "a list-valued peer", _set(("ranks", 1, 0, "peer"), [0]),
     "ranks[1][0]: send.peer must be an int, got [0]"),
    # refused at the door since this PR: names and ranges
    ("cluster", "an unknown topology", _set(("topology",), "moebius"),
     "unknown topology 'moebius'; known: ['crossbar', 'fattree', 'torus']"),
    ("cluster", "an unknown tree shape", _set(("tree_shape",), "blob"),
     "unknown tree shape 'blob'; known: ['auto', 'bine', 'binomial', "),
    ("table", "an unknown tree shape", _set(_entry(0, "tree_shape"), "blob"),
     "unknown tree shape 'blob'; known: ['bine', 'binomial', "),
    ("table", "a negative rank count", _set(_entry(0, "nranks"), -4),
     "a tuned entry needs nranks >= 1: TunedEntry(topology='crossbar', "),
    ("table", "an inverted bucket", _set(_entry(0, "min_msg_bytes"), 9000),
     "a tuned entry needs 0 <= min_msg_bytes <= max_msg_bytes: "),
    # accepted until ISSUE 23: a point that measures something else
    ("point", "no measured iteration", _set(("iterations",), 0),
     "point needs iterations >= 1, warmup >= 0 and elements >= 1, got "
     "iterations=0 "),
    ("point", "a negative warmup", _set(("warmup",), -1),
     "point needs iterations >= 1, warmup >= 0 and elements >= 1, got "
     "iterations=3 warmup=-1 "),
    ("point", "an empty message", _set(("elements",), 0),
     "point needs iterations >= 1, warmup >= 0 and elements >= 1, got "
     "iterations=3 warmup=1 elements=0"),
    ("point", "another kind's option", _set(("options", "algo"), "pra"),
     "options has unknown key(s) 'algo' for kind 'schedule'; known: "
     "['lowering', 'passes']"),
    ("point", "a gap in words",
     lambda d: dict(d, kind="fault_reduce", options={"gap_us": "soon"}),
     "options.gap_us must be a number, got 'soon'"),
    ("point", "an unknown kind", _set(("kind",), "cpu_utl"),
     "unknown point kind 'cpu_utl'"),
]


@pytest.mark.parametrize(
    "name,edit,message", [(c[0], c[2], c[3]) for c in MALFORMED],
    ids=[f"{c[0]}: {c[1]}" for c in MALFORMED])
def test_malformed_record_is_one_line_naming_the_place(doors, name, edit,
                                                       message):
    door = doors[name]
    with pytest.raises(door.errors) as err:
        door.decode(edit(copy.deepcopy(door.valid)))
    assert str(err.value).startswith(message), str(err.value)
    assert "\n" not in str(err.value)


def test_every_unknown_key_is_named_in_the_one_line(doors):
    damaged = _set(("config", "nett"), {})(_set(("max_skew",), 1.0)(
        copy.deepcopy(doors["point"].valid)))
    with pytest.raises(RecordError) as err:
        SweepPoint.from_dict(damaged)
    assert str(err.value) == ("point has unknown key(s) 'max_skew'; "
                              "config has unknown key(s) 'nett'")


@pytest.mark.parametrize("block,message", [
    ({"net": NetParams(topology="moebius")}, "unknown topology 'moebius'"),
    ({"mpi": MpiParams(tree_shape="blob")}, "unknown tree shape 'blob'"),
], ids=["topology", "tree shape"])
def test_config_spec_build_refuses_unknown_names(block, message):
    with pytest.raises(RecordError, match=message):
        ConfigSpec("quiet", 4, 1, **block).build()


def test_a_damaged_tuned_table_file_names_the_file(tmp_path):
    path = tmp_path / "tuned.json"
    path.write_text('{"schema": 1, "entries": [{"topology": "torus"}]}')
    with pytest.raises(RecordError) as err:
        TuningTable.load(path)
    assert str(err.value) == f"{path}: entries[0] has no 'nranks'"


# ---------------------------------------------------------------------------
# the cache record: anything wrong is a miss the next put overwrites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body", [
    "{}", "null", "[1, 2]",
    json.dumps({"metrics": 3, "wall_time_s": 0.1, "counters": {}}),
], ids=["empty object", "null", "a list", "metrics is an int"])
def test_wrong_shaped_cache_record_is_a_miss(tmp_path, body):
    cache = ResultCache(str(tmp_path))
    with open(cache._path(point_cache_key(POINT)), "w") as fh:
        fh.write(body)
    assert cache.get(POINT) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put(RESULT)
    served = cache.get(POINT)
    assert served.metrics == RESULT.metrics and served.point is POINT
    assert (cache.hits, cache.misses) == (1, 1)


# ---------------------------------------------------------------------------
# the BENCH file, and the two command lines
# ---------------------------------------------------------------------------

def _two_keyless_twins(payload):
    for record in payload["points"]:
        del record["key"]["skew_us"]
    payload["points"].append(copy.deepcopy(payload["points"][0]))
    return payload


CORRUPT_BENCH = [
    ("points is an int", _set(("points",), 7),
     "points must be a list, got 7"),
    ("a record without key", _drop(("points", 0, "key")),
     "points[0].key must be an object, got None"),
    ("a metric in words", _set(("points", 0, "metrics", "avg_latency_us"),
                               "fast"),
     "points[0].metrics.avg_latency_us must be a number, got 'fast'"),
    ("twins without skew_us", _two_keyless_twins,
     "duplicate BENCH key: points #0 and #1 are both doors/schedule n=8 "
     "skew=None ab"),
    ("cut short", lambda payload: json.dumps(payload)[:120],
     "BENCH json is not valid JSON: "),
]


def _corrupt_bench(tmp_path, doors, edit) -> str:
    path = tmp_path / "BENCH_corrupt.json"
    damaged = edit(copy.deepcopy(doors["bench"].valid))
    path.write_text(damaged if isinstance(damaged, str)
                    else json.dumps(damaged))
    return str(path)


def _one_error_line(capsys) -> str:
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.err
    assert "Traceback" not in out.err + out.out
    return lines[0]


@pytest.mark.parametrize("edit,message", [c[1:] for c in CORRUPT_BENCH],
                         ids=[c[0] for c in CORRUPT_BENCH])
def test_corrupt_bench_file_is_one_line(tmp_path, doors, capsys, edit,
                                        message):
    path = _corrupt_bench(tmp_path, doors, edit)
    with pytest.raises(RecordError) as err:
        load_bench_json(path)
    assert str(err.value).startswith(f"{path}: {message}")
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps(doors["bench"].valid))
    assert compare_cli.main([str(good), path]) == 2
    assert _one_error_line(capsys).startswith(f"error: new ({path}): ")
    assert orchestrate_cli.main(["summarize", path]) == 2
    _one_error_line(capsys)


def test_compare_reports_both_corrupt_files(tmp_path, doors, capsys):
    old = _corrupt_bench(tmp_path, doors, CORRUPT_BENCH[0][1])
    (tmp_path / "new").mkdir()
    new = _corrupt_bench(tmp_path / "new", doors, CORRUPT_BENCH[2][1])
    assert compare_cli.main([old, new]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" (")[0] for line in lines] == ["error: old",
                                                       "error: new"]


RUN_POINT = {"experiment": "t", "kind": "cpu_util", "build": "ab",
             "elements": 4, "iterations": 2,
             "config": {"factory": "paper", "size": 2, "seed": 1}}


@pytest.mark.parametrize("edit,named", [
    (lambda d: _set(("max_skew",), 1000.0)(
        _set(("config", "nett"), {"topology": "torus"})(d)),
     ("'nett'", "'max_skew'")),
    (_set(("config", "net"), {"topology": "moebius"}),
     ("unknown topology 'moebius'",)),
    (_set(("config", "mpi"), {"tree_shape": "blob"}),
     ("unknown tree shape 'blob'",)),
    (_set(("kind",), "cpu_utl"), ("unknown point kind 'cpu_utl'",)),
    (_set(("build",), "abb"), ("unknown build tag 'abb'",)),
    (_set(("config", "noise"), {"spike_prob": 7}),
     ("spike_prob out of range",)),
    (lambda d: json.dumps(d)[:60], ("point is not valid JSON",)),
    # the probes of ISSUE 23: each simulated or tracebacked at 3ce697d
    (_set(("warmup",), -1), ("warmup=-1",)),
    (_set(("elements",), 0), ("elements=0",)),
    (lambda d: dict(d, kind="latency", iterations=0), ("iterations=0",)),
    (lambda d: _set(("config", "size"), 1)(dict(d, kind="latency")),
     ("latency benchmark needs at least two nodes",)),
    (lambda d: dict(d, kind="schedule", options={"passes": ["nope"]}),
     ("unknown pass 'nope'",)),
    (lambda d: dict(d, kind="fault_reduce", options={"gap_us": "soon"}),
     ("options.gap_us must be a number, got 'soon'",)),
    (_set(("options",), {"lowering": "reduce.ab"}),
     ("options has unknown key(s) 'lowering' for kind 'cpu_util'",)),
    # Literals json.loads accepts: a NaN switch latency used to run to the
    # end with NaN results, a NaN skew to die inside a rank.
    (lambda d: _set(("config",), {
        "factory": "paper", "size": 4, "seed": 1,
        "net": {"topology": "fattree", "fattree_hosts_per_switch": 2,
                "switch_latency_us": math.nan}})(
            dict(d, kind="latency", build="nab", iterations=3)),
     ("point is not valid JSON: NaN is not a JSON number",)),
    (_set(("max_skew_us",), math.nan),
     ("point is not valid JSON: NaN is not a JSON number",)),
    (_set(("max_skew_us",), -math.inf),
     ("point is not valid JSON: -Infinity is not a JSON number",)),
], ids=["misspelt keys", "unknown topology", "unknown tree shape",
        "unknown kind", "unknown build", "out of range", "cut short",
        "negative warmup", "no elements", "no iterations", "one node",
        "unknown pass", "gap in words", "another kind's option",
        "NaN latency", "NaN skew", "-Infinity skew"])
def test_run_point_refuses_in_one_line(capsys, edit, named):
    spec = edit(copy.deepcopy(RUN_POINT))
    spec = spec if isinstance(spec, str) else json.dumps(spec)
    assert orchestrate_cli.main(["run-point", spec]) == 2
    line = _one_error_line(capsys)
    assert line.startswith("error: bad point spec: ")
    for text in named:
        assert text in line


def test_run_point_still_runs_a_good_point(capsys):
    assert orchestrate_cli.main(["run-point", json.dumps(RUN_POINT)]) == 0
    assert json.loads(capsys.readouterr().out)["key"]["variant"] == "paper"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_refused(doors, literal):
    """``json.loads`` takes these non-standard literals; the codec names
    them instead, so a cache record holding one is a miss.  Only a BENCH
    file, whose metrics may be NaN, reads them."""
    with pytest.raises(RecordError) as err:
        loads('{"x": [1, %s]}' % literal, "the record")
    assert str(err.value) == (f"the record is not valid JSON: {literal} "
                              "is not a JSON number")
    text = json.dumps(doors["cache record"].valid)
    assert '"wall_time_s": 0.25' in text
    with pytest.raises(_Refused):
        doors["cache record"].decode(
            text.replace('"wall_time_s": 0.25', f'"wall_time_s": {literal}'))
