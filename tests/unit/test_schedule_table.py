"""Unit tests for the persisted tuning table and the "auto" knobs.

Covers the table file format (schema gate, round trip, missing file),
deterministic lookup (first-match bucket order, exact topology/nranks),
the ``REPRO_TUNED_TABLE`` env override, and the runtime resolution paths
behind ``tree_shape="auto"`` / ``segment_size_bytes="auto"`` — including
the load-bearing guarantee that *non-auto* configs resolve to the
identical static objects (so tuned tables can never perturb existing
baselines).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import ConfigError, MpiParams, PipelineParams, paper_cluster
from repro.schedule.table import (TABLE_ENV, TunedEntry, TuningTable,
                                  clear_table_cache, config_tree_shape,
                                  default_table_path, resolve_pipeline_params,
                                  resolve_tree_shape)


@pytest.fixture
def tuned(tmp_path, monkeypatch):
    """A two-bucket crossbar table installed via the env override."""
    table = TuningTable(entries=[
        TunedEntry(topology="crossbar", nranks=8,
                   min_msg_bytes=0, max_msg_bytes=4095,
                   tree_shape="knomial", tree_radix=4),
        TunedEntry(topology="crossbar", nranks=8,
                   min_msg_bytes=4096, max_msg_bytes=1 << 62,
                   tree_shape="chain", tree_radix=2,
                   segment_size_bytes=2048, max_inflight_segments=3),
    ])
    path = tmp_path / "table.json"
    table.dump(path)
    monkeypatch.setenv(TABLE_ENV, str(path))
    clear_table_cache()
    yield table
    clear_table_cache()


def auto_config(size=8):
    config = paper_cluster(size, seed=1)
    config = dataclasses.replace(config, mpi=dataclasses.replace(
        config.mpi, tree_shape="auto"))
    return dataclasses.replace(config, pipeline=dataclasses.replace(
        config.pipeline, segment_size_bytes="auto"))


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def test_round_trip(tmp_path, tuned):
    path = tmp_path / "again.json"
    tuned.dump(path)
    again = TuningTable.load(path)
    assert again.entries == tuned.entries
    assert json.loads(path.read_text())["schema"] == 1


def test_missing_file_is_empty_table(tmp_path):
    table = TuningTable.load(tmp_path / "nope.json")
    assert table.entries == []


def test_schema_gate(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"schema": 99, "entries": []}))
    with pytest.raises(ConfigError):
        TuningTable.load(path)


def test_env_override_wins(tmp_path, monkeypatch):
    monkeypatch.setenv(TABLE_ENV, str(tmp_path / "custom.json"))
    assert default_table_path() == tmp_path / "custom.json"


# ----------------------------------------------------------------------
# lookup semantics
# ----------------------------------------------------------------------
def test_lookup_first_match_in_bucket_order(tuned):
    assert tuned.lookup("crossbar", 8, 1024).tree_shape == "knomial"
    assert tuned.lookup("crossbar", 8, 4095).tree_shape == "knomial"
    assert tuned.lookup("crossbar", 8, 4096).tree_shape == "chain"
    assert tuned.lookup("crossbar", 8, 1 << 40).tree_shape == "chain"


def test_lookup_requires_exact_topology_and_nranks(tuned):
    assert tuned.lookup("torus", 8, 1024) is None
    assert tuned.lookup("crossbar", 16, 1024) is None


# ----------------------------------------------------------------------
# runtime resolution ("auto")
# ----------------------------------------------------------------------
def test_resolve_tree_shape_consults_table(tuned):
    config = auto_config()
    assert resolve_tree_shape(config, 1024).name == "knomial(4)"
    assert resolve_tree_shape(config, 8192).name == "chain"


def test_resolve_falls_back_when_no_entry(tuned):
    config = auto_config(size=16)  # table only has nranks=8
    assert resolve_tree_shape(config, 1024).name == "binomial"
    pparams = resolve_pipeline_params(config, 1024)
    assert not pparams.armed


def test_resolve_pipeline_params_consults_table(tuned):
    config = auto_config()
    small = resolve_pipeline_params(config, 1024)
    assert not small.armed
    large = resolve_pipeline_params(config, 8192)
    assert large.segment_size_bytes == 2048
    assert large.max_inflight_segments == 3


def test_missing_table_resolves_to_historical_defaults(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv(TABLE_ENV, str(tmp_path / "absent.json"))
    clear_table_cache()
    config = auto_config()
    assert resolve_tree_shape(config, 8192).name == "binomial"
    assert not resolve_pipeline_params(config, 8192).armed
    clear_table_cache()


def test_config_tree_shape_static_config_ignores_table(tuned):
    """Non-auto configs must resolve identically with or without a table
    installed — tuning can never perturb an untuned run."""
    config = paper_cluster(8, seed=1)  # static binomial
    assert config_tree_shape(config, 8192).name == "binomial"


def test_node_static_config_unchanged_by_table(tuned):
    from repro.runtime.program import build_cluster
    config = paper_cluster(8, seed=1)
    node = build_cluster(config).nodes[0]
    assert node.tree_shape_for(8192) is node.tree_shape
    assert node.pipeline_params_for(8192) is config.pipeline


def test_node_auto_config_resolves_per_message(tuned):
    from repro.runtime.program import build_cluster
    node = build_cluster(auto_config()).nodes[0]
    assert node.tree_shape_for(1024).name == "knomial(4)"
    assert node.tree_shape_for(8192).name == "chain"
    assert node.pipeline_params_for(8192).segment_size_bytes == 2048
    # The static fallback attribute stays the deterministic binomial.
    assert node.tree_shape.name == "binomial"


# ----------------------------------------------------------------------
# "auto" config validation
# ----------------------------------------------------------------------
def test_config_accepts_auto_strings():
    assert MpiParams(tree_shape="auto").tree_shape == "auto"
    PipelineParams(segment_size_bytes="auto").validate()
    assert PipelineParams(segment_size_bytes="auto").armed


def test_config_rejects_other_strings():
    with pytest.raises(ConfigError):
        PipelineParams(segment_size_bytes="big").validate()


def test_segmenter_refuses_unresolved_auto():
    from repro.pipeline.segmenter import plan_segments
    import numpy as np
    with pytest.raises(TypeError):
        plan_segments(PipelineParams(segment_size_bytes="auto"),
                      np.zeros(1024))
