"""BENCHMARK.json has the required shape; the catalogue's extras fit it."""

import json

import stats
from catalog import PER_LAYER, ROOT_LAYERS, SELF_TIME_LAYERS, SPEC, WORKLOADS


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_workloads():
    assert WORKLOADS == ("point", "lattice", "serve")  # worker._workload's
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_keys():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_names_units_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert stats.valid_name(m["name"]), m["name"]
        assert stats.valid_unit(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_self_time_layers_are_catalogued():
    assert set(SELF_TIME_LAYERS) <= set(PER_LAYER)
    assert set(ROOT_LAYERS) <= set(SELF_TIME_LAYERS.values())
