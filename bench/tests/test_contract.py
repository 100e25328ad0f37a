"""BENCHMARK.json says what the harness prints."""

import json

from conftest import ROOT

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS


def test_benchmark_json_repeats_the_harness_tables():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["paths"] == ["bench"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == list(PER_LAYER)


def test_names_and_bounds_are_within_the_contract():
    names = [name for name, *__ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    bounds = {name: bound for name, __, ___, bound in END_TO_END}
    # The issue's bounds: 10 %, and 1 % for the bytes written.  Only
    # set-up time, timed once per run, gets the contract's ceiling.
    assert bounds.pop("setup_s") == 0.25
    assert bounds.pop("disk_bytes_per_user_byte") == 0.01
    assert set(bounds.values()) == {0.10}
