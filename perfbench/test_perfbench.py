"""Tests of the benchmark itself, on reduced item sets.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REDUCED = {"count-d4": 6, "wallcross-d4": 4, "pfister-tower": 7}


def worker(workload, seed, trace, *extra):
    args = ["--workload", workload, "--seed", str(seed), "--limit", str(REDUCED[workload])]
    return run.worker(*args, *(["--trace"] if trace else []), *extra)


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_counters_and_digest_repeat_across_runs_and_seeds(workload):
    first, second = worker(workload, 1, True), worker(workload, 2, True)
    assert first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]
    assert first["failures"] == second["failures"]
    assert first["attempted"] == REDUCED[workload]


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_traced_and_untraced_runs_give_the_same_digest(workload):
    assert worker(workload, 3, False)["digest"] == worker(workload, 3, True)["digest"]


def test_unchecked_pass_gives_the_checked_digest():
    checked = worker("pfister-tower", 4, False)
    unchecked = worker("pfister-tower", 4, False, "--no-check")
    assert checked["checked"] and not unchecked["checked"]
    assert checked["digest"] == unchecked["digest"]
    assert all(t > 0 for t in checked["reference_s"] + unchecked["reference_s"])


def test_scale_brings_times_to_the_nominal_host_speed():
    slow = {"reference_s": [1.5 * run.REFERENCE_NOMINAL_S, 2.5 * run.REFERENCE_NOMINAL_S]}
    assert run.scale(slow) == pytest.approx(0.5)


def test_seed_permutes_item_order_only():
    a, b = worker("count-d4", 1, False), worker("count-d4", 2, False)
    assert a["order"] != b["order"] and sorted(a["order"]) == sorted(b["order"])
    assert a["digest"] == b["digest"]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "pass", "item": None, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "stage", "item": None, "parent": 0, "start": 1.0, "end": 7.0},
        {"name": "stage", "item": 1, "parent": 1, "start": 1.0, "end": 3.0},
        {"name": "stage", "item": 2, "parent": 1, "start": 3.0, "end": 6.0},
    ]
    assert [s["self"] for s in run.self_times(spans)] == [4.0, 1.0, 2.0, 3.0]


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-d4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
