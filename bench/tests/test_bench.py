"""Tests of the benchmark harness itself: python3 -m pytest bench/tests"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
TIMINGS = {"trace.overhead_frac"} | {s["name"] for s in SPEC["per_layer"] if s["name"].endswith(".self_ms")}


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc, proc.stdout.strip().splitlines()


def traced_result(name, seed):
    proc, lines = bench(ROOT, "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(lines[-1])


def test_manifest_is_the_spec_without_the_layer_map():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == {
        **{key: SPEC[key] for key in ("command", "paths", "run_seconds", "workloads", "end_to_end")},
        "per_layer": [{key: s[key] for key in ("name", "unit", "better")} for s in SPEC["per_layer"]],
    }
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(WORKLOADS)
    for layer in SPEC["per_layer"]:
        assert layer["on"] in names | {"all"}
        assert set(layer["barely_on"]) <= names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat_and_a_second_seed_passes(name):
    workload = WORKLOADS[name]
    first, again, other = traced_result(name, 5), traced_result(name, 5), traced_result(name, 6)
    counts = {key: entry["value"] for key, entry in first["metrics"].items() if key not in TIMINGS}
    assert counts == {key: entry["value"] for key, entry in again["metrics"].items() if key not in TIMINGS}
    assert first["correct"] and again["correct"] and other["correct"]
    size = workload.trace_pass_items
    assert list(itertools.islice(workload.items(5), size)) != list(itertools.islice(workload.items(6), size))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench(tmp_path, "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
