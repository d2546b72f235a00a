"""Each workload end to end at a tiny size, as the benchmark command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py")] + [str(a) for a in args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def run_tiny(workload, trace, results):
    proc = bench(["--workload", workload, "--seed", 3, "--seconds", 0.5,
                  "--trace", trace, "--scale", "tiny", "--results", results])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for name, m in last["metrics"].items():
        assert m["unit"]
        assert isinstance(m["value"], float)
    return last, json.load(open(os.path.join(
        results, f"{workload}-seed3-trace{trace}.json")))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload, tmp_path):
    last, full = run_tiny(workload, 0, tmp_path)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert full["error_rate"] == 0.0
    assert len(full["digest"]) == 64
    assert full["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not [p for p in os.listdir(tmp_path) if p.startswith("work-")]


def test_traced_runs_cover_every_per_layer_metric(tmp_path):
    produced = set()
    for workload in WORKLOADS:
        last, full = run_tiny(workload, 1, tmp_path)
        produced |= set(full["all_metrics"])
        m = full["all_metrics"]
        assert m["trace.unattributed.s"] >= 0      # self time within wall time
        assert os.path.getsize(tmp_path / f"{workload}-seed3.spans.jsonl") > 0
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_same_seed_same_outputs(tmp_path):
    a = run_tiny("gbt", 0, tmp_path / "a")[1]
    b = run_tiny("gbt", 0, tmp_path / "b")[1]
    assert a["digest"] == b["digest"]
    assert a["test_mape_pct"] == b["test_mape_pct"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(["--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1,
                  "--trace", 0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
