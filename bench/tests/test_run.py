"""Minimal-length runs of every workload emit every benchmark metric."""

import json
import shutil
import subprocess
import sys

import pytest

import workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_minimal_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "2024", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        assert result["metrics"]["cli.report_changed"]["value"] == 0


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "ambient-large", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_probes_bracket_the_passes():
    calls = []
    hook = workloads.spaced(lambda: len(calls), seconds=0.0, count=9)
    passes = workloads.run_passes(["a", "b"], 0.0, lambda c: calls.append(c) or {"wall": 0.0},
                                  hook)
    assert len(passes) == 1 and calls == ["a", "b"]
    assert hook.results == [0, 2]  # one probe before the pass, one after it
