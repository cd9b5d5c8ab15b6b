"""Smoke test for the benchmark itself.

Runs every workload at a few percent of full size (``paper-figures`` at
its fixed preset grid), untraced and traced, and checks that each metric
BENCHMARK.json names is emitted with its unit, that the output checks
ran and passed, and that the benchmark refuses to report anything when
the program's sources are missing.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCALE = "0.05"

sys.path.insert(0, HERE)
from workloads import WORKLOADS as _WORKLOAD_CLASSES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
#: Every workload the benchmark implements (``--workload all`` runs them).
WORKLOADS = list(_WORKLOAD_CLASSES)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module", params=["0", "1"], ids=["untraced", "traced"])
def all_workloads(request):
    proc = _run(
        "--workload", "all", "--seed", "3", "--seconds", "0",
        "--trace", request.param, "--scale", SCALE,
        "--out-dir", os.path.join(ROOT, ".perfbench_out", "smoke"),
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return request.param, proc, json.loads(lines[-1])


def test_every_metric_is_emitted_with_its_unit(all_workloads):
    trace, _, result = all_workloads
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    expected = {
        f"{workload}.{metric['name']}": metric["unit"]
        for workload in WORKLOADS
        for metric in section
    }
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def test_output_checks_run_and_pass(all_workloads):
    _, proc, result = all_workloads
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"], proc.stdout[-2000:]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    for workload in WORKLOADS:
        assert f"== {workload} " in proc.stdout
    # Every workload reports how many of its output checks passed.
    checks = [line for line in proc.stdout.splitlines() if "output checks" in line]
    assert len(checks) == len(WORKLOADS)
    assert all(int(line.split()[-2].split("/")[1]) > 0 for line in checks)


def test_end_to_end_metrics_are_never_zero(all_workloads):
    trace, _, result = all_workloads
    if trace == "1":
        pytest.skip("per-layer metrics may be 0 where a layer is not exercised")
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_refuses_without_program_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_workloads_are_implemented():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_notes_cover_every_per_layer_metric():
    with open(os.path.join(HERE, "notes.json")) as handle:
        notes = json.load(handle)
    mapped = {m for layer in notes["layers"] for m in layer["metrics"]}
    assert mapped == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(notes["workloads"]) == set(WORKLOADS)
