"""Fast self-test of the benchmark: every workload at toy size.

    python3 -m pytest perfbench/test_selftest.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the toy outputs match their reference, that the computed per-layer
counts repeat exactly across two traced runs, and that the benchmark refuses
to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, REPEATS  # noqa: E402
from run import END_TO_END  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    r = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
    return r


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == [row[:3] for row in PER_LAYER])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = result(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0, (m["name"], got)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    first, second = result(workload, 1)["metrics"], result(workload, 1)["metrics"]
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        for metrics in (first, second):
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))
        if m["name"] in REPEATS:
            assert first[m["name"]] == second[m["name"]], m["name"]
    assert first["trainer.steps"]["value"] > 0
    assert first["adapters.oa_delta.calls_frozen"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
