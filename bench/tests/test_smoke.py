"""Smoke test of the benchmark: each workload once, at a one-second run length.

    python3 -m pytest bench/tests -q

A one-second run still makes one full operation (two with ``--trace 1``),
so this takes about 80 s.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int, work: Path) -> subprocess.CompletedProcess:
    # Scratch files go to ``work``, so a benchmark run going on in the same
    # checkout keeps its own.
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
        env={**os.environ, "BENCH_WORK_DIR": str(work)},
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section, tmp_path):
    proc = run_bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in metrics.values())
    elif workload == "big-cluster":
        # Every text instance of the static pool is a routing candidate.
        assert metrics["policies.route_text_candidates_mean"]["value"] == 224
    elif workload == "day-autoscale":
        assert 0 < metrics["policies.route_text_candidates_mean"]["value"] <= 20
        assert metrics["engine.events.scale_tick"]["value"] > 0
    else:
        assert metrics["experiment.probes"]["value"] >= 5


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tmp_path / "work")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
