"""Smoke test of the benchmark itself.

Run it explicitly -- ``python -m pytest perfbench/tests/test_smoke.py`` --
from the repository root; ``testpaths`` keeps it out of the tier-1 suite.
It runs every workload at 2% scale through the real ``BENCHMARK.json``
command, both passes, and checks the contract: one JSON object on the
last line, every declared metric exactly once with a finite value, no
failed op, and a falsified oracle answer reported as a failed op.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, *extra: str):
    command = [*MANIFEST["command"], "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace),
               "--scale", "0.02", *extra]
    finished = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
    lines = finished.stdout.strip().splitlines()
    assert lines, finished.stderr
    return finished.returncode, json.loads(lines[-1]), lines[:-1]


def test_manifest_matches_the_catalogue():
    assert MANIFEST["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))


def test_every_workload_reports_every_metric_and_no_failed_op():
    started = time.perf_counter()
    for workload in WORKLOADS:
        for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
            code, result, printed = run_benchmark(workload, trace)
            assert code == 0, (workload, trace, result)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m.name for m in declared]
            for metric in declared:
                reported = result["metrics"][metric.name]
                assert reported["unit"] == metric.unit
                assert math.isfinite(reported["value"]), metric.name
                # ... and by name, with its unit, in the lines for people.
                assert sum(line.split()[:1] == [metric.name]
                           for line in printed) == 1, metric.name
            assert any("failed_ops_pct=0.000" in line for line in printed)
    assert time.perf_counter() - started < 30.0


@pytest.mark.parametrize("workload", ["small_query", "serve_mixed"])
def test_a_wrong_expected_digest_is_a_failed_op(workload):
    code, result, printed = run_benchmark(workload, 0, "--corrupt-oracle")
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.strip().startswith("FAILED") for line in printed)


def test_nothing_to_measure_is_an_error_not_a_result(tmp_path):
    """With only BENCHMARK.json and perfbench/, there is no engine."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    finished = subprocess.run(
        [*MANIFEST["command"], "--workload", "small_query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert finished.returncode not in (0, 1)
    assert finished.stdout.strip() == ""
    assert "no engine to measure" in finished.stderr
