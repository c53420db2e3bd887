"""Shared helpers for the benchmark suite.

Every figure module builds its workloads once per parameter point (module
cache), benchmarks each (point, strategy) pair as its own pytest-benchmark
case, and emits a paper-style series table via :func:`write_report` — both
printed and saved under ``benchmark_results/latest/`` (ignored by git)
so the series survives pytest's output capture.  The tables committed
in ``benchmark_results/`` are the record a run is compared with; a run
never rewrites them.

``REPRO_BENCH_SCALE`` (default 1) grows every table: each module passes
its sizes through :func:`scaled`.  The workload builders themselves build
exactly the sizes they are given.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import pytest

RESULTS_DIR = (Path(__file__).resolve().parent.parent
               / "benchmark_results" / "latest")


def _bench_scale() -> float:
    raw = os.environ.get("REPRO_BENCH_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE must be a finite positive number, got {raw!r}")
    return scale


def pytest_configure(config):
    """Refuse a bad ``REPRO_BENCH_SCALE`` before anything is collected."""
    _bench_scale()


def scaled(n: int) -> int:
    """``n`` grown by ``REPRO_BENCH_SCALE``, at least 1."""
    return max(1, int(n * _bench_scale()))


def write_report(name: str, text: str) -> Path:
    """Persist one experiment's series table."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


class WorkloadCache:
    """Build-once cache for (point → Workload) within a module."""

    def __init__(self, builder):
        self._builder = builder
        self._store = {}

    def get(self, *key):
        if key not in self._store:
            self._store[key] = self._builder(*key)
        return self._store[key]


def pytest_sessionfinish(session, exitstatus):
    """Persist the metrics registry the bench runner fed during the run."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    if registry:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        registry.write(RESULTS_DIR / "metrics.json")
