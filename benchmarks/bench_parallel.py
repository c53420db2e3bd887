"""Multi-core scaling of partitioned GMDJ execution (the Fig. 2 workload).

The Fig. 2 EXISTS workload is scaled up and its translated GMDJ plan is
evaluated sequentially and on worker pools of 1, 2, and 4 workers over a
process pool.  Every parallel result is bag-checked against the
sequential run, the trace-level invariants are enforced strictly
(fragments tile the detail, output ≤ |B|), and a series report lands in
``benchmark_results/parallel_scaling.txt``.

The ≥1.5× speedup assertion at 4 workers only applies where the machine
can physically deliver it — on single-core containers the suite still
verifies correctness, merge exactness, and scan-volume neutrality, and
records the measured ratios for inspection.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import WorkloadCache, write_report
from repro.bench import build_fig2
from repro.gmdj import evaluate_plan, select_fragmenter
from repro.obs.invariants import check_trace
from repro.obs.tracer import Tracer, tracing
from repro.storage import collect
from repro.unnesting import subquery_to_gmdj

WORKER_COUNTS = (1, 2, 4)
PARTITIONS = 4
INNER_SIZE = 24_000


def _build(inner_size):
    workload = build_fig2(inner_size)
    plan = subquery_to_gmdj(workload.query, workload.catalog)
    return workload, plan


_workloads = WorkloadCache(_build)


def _sequential(inner_size):
    workload, plan = _workloads.get(inner_size)
    return plan.evaluate(workload.catalog)


def _parallel(inner_size, workers, executor="process"):
    workload, plan = _workloads.get(inner_size)
    return evaluate_plan(
        plan, workload.catalog,
        fragmenter=select_fragmenter(partitions=PARTITIONS, workers=workers,
                                     executor=executor),
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_matches_sequential(benchmark, workers):
    expected = _sequential(INNER_SIZE)
    result = benchmark.pedantic(
        lambda: _parallel(INNER_SIZE, workers), rounds=1, iterations=1,
    )
    assert expected.bag_equal(result)


def test_parallel_preserves_scan_volume(benchmark):
    def run():
        with collect() as sequential_stats:
            _sequential(INNER_SIZE)
        with collect() as parallel_stats:
            _parallel(INNER_SIZE, 4)
        return sequential_stats, parallel_stats

    sequential_stats, parallel_stats = benchmark.pedantic(
        run, rounds=1, iterations=1,
    )
    assert parallel_stats.tuples_scanned == sequential_stats.tuples_scanned


def test_parallel_invariants_strict(benchmark):
    def run():
        tracer = Tracer()
        with tracing(tracer):
            _parallel(INNER_SIZE, 2, executor="thread")
        return tracer.trace()

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    report = check_trace(trace, strict=True)
    assert report.ok and report.checked >= 2


def test_parallel_scaling_report(benchmark):
    def run():
        timings = {}
        started = time.perf_counter()
        expected = _sequential(INNER_SIZE)
        timings["sequential"] = time.perf_counter() - started
        for workers in WORKER_COUNTS:
            started = time.perf_counter()
            result = _parallel(INNER_SIZE, workers)
            timings[workers] = time.perf_counter() - started
            assert expected.bag_equal(result)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    lines = [
        "Parallel GMDJ scaling — Fig. 2 EXISTS workload "
        f"(inner={INNER_SIZE}, partitions={PARTITIONS}, "
        f"cores={cores})",
        f"{'configuration':>16}  {'time_ms':>10}  {'speedup':>8}",
    ]
    base = timings["sequential"]
    for key in ("sequential", *WORKER_COUNTS):
        label = key if key == "sequential" else f"workers={key}"
        elapsed = timings[key]
        lines.append(
            f"{label:>16}  {elapsed * 1000:>10.1f}  "
            f"{base / elapsed if elapsed else float('inf'):>8.2f}"
        )
    write_report("parallel_scaling", "\n".join(lines))
    if cores >= 2:
        # The acceptance bar: 4 workers at least 1.5x the sequential
        # single-scan run.  Only meaningful with real cores to scale
        # onto; a 1-core container runs the same code GIL/CPU-bound.
        assert base / timings[4] >= 1.5, (
            f"4-worker speedup {base / timings[4]:.2f}x below 1.5x "
            f"on a {cores}-core machine"
        )
