"""Micro-benchmarks of the GMDJ evaluator's internal regimes.

Not a paper figure — these pin down the performance characteristics the
figures rely on, at the operator level:

* hash-partitioned vs scan-partitioned θ blocks;
* the invariant-block optimization (uncorrelated θ computed once);
* partitioned (parallel-style) evaluation vs single scan;
* coalescing width: k blocks in one GMDJ vs k stacked GMDJs;
* row interpreter vs columnar batch (vectorized) kernel vs the numpy
  whole-array backend, with the machine-readable baseline written to
  ``BENCH_gmdj.json``;
* the 1M-row tier: numpy backend vs row interpreter at scale, plus
  CSV parsing vs memory-mapped binary (.cols) load times.
"""

from __future__ import annotations

import time

import pytest

from conftest import write_json, write_report
from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import TRUE, col, lit
from repro.algebra.operators import ScanTable
from repro.gmdj import (
    evaluate_gmdj_partitioned,
    evaluate_plan_vectorized,
    md,
)
from repro.storage import Catalog, DataType, Relation, collect
from repro.storage.npcolumns import HAVE_NUMPY
from repro.data.rng import make_rng

BASE_ROWS = 300
DETAIL_ROWS = 15000
_catalog = None


def _setup() -> Catalog:
    global _catalog
    if _catalog is None:
        rng = make_rng(99, "micro")
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(i, rng.randint(0, 1000)) for i in range(BASE_ROWS)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(rng.randrange(BASE_ROWS), rng.randint(0, 1000))
             for _ in range(DETAIL_ROWS)],
        ))
        _catalog = catalog
    return _catalog


def hash_plan():
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              [[count_star("cnt"), agg("sum", col("r.V"), "s")]],
              [col("b.K") == col("r.K")])


def scan_plan():
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              [[count_star("cnt")]], [col("b.X") < col("r.V")])


def invariant_plan():
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              [[count_star("cnt")]], [col("r.V") > lit(500)])


def test_hash_partitioned_block(benchmark):
    catalog = _setup()
    result = benchmark.pedantic(
        lambda: hash_plan().evaluate(catalog), rounds=1, iterations=1
    )
    assert len(result) == BASE_ROWS


def test_scan_partitioned_block(benchmark):
    catalog = _setup()
    # Scan partitioning is the Figure 4 regime: O(|B| x |R|) residual
    # evaluations.  Keep it small enough for a micro-bench.
    small = Catalog()
    small.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        catalog.table("B").rows[:100],
    ))
    small.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        catalog.table("R").rows[:5000],
    ))
    result = benchmark.pedantic(
        lambda: scan_plan().evaluate(small), rounds=1, iterations=1
    )
    assert len(result) == 100


def test_invariant_block_shared(benchmark):
    catalog = _setup()
    result = benchmark.pedantic(
        lambda: invariant_plan().evaluate(catalog), rounds=1, iterations=1
    )
    assert len(result) == BASE_ROWS
    with collect() as stats:
        invariant_plan().evaluate(catalog)
    # Shared state: one aggregate update per qualifying detail tuple,
    # not per (base, detail) pair.
    assert stats.aggregate_updates < DETAIL_ROWS + 1


@pytest.mark.parametrize("partitions", [1, 4])
def test_partitioned_evaluation(benchmark, partitions):
    catalog = _setup()
    result = benchmark.pedantic(
        lambda: evaluate_gmdj_partitioned(hash_plan(), catalog, partitions),
        rounds=1, iterations=1,
    )
    assert len(result) == BASE_ROWS


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_coalescing_width(benchmark, width):
    """k θ-blocks in one GMDJ: the scan cost must stay ~flat in k."""
    catalog = _setup()
    blocks = [[count_star(f"c{i}")] for i in range(width)]
    conditions = [
        (col("b.K") == col("r.K")) & (col("r.V") > lit(i * 100))
        for i in range(width)
    ]
    plan = md(ScanTable("B", "b"), ScanTable("R", "r"), blocks, conditions)
    result = benchmark.pedantic(
        lambda: plan.evaluate(catalog), rounds=1, iterations=1
    )
    assert len(result) == BASE_ROWS


VEC_BASE_ROWS = 200
VEC_DETAIL_ROWS = 100_000
_vec_catalog = None


def _vec_setup() -> Catalog:
    global _vec_catalog
    if _vec_catalog is None:
        rng = make_rng(7, "vectorized")
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(i, rng.randint(0, 1000)) for i in range(VEC_BASE_ROWS)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(rng.randrange(VEC_BASE_ROWS), rng.randint(0, 1000))
             for _ in range(VEC_DETAIL_ROWS)],
        ))
        _vec_catalog = catalog
    return _vec_catalog


def vec_plans():
    """Plan shapes for the row-vs-batch comparison.

    ``hash_residual`` is the headline workload: a hash-partitioned block
    whose residual predicate and three aggregates dominate per-tuple
    interpreter dispatch — the regime the batch kernel targets.
    """
    return {
        "hash_residual": md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c"), agg("sum", col("r.V"), "s"),
              agg("avg", col("r.V"), "a")]],
            [(col("b.K") == col("r.K")) & (col("r.V") > lit(100))
             & (col("r.V") < lit(900))],
        ),
        "invariant": md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c"), agg("sum", col("r.V"), "s")]],
            [col("r.V") > lit(500)],
        ),
        "coalesced_2blocks": md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c1")], [agg("sum", col("r.V"), "s2")]],
            [col("b.K") == col("r.K"),
             (col("b.K") == col("r.K")) & (col("r.V") > lit(250))],
        ),
    }


def _timed(fn, repeats=3):
    """Best-of-N wall time with the result of the last run."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _certificate_status(plan, catalog, runner) -> str:
    """Run ``runner`` under tracing and cross-check the cost certificate."""
    from repro.lint import certify_plan
    from repro.obs.invariants import check_trace
    from repro.obs.tracer import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        runner()
    report = check_trace(tracer.trace(), certificate=certify_plan(plan))
    return "pass" if not report.violations else "FAIL"


def test_vectorized_vs_row_kernel(benchmark):
    """Acceptance gate: batch kernel ≥ 2x rows/sec on 100k detail rows.

    Both modes must also agree on the IOStats page/tuple accounting
    (the batch kernel is a physical rewrite, not a cost change) and
    pass the static cost-certificate cross-check.
    """
    catalog = _vec_setup()
    plan = vec_plans()["hash_residual"]

    def run():
        with collect() as row_stats:
            row_wall, row_result = _timed(lambda: plan.evaluate(catalog))
        with collect() as vec_stats:
            vec_wall, vec_result = _timed(
                lambda: evaluate_plan_vectorized(
                    plan, catalog, backend="python")
            )
        return row_wall, vec_wall, row_stats, vec_stats, row_result, vec_result

    row_wall, vec_wall, row_stats, vec_stats, row_result, vec_result = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    assert vec_result.rows == row_result.rows
    assert vec_stats.snapshot() == row_stats.snapshot()
    assert _certificate_status(
        plan, catalog, lambda: plan.evaluate(catalog)) == "pass"
    assert _certificate_status(
        plan, catalog,
        lambda: evaluate_plan_vectorized(
            plan, catalog, backend="python")) == "pass"
    speedup = row_wall / vec_wall
    assert speedup >= 2.0, (
        f"vectorized kernel only {speedup:.2f}x over the row interpreter "
        f"(row {row_wall:.3f}s vs batch {vec_wall:.3f}s on "
        f"{VEC_DETAIL_ROWS} detail rows)"
    )


def test_vectorized_report(benchmark):
    """Row vs batch kernel vs numpy backend + committed BENCH_gmdj.json.

    The batch-kernel column runs the python backend; with the numpy
    extra installed a third column runs the whole-array backend of the
    same kernel, held to the same rows **and** IOStats identity.
    """
    catalog = _vec_setup()

    def run():
        payload = {
            "base_rows": VEC_BASE_ROWS,
            "detail_rows": VEC_DETAIL_ROWS,
            "headline": "hash_residual",
            "workloads": {},
        }
        header = (
            f"{'workload':<18} {'row s':>8} {'batch s':>8} "
            f"{'row rows/s':>12} {'batch rows/s':>13} {'speedup':>8}"
        )
        if HAVE_NUMPY:
            header += f" {'numpy s':>8} {'np speedup':>10}"
        lines = [
            "== GMDJ row interpreter vs columnar batch kernel ==",
            f"|B|={VEC_BASE_ROWS}  |R|={VEC_DETAIL_ROWS}  (best of 3)",
            header,
        ]
        for name, plan in vec_plans().items():
            with collect() as row_stats:
                row_wall, row_result = _timed(lambda: plan.evaluate(catalog))
            with collect() as vec_stats:
                vec_wall, vec_result = _timed(
                    lambda: evaluate_plan_vectorized(
                        plan, catalog, backend="python")
                )
            identical = (
                vec_result.rows == row_result.rows
                and vec_stats.snapshot() == row_stats.snapshot()
            )
            row_rate = VEC_DETAIL_ROWS / row_wall
            vec_rate = VEC_DETAIL_ROWS / vec_wall
            payload["workloads"][name] = {
                "modes": {
                    "row": {
                        "wall_seconds": round(row_wall, 6),
                        "rows_per_sec": round(row_rate, 1),
                    },
                    "gmdj_vectorized": {
                        "wall_seconds": round(vec_wall, 6),
                        "rows_per_sec": round(vec_rate, 1),
                    },
                },
                "speedup": round(row_wall / vec_wall, 2),
                "identical_iostats": identical,
                "certificate": {
                    "row": _certificate_status(
                        plan, catalog, lambda: plan.evaluate(catalog)),
                    "gmdj_vectorized": _certificate_status(
                        plan, catalog,
                        lambda: evaluate_plan_vectorized(
                            plan, catalog, backend="python")),
                },
            }
            line = (
                f"{name:<18} {row_wall:>8.3f} {vec_wall:>8.3f} "
                f"{row_rate:>12.0f} {vec_rate:>13.0f} "
                f"{row_wall / vec_wall:>7.2f}x"
            )
            if HAVE_NUMPY:
                with collect() as np_stats:
                    np_wall, np_result = _timed(
                        lambda: evaluate_plan_vectorized(
                            plan, catalog, backend="numpy")
                    )
                entry = payload["workloads"][name]
                entry["modes"]["numpy"] = {
                    "wall_seconds": round(np_wall, 6),
                    "rows_per_sec": round(VEC_DETAIL_ROWS / np_wall, 1),
                }
                entry["numpy_speedup"] = round(row_wall / np_wall, 2)
                entry["identical_iostats"] = (
                    identical
                    and np_result.rows == row_result.rows
                    and np_stats.snapshot() == row_stats.snapshot()
                )
                entry["certificate"]["numpy"] = _certificate_status(
                    plan, catalog,
                    lambda: evaluate_plan_vectorized(
                        plan, catalog, backend="numpy"))
                line += f" {np_wall:>8.3f} {row_wall / np_wall:>9.2f}x"
            lines.append(line)
        return payload, "\n".join(lines)

    payload, text = benchmark.pedantic(run, rounds=1, iterations=1)
    print(text)
    write_report("vectorized_gmdj", text)
    write_json("BENCH_gmdj", payload)
    headline = payload["workloads"][payload["headline"]]
    assert headline["identical_iostats"]
    for mode, status in headline["certificate"].items():
        assert status == "pass", mode


M_BASE_ROWS = 300
M_DETAIL_ROWS = 1_000_000


def _1m_catalog() -> Catalog:
    rng = make_rng(31, "numpy-1m")
    catalog = Catalog()
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(i, rng.randint(0, 1000)) for i in range(M_BASE_ROWS)],
    ))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(rng.randrange(M_BASE_ROWS), rng.randint(0, 1000))
         for _ in range(M_DETAIL_ROWS)],
    ))
    return catalog


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the numpy extra")
def test_numpy_backend_1m_rows(benchmark, tmp_path):
    """The 1M-row tier: numpy backend >= 10x over the row interpreter.

    The detail is served from the binary columnar directory — the
    deployment path for details this size — so ``load_binary`` has
    pre-seeded the encoding cache and the whole-array scan reads the
    memory-mapped NPY buffers directly (no per-query transpose, just
    as a second query over a warm relation would).  Also times loading
    the 1M-row detail from CSV (parse every field) vs from the binary
    directory (mmap + row materialization); all figures land in
    ``BENCH_gmdj.json`` under ``tier_1m``.
    """
    import json

    from conftest import RESULTS_DIR
    from repro.storage import load_binary, save_binary, save_catalog
    from repro.storage.csvio import load_csv

    catalog = _1m_catalog()
    plan = md(
        ScanTable("B", "b"), ScanTable("R", "r"),
        [[count_star("c"), agg("sum", col("r.V"), "s"),
          agg("avg", col("r.V"), "a")]],
        [(col("b.K") == col("r.K")) & (col("r.V") > lit(100))
         & (col("r.V") < lit(900))],
    )

    def run():
        save_catalog(catalog, tmp_path)
        save_binary(catalog.table("R"), tmp_path / "R")
        csv_load, from_csv = _timed(
            lambda: load_csv(tmp_path / "R.csv"), repeats=2)
        mmap_load, loaded = _timed(
            lambda: load_binary(tmp_path / "R.cols"), repeats=2)
        assert len(from_csv) == len(loaded) == M_DETAIL_ROWS

        served = Catalog()
        served.create_table("B", catalog.table("B"))
        served.create_table("R", loaded)
        with collect() as row_stats:
            row_wall, row_result = _timed(
                lambda: plan.evaluate(served), repeats=2)
        with collect() as np_stats:
            np_wall, np_result = _timed(
                lambda: evaluate_plan_vectorized(
                    plan, served, backend="numpy"), repeats=2)
        assert np_result.rows == row_result.rows
        assert np_stats.snapshot() == row_stats.snapshot()
        return row_wall, np_wall, csv_load, mmap_load

    row_wall, np_wall, csv_load, mmap_load = benchmark.pedantic(
        run, rounds=1, iterations=1)
    speedup = row_wall / np_wall
    tier = {
        "base_rows": M_BASE_ROWS,
        "detail_rows": M_DETAIL_ROWS,
        "workload": "hash_residual",
        "modes": {
            "row": {
                "wall_seconds": round(row_wall, 6),
                "rows_per_sec": round(M_DETAIL_ROWS / row_wall, 1),
            },
            "numpy": {
                "wall_seconds": round(np_wall, 6),
                "rows_per_sec": round(M_DETAIL_ROWS / np_wall, 1),
            },
        },
        "numpy_speedup": round(speedup, 2),
        "load_seconds": {
            "csv": round(csv_load, 6),
            "binary_mmap": round(mmap_load, 6),
            "speedup": round(csv_load / mmap_load, 1),
        },
    }
    print(f"1M-row tier: row {row_wall:.3f}s vs numpy {np_wall:.3f}s "
          f"({speedup:.1f}x); load csv {csv_load:.3f}s vs "
          f"mmap {mmap_load:.3f}s ({csv_load / mmap_load:.0f}x)")

    # Graft the tier into the committed baseline next to the 100k table.
    path = RESULTS_DIR / "BENCH_gmdj.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["tier_1m"] = tier
    write_json("BENCH_gmdj", payload)
    assert speedup >= 10.0, (
        f"numpy backend only {speedup:.2f}x over the row interpreter "
        f"(row {row_wall:.3f}s vs numpy {np_wall:.3f}s on "
        f"{M_DETAIL_ROWS} detail rows)"
    )


def test_microbench_report(benchmark):
    catalog = _setup()

    def run():
        lines = ["== GMDJ micro-benchmarks: scans and updates =="]
        with collect() as stats:
            hash_plan().evaluate(catalog)
        lines.append(f"hash block:      scans={stats.relation_scans} "
                     f"updates={stats.aggregate_updates}")
        with collect() as stats:
            invariant_plan().evaluate(catalog)
        lines.append(f"invariant block: scans={stats.relation_scans} "
                     f"updates={stats.aggregate_updates} (shared)")
        with collect() as stats:
            evaluate_gmdj_partitioned(hash_plan(), catalog, 4)
        lines.append(f"partitioned x4:  tuples={stats.tuples_scanned} "
                     f"(equals single-scan volume)")
        return "\n".join(lines)

    text = benchmark.pedantic(run, rounds=1, iterations=1)
    print(text)
    write_report("microbench_gmdj", text)
