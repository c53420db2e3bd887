"""Batch MQO scan sharing vs sequential execution at paper scale.

Proposition 4.1 coalesces one query's subqueries into a single detail
scan; :mod:`repro.engine.mqo` lifts the same merge across a *batch* of
queries.  This benchmark pins the workload-level claim down at |B|=200,
|R|=100,000 and commits the baseline to ``BENCH_mqo.json``:

* ``dedup_agg`` (headline) — N scalar-aggregate comparison queries over
  the same correlated SUM/COUNT/MIN/MAX block: the shared GMDJ
  deduplicates every consumer's θ-block into one, so N queries cost
  ~one query's detail work plus cheap per-consumer residuals;
* ``multi_block`` — N EXISTS queries with *distinct* θ constants: no
  block dedup, but the N detail scans still collapse into one shared
  pass over R.

Each point runs the same queries sequentially (``execute`` per query)
and as one ``execute_batch``, asserts the results row-identical, and
requires every coalesced group's static single-scan certificate to be
confirmed by the runtime trace.
"""

from __future__ import annotations

import time

from conftest import write_json, write_report
from repro import Database, DataType, QueryOptions
from repro.data.rng import make_rng

BASE_ROWS = 200
DETAIL_ROWS = 100_000
BATCH_SIZES = (1, 4, 16)
HEADLINE = "dedup_agg"
HEADLINE_BATCH = 4

OPTS = QueryOptions(use_cache=False, backend="python")


def _make_db() -> Database:
    rng = make_rng(11, "mqo")
    db = Database()
    db.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(i, rng.randint(0, 1000)) for i in range(BASE_ROWS)],
    )
    db.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(rng.randrange(BASE_ROWS), rng.randint(0, 1000))
         for _ in range(DETAIL_ROWS)],
    )
    return db


def _dedup_agg_sqls(n: int) -> list[str]:
    """N compatible queries whose θ-blocks all merge into one."""
    functions = ("SUM", "COUNT", "MIN", "MAX")
    operators = (">=", "<", ">", "<=")
    sqls = []
    for i in range(n):
        # Cycle operators first so a 4-query batch shares one SUM spec
        # exactly; functions only start varying past 4 members.
        op = operators[i % len(operators)]
        function = functions[(i // len(operators)) % len(functions)]
        sqls.append(
            f"SELECT K FROM B b WHERE b.X {op} "
            f"(SELECT {function}(r.V) FROM R r WHERE r.K = b.K)"
        )
    return sqls


def _multi_block_sqls(n: int) -> list[str]:
    """N compatible queries with distinct θ-blocks (scan sharing only)."""
    return [
        f"SELECT K FROM B b WHERE EXISTS "
        f"(SELECT * FROM R r WHERE r.K = b.K AND r.V > {100 + 50 * i})"
        for i in range(n)
    ]


WORKLOADS = {
    "dedup_agg": _dedup_agg_sqls,
    "multi_block": _multi_block_sqls,
}


def _timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return time.perf_counter() - start, result


def test_mqo_report(benchmark):
    """Shared vs sequential batches + committed BENCH_mqo.json."""

    def run():
        db = _make_db()
        payload = {
            "base_rows": BASE_ROWS,
            "detail_rows": DETAIL_ROWS,
            "headline": HEADLINE,
            "headline_batch": HEADLINE_BATCH,
            "workloads": {},
        }
        lines = [
            "== batch MQO: shared detail scan vs sequential execution ==",
            f"|B|={BASE_ROWS}  |R|={DETAIL_ROWS}  "
            f"(vectorized, cache off)",
            f"{'workload':<12} {'batch':>5} {'seq s':>9} {'shared s':>9} "
            f"{'speedup':>8} {'saved':>5} {'blocks':>12} {'cert':>5}",
        ]
        for name, make_sqls in WORKLOADS.items():
            points = {}
            for size in BATCH_SIZES:
                queries = [db.sql(sql) for sql in make_sqls(size)]
                seq_wall, sequential = _timed(
                    lambda: [db.execute(q, OPTS) for q in queries]
                )
                batch_wall, batch = _timed(
                    lambda: db.execute_batch(queries, OPTS)
                )
                for expected, result in zip(sequential, batch):
                    assert result.rows == expected.rows, (
                        f"{name}[{size}]: batch result diverged"
                    )
                groups = batch.report.groups
                certified = all(g.certified for g in groups)
                blocks = (
                    f"{sum(g.consumer_blocks for g in groups)}->"
                    f"{sum(g.shared_blocks for g in groups)}"
                    if groups else "-"
                )
                certificate = "pass" if (not groups or certified) else "fail"
                speedup = seq_wall / batch_wall
                points[str(size)] = {
                    "sequential_seconds": round(seq_wall, 6),
                    "shared_seconds": round(batch_wall, 6),
                    "speedup": round(speedup, 2),
                    "scans_saved": batch.report.scans_saved,
                    "share_groups": len(groups),
                    "consumer_blocks": sum(
                        g.consumer_blocks for g in groups),
                    "shared_blocks": sum(g.shared_blocks for g in groups),
                    "single_scan_certificate": certificate,
                }
                lines.append(
                    f"{name:<12} {size:>5} {seq_wall:>9.4f} "
                    f"{batch_wall:>9.4f} {speedup:>7.2f}x "
                    f"{batch.report.scans_saved:>5} {blocks:>12} "
                    f"{certificate:>5}"
                )
            payload["workloads"][name] = points
        return payload, "\n".join(lines)

    payload, text = benchmark.pedantic(run, rounds=1, iterations=1)
    print(text)
    write_report("mqo_batch", text)
    write_json("BENCH_mqo", payload)
    for name, points in payload["workloads"].items():
        for size, point in points.items():
            assert point["single_scan_certificate"] == "pass", (
                f"{name}[{size}]"
            )
            if size != "1":
                assert point["scans_saved"] == int(size) - 1, (
                    f"{name}[{size}]: expected full coalescing"
                )
    headline = payload["workloads"][HEADLINE][str(HEADLINE_BATCH)]
    assert headline["speedup"] >= 2.0, (
        f"shared execution only {headline['speedup']}x over sequential "
        f"for a {HEADLINE_BATCH}-query compatible batch at "
        f"{DETAIL_ROWS} detail rows"
    )
