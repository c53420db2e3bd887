"""Differential correctness of the semantic rollup store.

The classic failure mode of semantic caching is the wrong-but-plausible
hit: a stored rollup that *almost* answers the probe, served anyway.
Every test here therefore compares a rollup-served result against
direct evaluation of the same query with the store disabled
(``rollup="off"``), asserting **row- and order-identity**, not just
bag equality: a GMDJ emits one tuple per base tuple in base order, and
a served rollup must reproduce that exactly, NULLs included.

Three serving tiers are exercised, on hand-built GMDJ pairs and on
hypothesis-driven NULL-heavy databases from the fuzzer's generator:

* exact — identical (base, detail, blocks) signature;
* θ-residual subsumption — the probe's θ adds base-only conjuncts to a
  stored θ (blocks whose residual is not TRUE on a base row take the
  aggregates' empty-input values: count → 0, sum/min/max → NULL);
* base-selection subsumption — the probe's base is a Select over the
  stored base (served by filtering cached rows on the base prefix).

Plus the *refusal* cases that keep the matcher sound: residuals touching
the detail side, stored-finer-than-probe θ, and differing aggregate
lists must all miss.  Finally, the zero-detail-scan certificate: every
trace in which the rollup store answered must contain no ``detail_scan``
span under any hit (checked by the invariant checker).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ScanTable, Select
from repro.fuzz.datagen import random_database
from repro.gmdj.operator import md
from repro.obs.invariants import check_trace

WARM = QueryOptions(strategy="gmdj", rollup="subsume", use_cache=False)
OFF = QueryOptions(strategy="gmdj", rollup="off", use_cache=False)

THETA = col("b.k") == col("r.k")
AGGS = [[
    AggregateSpec("count", None, "c0"),
    AggregateSpec("sum", col("r.y"), "s0"),
    AggregateSpec("min", col("r.y"), "m0"),
]]


def seeded_db(seed: int) -> Database:
    """A Database over the fuzzer's NULL-heavy B/R/S tables."""
    rng = random.Random(seed)
    spec = random_database(rng, max_rows=12)
    db = Database()
    for name, table in spec.tables.items():
        db.create_table(name, list(table.columns), table.rows)
    return db


def scan(table: str, alias: str) -> ScanTable:
    return ScanTable(table, alias)


def coarse_gmdj():
    return md(scan("B", "b"), scan("R", "r"), AGGS, [THETA])


class TestServingTiers:
    """Hand-built store/probe pairs over a fixed NULL-bearing database."""

    def _db(self) -> Database:
        db = Database()
        db.create_table(
            "B", [("k", DataType.INTEGER), ("x", DataType.INTEGER)],
            [(0, 5), (1, None), (2, 9), (3, 1), (4, 7), (5, 3)],
        )
        db.create_table(
            "R", [("k", DataType.INTEGER), ("y", DataType.INTEGER)],
            [(0, 3), (0, 8), (1, 4), (2, None), (2, 2), (4, 7), (4, 7),
             (6, 1)],
        )
        return db

    def test_exact_tier_round_trip(self):
        db = self._db()
        cold = db.execute(coarse_gmdj(), WARM)
        warm = db.execute(coarse_gmdj(), WARM)
        assert warm.rows == cold.rows
        assert db.rollups.stats()["exact_hits"] == 1

    def test_theta_residual_subsumption(self):
        db = self._db()
        fine = md(scan("B", "b"), scan("R", "r"), AGGS,
                  [THETA & (col("b.x") > lit(2))])
        db.execute(coarse_gmdj(), WARM)
        served = db.execute(fine, WARM)
        direct = db.execute(fine, OFF)
        assert served.rows == direct.rows
        assert db.rollups.stats()["subsume_hits"] == 1
        # Rows failing the residual keep their base prefix but take the
        # aggregates' empty-input values — count 0, sum/min NULL.
        empties = [row for row in served.rows if row[2] == 0]
        assert all(row[3] is None and row[4] is None for row in empties)

    def test_base_selection_subsumption(self):
        db = self._db()
        fine = md(Select(scan("B", "b"), col("b.x") > lit(2)),
                  scan("R", "r"), AGGS, [THETA])
        db.execute(coarse_gmdj(), WARM)
        served = db.execute(fine, WARM)
        direct = db.execute(fine, OFF)
        assert served.rows == direct.rows
        assert db.rollups.stats()["subsume_hits"] == 1

    def test_combined_subsumption(self):
        db = self._db()
        fine = md(Select(scan("B", "b"), col("b.k") < lit(5)),
                  scan("R", "r"), AGGS,
                  [THETA & (col("b.x") > lit(2))])
        db.execute(coarse_gmdj(), WARM)
        served = db.execute(fine, WARM)
        direct = db.execute(fine, OFF)
        assert served.rows == direct.rows
        assert db.rollups.stats()["subsume_hits"] == 1

    def test_theta_reordering_is_served(self):
        db = self._db()
        rho = col("b.x") > lit(2)
        db.execute(md(scan("B", "b"), scan("R", "r"), AGGS,
                      [THETA & rho]), WARM)
        reordered = md(scan("B", "b"), scan("R", "r"), AGGS,
                       [rho & THETA])
        served = db.execute(reordered, WARM)
        direct = db.execute(reordered, OFF)
        assert served.rows == direct.rows
        assert db.rollups.stats()["subsume_hits"] == 1


class TestRefusals:
    """Shapes the matcher must *not* serve — each falls back to a scan."""

    def _warmed(self):
        db = TestServingTiers()._db()
        db.execute(coarse_gmdj(), WARM)
        return db

    def test_detail_residual_misses(self):
        # The extra conjunct references r.y: re-aggregation would need
        # the detail relation, so the store must refuse.
        db = self._warmed()
        fine = md(scan("B", "b"), scan("R", "r"), AGGS,
                  [THETA & (col("r.y") > lit(3))])
        served = db.execute(fine, WARM)
        assert db.rollups.stats()["subsume_hits"] == 0
        assert served.rows == db.execute(fine, OFF).rows

    def test_stored_finer_than_probe_misses(self):
        # Stored θ strictly stronger than the probe's: rows the stored
        # rollup already filtered out cannot be resurrected.
        db = TestServingTiers()._db()
        finer = md(scan("B", "b"), scan("R", "r"), AGGS,
                   [THETA & (col("b.x") > lit(2))])
        db.execute(finer, WARM)
        served = db.execute(coarse_gmdj(), WARM)
        assert db.rollups.stats()["subsume_hits"] == 0
        assert served.rows == db.execute(coarse_gmdj(), OFF).rows

    def test_different_aggregates_miss(self):
        db = self._warmed()
        other = md(scan("B", "b"), scan("R", "r"),
                   [[AggregateSpec("max", col("r.y"), "mx")]], [THETA])
        served = db.execute(other, WARM)
        assert db.rollups.stats()["subsume_hits"] == 0
        assert served.rows == db.execute(other, OFF).rows

    def test_exact_level_never_subsumes(self):
        db = TestServingTiers()._db()
        exact_only = QueryOptions(strategy="gmdj", rollup="exact",
                                  use_cache=False)
        db.execute(coarse_gmdj(), exact_only)
        fine = md(scan("B", "b"), scan("R", "r"), AGGS,
                  [THETA & (col("b.x") > lit(2))])
        served = db.execute(fine, exact_only)
        assert db.rollups.stats()["subsume_hits"] == 0
        assert served.rows == db.execute(fine, OFF).rows


class TestPropertyDifferential:
    """Coarse-store → fine-probe pairs over fuzz-generated databases."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_theta_residual_matches_direct(self, seed):
        db = seeded_db(seed)
        rng = random.Random(seed ^ 0x5EED)
        bound = rng.randint(-2, 8)
        fine = md(scan("B", "b"), scan("R", "r"), AGGS,
                  [THETA & (col("b.x") > lit(bound))])
        db.execute(coarse_gmdj(), WARM)
        served = db.execute(fine, WARM)
        direct = db.execute(fine, OFF)
        assert served.rows == direct.rows
        assert db.rollups.stats()["subsume_hits"] >= 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_base_selection_matches_direct(self, seed):
        db = seeded_db(seed)
        rng = random.Random(seed ^ 0xBA5E)
        bound = rng.randint(-2, 8)
        fine = md(Select(scan("B", "b"), col("b.k") < lit(bound)),
                  scan("R", "r"), AGGS, [THETA])
        db.execute(coarse_gmdj(), WARM)
        served = db.execute(fine, WARM)
        direct = db.execute(fine, OFF)
        assert served.rows == direct.rows
        assert db.rollups.stats()["subsume_hits"] >= 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_sql_cold_warm_optimized_agree(self, seed):
        # The fuzz engine's replay shape, as a property: plain gmdj
        # stores, gmdj_optimized (whose pushdown sinks the base-only
        # conjunct into the GMDJ base) probes by subsumption.
        db = seeded_db(seed)
        sql = ("SELECT b.k, b.x FROM B b WHERE b.k < 4 AND b.x > "
               "(SELECT sum(r.y) FROM R r WHERE r.k = b.k)")
        warm_opt = QueryOptions(strategy="gmdj_optimized",
                                rollup="subsume", use_cache=False)
        off_opt = QueryOptions(strategy="gmdj_optimized",
                               rollup="off", use_cache=False)
        cold = db.execute_sql(sql, WARM)
        warm = db.execute_sql(sql, WARM)
        optimized = db.execute_sql(sql, warm_opt)
        direct = db.execute_sql(sql, off_opt)
        assert warm.rows == cold.rows
        assert optimized.rows == direct.rows


class TestZeroDetailScanCertificate:
    def test_subsume_hit_trace_has_no_detail_scans(self):
        db = TestServingTiers()._db()
        fine = md(scan("B", "b"), scan("R", "r"), AGGS,
                  [THETA & (col("b.x") > lit(2))])
        db.execute(coarse_gmdj(), WARM)
        report = db.profile(fine, WARM, trace=True)
        hits = [s for s in report.trace.walk() if s.kind == "rollup_hit"]
        assert len(hits) == 1 and hits[0].attrs["tier"] == "subsume"
        assert not [s for s in report.trace.walk()
                    if s.kind == "detail_scan"]
        # strict: the rollup invariants raise on any scan under a hit.
        invariants = check_trace(report.trace, strict=True)
        assert invariants.checked >= 2 and invariants.ok

    def test_explain_analyze_reports_serving_tier(self):
        db = seeded_db(20260808)
        sql = ("SELECT b.k FROM B b WHERE b.k < 4 AND b.x > "
               "(SELECT sum(r.y) FROM R r WHERE r.k = b.k)")
        warm_opt = QueryOptions(strategy="gmdj_optimized",
                                rollup="subsume", use_cache=False)
        db.execute_sql(sql, WARM)
        text = db.explain_analyze(db.sql(sql), warm_opt, strict=True)
        assert "rollup=subsume" in text
        assert "-- rollup:" in text
        assert "served from rollup store (subsumption)" in text

    def test_miss_trace_records_miss_and_store(self):
        db = TestServingTiers()._db()
        report = db.profile(coarse_gmdj(), WARM, trace=True)
        assert [s for s in report.trace.walk() if s.kind == "rollup_miss"]
        assert db.rollups.stats()["stores"] == 1


class TestConcurrentRollupStaleness:
    """Threaded reads racing inserts must never be served a stale rollup.

    Subsumption makes stale rollups worse than stale cache entries: one
    stale stored GMDJ can answer *other* queries.  This drives the warm
    (``rollup="subsume"``) path from four reader threads while a writer
    commits inserts through the tenant write lock, then differentially
    checks every observation against the committed snapshot sequence and
    the final state against direct ``rollup="off"`` evaluation.
    """

    def test_threaded_reads_racing_inserts_stay_fresh(self):
        import threading

        from repro.serve.state import Tenant

        from repro import DataType

        sql = ("SELECT K FROM B b WHERE EXISTS "
               "(SELECT * FROM R r WHERE r.K = b.K)")
        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)],
                        [(i,) for i in range(4)])
        db.create_table("R", [("K", DataType.INTEGER)], [(0,)])
        tenant = Tenant(name="t", db=db)
        snapshots = [frozenset({(0,)})]
        stop = threading.Event()
        failures = []
        per_thread = []

        def reader():
            seen = []
            try:
                while not stop.is_set():
                    payload = tenant.run_query(sql, WARM)
                    served = frozenset(
                        tuple(row) for row in payload["rows"])
                    if payload["served_by"] in ("rollup", "mixed"):
                        # A rollup-served answer must also honour the
                        # zero-detail-scan certificate.
                        if (payload["served_by"] == "rollup"
                                and payload["detail_scans"]):
                            failures.append(
                                f"rollup hit scanned the detail: {payload}")
                    seen.append(served)
            except Exception as error:  # pragma: no cover - diagnostics
                failures.append(error)
            per_thread.append(seen)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for key in (1, 2, 3):
            tenant.run_ddl({"op": "insert", "name": "R", "rows": [[key]]})
            snapshots.append(snapshots[-1] | {(key,)})
        stop.set()
        for thread in threads:
            thread.join(60)
        assert not failures, failures

        for seen in per_thread:
            for result in seen:
                assert result in snapshots, f"stale rollup served {result}"
            indices = [snapshots.index(result) for result in seen]
            assert indices == sorted(indices)

        # Differential close: the warm path and direct rollup-off
        # evaluation agree row-for-row on the final state.
        warm_final = db.execute_sql(sql, WARM)
        direct = db.execute_sql(sql, OFF)
        assert warm_final.rows == direct.rows
        assert frozenset(direct.rows) == snapshots[-1]
