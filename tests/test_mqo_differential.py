"""Differential proof that batch MQO execution is invisible.

``execute_batch`` must be a pure scheduling change: each member's result
is row- AND order-identical to what ``execute`` returns for it alone.
The lattice (``tests/test_physical_lattice.py``) holds all six Table 1
subquery forms over NULL-heavy data to that at every kernel ×
fragmenter point; here the lint certificates prove one detail scan per
detail table per share group and the runtime counter confirms it, a
batch mixing every form keeps its rows, and a repeated batch goes
through the result cache and the rollup store as a query sent alone
does.
"""

from __future__ import annotations

import pytest

from repro import QueryOptions
from repro.obs import metrics_scope
from repro.storage import collect
from tests.test_physical_lattice import FORMS, form_query, make_db

NO_CACHE = QueryOptions(use_cache=False)


class TestSixFormsDifferential:
    @pytest.mark.parametrize("form", FORMS)
    def test_group_certificate_single_scan(self, form):
        db = make_db()
        queries = [form_query(form, bound) for bound in (1, 3, 5)]
        batch = db.execute_batch(queries, NO_CACHE)
        groups = batch.report.groups
        assert groups, f"{form}: expected a coalesced share group"
        for group in groups:
            # Static claim: one detail scan per detail table per group.
            assert group.certificate.scan_counts == {"R": 1}
            assert group.certificate.single_scan_tables == {"R"}
            # Runtime cross-check against the trace's detail_scan spans.
            assert group.runtime_detail_scans == 1
            assert group.certified is True
            assert group.scans_saved == len(group.indices) - 1

    def test_mixed_form_mega_batch(self):
        db = make_db()
        queries = [form_query(form, bound)
                   for form in FORMS for bound in (1, 4)]
        batch = db.execute_batch(queries, NO_CACHE)
        assert batch.report.scans_saved >= 1
        for query, result in zip(queries, batch):
            expected = db.execute(query, NO_CACHE)
            assert result.rows == expected.rows


# -- a repeated batch: the same serving tiers as a query sent alone ----------

EXISTS_SQL = ("SELECT b.K, b.X FROM B b WHERE EXISTS "
              "(SELECT * FROM R r WHERE r.K = b.K AND r.Y > 2)")


class TestWarmBatch:
    """Every member probes the result cache, and a share group's merged
    GMDJ meets the rollup store as any GMDJ node does: a batch run again
    scans nothing, as the same query sent alone does."""

    @pytest.mark.parametrize("strategy", ["gmdj", "gmdj_optimized"])
    @pytest.mark.parametrize("knobs", [
        dict(use_cache=True, rollup="subsume"),
        dict(use_cache=True),
        dict(rollup="subsume", use_cache=False),
    ], ids=["cache-rollup", "cache", "rollup"])
    def test_warm_batch_scans_nothing(self, strategy, knobs):
        db = make_db()
        options = QueryOptions(strategy, **knobs)
        cold = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        assert len(cold.report.groups) == 1
        with collect() as stats:
            warm = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        assert stats.detail_scans == 0
        assert [result.rows for result in warm] == [
            result.rows for result in cold]

    def test_merged_node_is_stored_and_served(self):
        db = make_db()
        options = QueryOptions("gmdj", rollup="subsume", use_cache=False)
        cold = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        (group,) = cold.report.groups
        assert group.certified is True
        with metrics_scope(merge=False) as registry:
            warm = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        assert registry.counters["rollup.exact_hits"].value == 1
        (group,) = warm.report.groups
        assert group.certified is None
        assert group.runtime_detail_scans == 0
        assert [result.rows for result in warm] == [
            result.rows for result in cold]
