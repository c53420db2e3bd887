"""Static cost certification and its runtime cross-check.

The certificate's claims (output ≤ |B|, one detail scan per GMDJ
evaluation) are derived from plan structure alone; these tests pin the
derivation and then run certified plans to confirm
:meth:`~repro.lint.cost.CostCertificate.violations` accepts the real
IOStats counters and rejects doctored certificates.
"""

from __future__ import annotations

import pytest

from repro import Database, QueryOptions
from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import TRUE, Column, Comparison
from repro.algebra.nested import NestedSelect, ScalarComparison, Subquery
from repro.algebra.operators import Project, ScanTable, Select
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.engine import plan_for
from repro.fuzz.oracle import _case_database
from repro.fuzz.queries import render_repro_sql
from repro.fuzz.runner import FuzzConfig, generate_case
from repro.gmdj.physical import served_from
from repro.lint import CostCertificate, GMDJCostEntry, certify_plan
from repro.obs.explain import analyze, static_report
from repro.storage import collect


def count_star(name: str) -> AggregateSpec:
    return AggregateSpec("count", None, name)


def simple_gmdj() -> GMDJ:
    return GMDJ(
        ScanTable("B"), ScanTable("R"),
        [ThetaBlock([count_star("cnt")],
                    Comparison("=", Column("B.K"), Column("R.K")))],
    )


class TestCertifyPlan:
    def test_single_gmdj(self):
        certificate = certify_plan(simple_gmdj())
        assert len(certificate.entries) == 1
        (entry,) = certificate.entries
        assert entry.relation == "R"
        assert entry.blocks == 1
        assert entry.completion is False
        assert certificate.scan_counts == {"R": 1}
        assert certificate.single_scan_tables == frozenset({"R"})

    def test_no_gmdj_plan(self):
        certificate = certify_plan(ScanTable("B"))
        assert certificate.entries == ()
        assert "no GMDJ operators" in certificate.summary()

    def test_stacked_gmdjs_count_scans_per_operator(self):
        inner = simple_gmdj()
        outer = GMDJ(inner, ScanTable("R", "__p2"),
                     [ThetaBlock([count_star("c2")], TRUE)])
        certificate = certify_plan(outer)
        assert len(certificate.entries) == 2
        assert certificate.scan_counts == {"R": 2}
        # Scanned twice -> not in the Prop. 4.1 single-scan subset.
        assert certificate.single_scan_tables == frozenset()

    def test_select_gmdj_fuses_into_one_entry(self):
        fused = SelectGMDJ(
            simple_gmdj(), Comparison(">", Column("cnt"), Column("B.X"))
        )
        certificate = certify_plan(fused)
        assert len(certificate.entries) == 1
        assert certificate.entries[0].completion is True
        assert certificate.scan_counts == {"R": 1}

    def test_nested_residue_gmdj_still_counted(self):
        residue = NestedSelect(
            simple_gmdj(),
            ScalarComparison(
                ">", Column("B.X"),
                Subquery(ScanTable("R"), TRUE,
                         aggregate=AggregateSpec("avg", Column("R.Y"), "a")),
            ),
        )
        certificate = certify_plan(residue)
        assert certificate.scan_counts == {"R": 1}
        assert "incomplete" not in certificate.summary()

    def test_derived_detail_has_no_relation(self):
        derived = GMDJ(
            ScanTable("B"),
            Select(ScanTable("R"), Comparison(">", Column("R.Y"), Column("R.K"))),
            [ThetaBlock([count_star("cnt")],
                        Comparison("=", Column("B.K"), Column("R.K")))],
        )
        certificate = certify_plan(derived)
        assert certificate.entries[0].relation is None
        assert certificate.scan_counts == {}

    def test_json_shape(self):
        payload = certify_plan(simple_gmdj()).to_json()
        assert payload["detail_scan_counts"] == {"R": 1}
        assert payload["single_scan_tables"] == ["R"]
        (entry,) = payload["entries"]
        assert "output_rows <= base_rows" in entry["claims"]
        assert "1 detail scan per evaluation" in entry["claims"]

    def test_summary_mentions_bound_and_scans(self):
        text = certify_plan(simple_gmdj()).summary()
        assert "output ≤ |B|" in text
        assert "R×1" in text


class TestRuntimeCrossCheck:
    @pytest.fixture
    def db(self, kv_catalog) -> Database:
        database = Database()
        for name in kv_catalog.table_names():
            database.register(name, kv_catalog.table(name))
        return database

    SQL = ("SELECT B.K FROM B WHERE B.X > "
           "(SELECT AVG(R.Y) FROM R WHERE R.K = B.K)")

    @pytest.mark.parametrize("backend", [
        "row", "python", "numpy",
    ])
    def test_certificate_holds_on_traced_run(self, db, backend):
        query = db.sql(self.SQL)
        report, violations = analyze(
            db, query, QueryOptions(strategy="gmdj_optimized",
                                    backend=backend)
        )
        assert report.trace.find(kind="query")[0].attrs["kernel"] == backend
        assert violations == []
        assert report.counters["detail_scans"] == 1

    def test_doctored_certificate_is_rejected(self, db):
        from repro.unnesting.translate import subquery_to_gmdj

        query = db.sql(self.SQL)
        plan = subquery_to_gmdj(query, db.catalog, optimize=True)
        honest = certify_plan(plan)
        report = db.profile(query, QueryOptions(strategy="gmdj_optimized"))
        assert honest.violations(report.counters) == []
        doctored = CostCertificate(
            entries=honest.entries + (GMDJCostEntry(
                path="phantom", relation="R", blocks=1, completion=False
            ),),
            detail_scan_counts=(("R", 2),),
            single_scan_tables=frozenset(),
        )
        (violation,) = doctored.violations(report.counters)
        assert "certifies 2 GMDJ evaluation(s)" in violation
        assert "counted 1 detail scan(s)" in violation

    #: Fuzz smoke cases (seed 20260806) whose SELECT-list items push a
    #: copy of the outer input, GMDJs included, below a ``Distinct``.
    COPY_CASES = (31, 36, 95, 136, 152)

    @pytest.mark.parametrize("backend", ["row", "numpy"])
    @pytest.mark.parametrize("iteration", COPY_CASES)
    def test_certificate_counts_a_repeated_gmdj_once(self, iteration,
                                                     backend):
        dbspec, ir = generate_case(FuzzConfig(seed=20260806), iteration)
        db = _case_database(dbspec)
        query = db.sql(render_repro_sql(ir))
        for strategy in ("gmdj", "gmdj_optimized"):
            plan = plan_for(query, db.catalog, strategy)
            assert served_from(plan), "the case no longer repeats a GMDJ"
            with collect() as stats:
                db.execute(query, QueryOptions(strategy, backend=backend,
                                               use_cache=False))
            assert certify_plan(plan).violations(stats.snapshot()) == []


class TestExplainIntegration:
    @pytest.fixture
    def db(self, kv_catalog) -> Database:
        database = Database()
        for name in kv_catalog.table_names():
            database.register(name, kv_catalog.table(name))
        return database

    SQL = ("SELECT B.K FROM B WHERE B.X > "
           "(SELECT AVG(R.Y) FROM R WHERE R.K = B.K)")

    def test_static_report_matches_explain_dispatch(self, db):
        query = db.sql(self.SQL)
        lint, certificate = static_report(db, query, "gmdj_optimized")
        assert lint.ok, lint.render()
        assert len(certificate.entries) >= 1

    def test_explain_analyze_panel(self, db):
        text = db.explain_analyze(
            db.sql(self.SQL), QueryOptions(strategy="gmdj_optimized"),
            strict=True,
        )
        assert "-- lint:" in text
        assert "cost certificate:" in text
        assert "invariants:" in text

    def test_explain_analyze_json_fields(self, db):
        from repro.obs.explain import explain_analyze_json

        payload = explain_analyze_json(
            db, db.sql(self.SQL), QueryOptions(strategy="gmdj_optimized")
        )
        assert payload["lint"]["ok"] is True
        assert payload["invariants"] == {"checked": 2, "violations": []}

    def test_baseline_strategy_lints_query_as_is(self, db):
        query = db.sql(self.SQL)
        lint, certificate = static_report(db, query, "naive")
        assert lint.ok
        # The un-translated nested query holds no GMDJ operators.
        assert certificate.entries == ()


def test_project_wrapper_path_labels(kv_catalog):
    plan = Project(simple_gmdj(), ["B.K"])
    certificate = certify_plan(plan)
    (entry,) = certificate.entries
    assert entry.path.startswith("/project[0]")
