"""Fixture coverage for every diagnostic code the static verifier emits.

Each test builds the smallest plan that trips exactly the rule under
test; the final test asserts the fixtures jointly cover the whole
``DIAGNOSTIC_CODES`` registry, so a new code cannot land without a
triggering fixture.
"""

from __future__ import annotations

import pytest

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import (
    TRUE,
    And,
    Column,
    Comparison,
    Literal,
)
from repro.algebra.nested import (
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
)
from repro.algebra.operators import (
    GroupBy,
    Join,
    Project,
    ScanTable,
    Select,
    Union,
)
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.lint import (
    DIAGNOSTIC_CODES,
    PlanDiagnostic,
    Severity,
    lint_plan,
    plan_codes,
    severity_of,
)
from repro.storage import DataType

from .conftest import make_catalog


def count_star(name: str) -> AggregateSpec:
    return AggregateSpec("count", None, name)


@pytest.fixture
def string_catalog():
    return make_catalog(
        Flow=(
            [("Protocol", DataType.STRING), ("NumBytes", DataType.INTEGER)],
            [("HTTP", 12), ("FTP", 48)],
        ),
    )


def _fixture_plans(kv_catalog, string_catalog):
    """``code -> (catalog, plan)`` — the registry-coverage fixtures."""
    B = ScanTable("B")
    R = ScanTable("R")
    plans = {}
    plans["L001"] = (
        kv_catalog,
        Select(B, Comparison("=", Column("B.NOPE"), Literal(1))),
    )
    plans["L002"] = (
        kv_catalog,
        Select(
            Join(B, R, TRUE),
            Comparison("=", Column("K"), Literal(1)),
        ),
    )
    plans["L003"] = (
        string_catalog,
        Select(
            ScanTable("Flow"),
            Comparison("=", Column("Flow.Protocol"), Literal(1)),
        ),
    )
    plans["L004"] = (
        kv_catalog,
        Union(B, Project(R, ["R.K"])),
    )
    plans["L005"] = (
        kv_catalog,
        Project(B, [(Column("B.K"), "K"), (Column("B.X"), "K")]),
    )
    plans["L006"] = (
        kv_catalog,
        GMDJ(B, R, [ThetaBlock(
            [count_star("cnt")],
            Comparison("=", Column("B.K"), Column("Q.Z")),
        )]),
    )
    plans["L007"] = (
        kv_catalog,
        GMDJ(B, ScanTable("B", alias="__p1"), [ThetaBlock(
            [count_star("cnt")],
            And(
                Comparison("=", Column("B.K"), Column("__p1.K")),
                Comparison("=", Column("B.X"), Column("__p1.X")),
            ),
        )]),
    )
    plans["L008"] = (kv_catalog, ScanTable("Nope"))
    plans["L009"] = (
        string_catalog,
        GroupBy(
            ScanTable("Flow"), [],
            [AggregateSpec("sum", Column("Flow.Protocol"), "s")],
        ),
    )
    plans["L010"] = (kv_catalog, Select(B, Column("B.K")))
    plans["W101"] = (
        kv_catalog,
        NestedSelect(B, QuantifiedComparison(
            "<>", "all", Column("B.X"),
            Subquery(R, TRUE, item=Column("R.Y")),
        )),
    )
    plans["W102"] = (
        kv_catalog,
        Select(B, Comparison("=", Column("B.K"), Literal(None))),
    )
    inner = GMDJ(B, ScanTable("R", "__p1"),
                 [ThetaBlock([count_star("c1")], TRUE)])
    plans["A201"] = (
        kv_catalog,
        GMDJ(inner, ScanTable("R", "__p2"),
             [ThetaBlock([count_star("c2")], TRUE)]),
    )
    plans["A202"] = (
        kv_catalog,
        Join(
            ScanTable("B", alias="B2"),
            GMDJ(B, R, [ThetaBlock(
                [count_star("cnt")],
                Comparison("=", Column("B.K"), Column("R.K")),
            )]),
            Comparison("=", Column("B2.K"), Column("B.K")),
        ),
    )
    plans["A203"] = (  # two <> conjuncts: the range form declines it
        kv_catalog,
        GMDJ(B, R, [ThetaBlock(
            [count_star("cnt")],
            And(Comparison("<>", Column("B.K"), Column("R.K")),
                Comparison("<>", Column("B.X"), Column("R.Y"))),
        )]),
    )
    plans["A204"] = (
        kv_catalog,
        NestedSelect(B, ScalarComparison(
            ">", Column("B.X"),
            Subquery(R, TRUE,
                     aggregate=AggregateSpec("max", Column("R.Y"), "m")),
        )),
    )
    return plans


@pytest.fixture
def fixture_plans(kv_catalog, string_catalog):
    return _fixture_plans(kv_catalog, string_catalog)


class TestEachCodeHasAFixture:
    @pytest.mark.parametrize("code", sorted(plan_codes()))
    def test_fixture_triggers_code(self, code, fixture_plans):
        catalog, plan = fixture_plans[code]
        report = lint_plan(plan, catalog)
        assert code in report.codes(), report.render()

    def test_registry_completeness(self, fixture_plans):
        """The fixtures jointly exercise the whole plan-level registry.

        Source-level ``Cxxx`` codes get the same treatment with source
        fixtures in ``tests/test_concurrency_lint.py``.
        """
        assert set(fixture_plans) == plan_codes()
        triggered = set()
        for catalog, plan in fixture_plans.values():
            triggered |= lint_plan(plan, catalog).codes()
        assert triggered == plan_codes()

    def test_l007_fixture_fires_nothing_else(self, fixture_plans):
        catalog, plan = fixture_plans["L007"]
        report = lint_plan(plan, catalog)
        assert report.codes() == {"L007"}


class TestTargetedBehaviour:
    def test_clean_plan_is_empty(self, kv_catalog):
        plan = Select(
            ScanTable("B"), Comparison(">", Column("B.X"), Literal(2))
        )
        report = lint_plan(plan, kv_catalog)
        assert report.ok
        assert report.diagnostics == []

    def test_null_safe_identity_link_passes(self, kv_catalog):
        """The correct translator output (null-safe links) does not trip L007."""
        from repro.algebra.expressions import IsNull, Or

        def safe(left: str, right: str):
            return Or(
                Comparison("=", Column(left), Column(right)),
                And(IsNull(Column(left)), IsNull(Column(right))),
            )

        plan = GMDJ(
            ScanTable("B"), ScanTable("B", alias="__p1"),
            [ThetaBlock(
                [count_star("cnt")],
                And(safe("B.K", "__p1.K"), safe("B.X", "__p1.X")),
            )],
        )
        report = lint_plan(plan, kv_catalog)
        assert "L007" not in report.codes(), report.render()

    def test_partially_unsafe_link_still_fires(self, kv_catalog):
        """One plain '=' conjunct among null-safe ones is still a bug."""
        from repro.algebra.expressions import IsNull, Or

        safe_k = Or(
            Comparison("=", Column("B.K"), Column("__p1.K")),
            And(IsNull(Column("B.K")), IsNull(Column("__p1.K"))),
        )
        plan = GMDJ(
            ScanTable("B"), ScanTable("B", alias="__p1"),
            [ThetaBlock(
                [count_star("cnt")],
                And(safe_k, Comparison("=", Column("B.X"), Column("__p1.X"))),
            )],
        )
        report = lint_plan(plan, kv_catalog)
        assert "L007" in report.codes()

    def test_base_side_copy_is_exempt(self, kv_catalog):
        """Correlation substitutions put the copy on the *base* side —
        those plain equalities are correlations, not identity links."""
        plan = GMDJ(
            ScanTable("B", alias="__p1"), ScanTable("B", alias="D"),
            [ThetaBlock(
                [count_star("cnt")],
                And(
                    Comparison("=", Column("__p1.K"), Column("D.K")),
                    Comparison("=", Column("__p1.X"), Column("D.X")),
                ),
            )],
        )
        report = lint_plan(plan, kv_catalog)
        assert "L007" not in report.codes(), report.render()

    def test_w101_silent_without_stored_nulls(self):
        """W101 only fires when the traced column demonstrably holds NULLs."""
        catalog = make_catalog(
            B=([("K", DataType.INTEGER), ("X", DataType.INTEGER)],
               [(0, 5), (1, 2)]),
            R=([("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
               [(0, 3), (1, 4)]),
        )
        plan = NestedSelect(ScanTable("B"), QuantifiedComparison(
            "<>", "all", Column("B.X"),
            Subquery(ScanTable("R"), TRUE, item=Column("R.Y")),
        ))
        report = lint_plan(plan, catalog)
        assert "W101" not in report.codes(), report.render()

    def test_advice_false_suppresses_advisories(self, fixture_plans):
        for code in ("A201", "A202", "A203", "A204"):
            catalog, plan = fixture_plans[code]
            report = lint_plan(plan, catalog, advice=False)
            assert code not in report.codes()
            assert report.advice == []

    def test_a203_skips_base_independent_blocks(self, kv_catalog):
        """An uncorrelated quantifier-count block has nothing to hash."""
        plan = GMDJ(ScanTable("B"), ScanTable("R"), [ThetaBlock(
            [count_star("cnt")],
            Comparison(">", Column("R.Y"), Literal(3)),
        )])
        report = lint_plan(plan, kv_catalog)
        assert "A203" not in report.codes(), report.render()

    def test_a203_skips_shapes_the_range_form_answers(self, kv_catalog):
        """Figure 4's ``<>`` plus a one-sided range is sorted search."""
        plan = GMDJ(ScanTable("B"), ScanTable("R"), [ThetaBlock(
            [count_star("cnt")],
            And(Comparison("<>", Column("B.K"), Column("R.K")),
                Comparison(">=", Column("B.X"), Column("R.Y"))),
        )])
        report = lint_plan(plan, kv_catalog)
        assert "A203" not in report.codes(), report.render()


class TestDiagnosticPlumbing:
    def test_severity_bands(self):
        assert severity_of("L007") is Severity.ERROR
        assert severity_of("W101") is Severity.WARNING
        assert severity_of("A201") is Severity.ADVICE
        with pytest.raises(ValueError):
            severity_of("X999")

    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            PlanDiagnostic("L999", "nope", "path")

    def test_render_and_json(self, fixture_plans):
        catalog, plan = fixture_plans["L001"]
        report = lint_plan(plan, catalog)
        (diag,) = report.errors
        assert diag.render().startswith("[L001] ")
        payload = diag.to_json()
        assert payload["code"] == "L001"
        assert payload["severity"] == "error"
        assert report.to_json()["ok"] is False

    def test_report_sorted_worst_first(self, kv_catalog, fixture_plans):
        report = lint_plan(*reversed(fixture_plans["A204"]))
        report.add("L001", "synthetic", "p")
        ordered = report.sorted()
        assert [d.severity for d in ordered] == sorted(
            (d.severity for d in ordered), reverse=True
        )

    def test_summary_counts(self, fixture_plans):
        catalog, plan = fixture_plans["W102"]
        report = lint_plan(plan, catalog)
        assert report.summary() == "0 error(s), 1 warning(s), 0 advisory(ies)"
