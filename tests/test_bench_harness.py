"""Tests for the benchmark harness itself (runner, reporting, workloads)."""

import pytest

from repro.bench import (
    build_example23,
    build_fig2,
    build_fig3,
    build_fig4,
    build_fig5,
    compare_strategies,
    print_series,
    series_summary,
)
from repro.engine import execute


@pytest.fixture(scope="module")
def tiny_fig2():
    return build_fig2(600, outer_size=30)


class TestWorkloadBuilders:
    def test_fig2_tables_sized(self, tiny_fig2):
        assert len(tiny_fig2.catalog.table("customer")) == 30
        assert len(tiny_fig2.catalog.table("orders")) == 600

    def test_fig2_indexes_optional(self):
        indexed = build_fig2(600, outer_size=30, indexes=True)
        bare = build_fig2(600, outer_size=30, indexes=False)
        assert indexed.catalog.hash_index("orders", ("custkey",)) is not None
        assert bare.catalog.hash_index("orders", ("custkey",)) is None

    def test_fig3_answer_nontrivial(self):
        workload = build_fig3(30, 600)
        result = execute(workload.query, workload.catalog, "gmdj")
        assert 0 < len(result) < 30

    def test_fig4_diamond_answer_small(self):
        workload = build_fig4(60)
        result = execute(workload.query, workload.catalog, "gmdj_optimized")
        assert 1 <= len(result) <= 5  # only near-maximal prices survive

    def test_fig5_two_subqueries(self):
        workload = build_fig5(600, outer_size=30)
        from repro.algebra.nested import collect_subquery_predicates

        assert len(collect_subquery_predicates(workload.query.predicate)) == 2

    def test_example23_params_recorded(self):
        workload = build_example23(flows=500, sources=10)
        assert workload.params["flows"] == 500

    def test_builders_ignore_bench_scale(self, monkeypatch):
        # Only the benchmark scripts scale; a builder builds what it is given.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2")
        assert len(build_fig2(600, outer_size=30).catalog.table("orders")) == 600


class TestRunner:
    def test_reports_for_each_strategy(self, tiny_fig2):
        result = compare_strategies(tiny_fig2, ["native", "gmdj"])
        assert set(result.reports) == {"native", "gmdj"}
        assert not result.failures

    def test_equivalence_enforced(self, tiny_fig2):
        result = compare_strategies(
            tiny_fig2, ["naive", "native", "unnest_join", "gmdj",
                        "gmdj_optimized"]
        )
        sizes = {len(r.result) for r in result.reports.values()}
        assert len(sizes) == 1

    def test_unsupported_strategy_recorded_as_failure(self):
        # Join unnesting rejects disjunctive subquery predicates.
        from repro.algebra.expressions import col, lit
        from repro.algebra.nested import Exists, NestedSelect, Subquery
        from repro.algebra.operators import ScanTable
        from repro.bench.workloads import Workload

        base = build_fig2(300, outer_size=10)
        predicate = Exists(
            Subquery(ScanTable("orders", "o"),
                     col("o.custkey") == col("c.custkey"))
        ) | (col("c.acctbal") > lit(0.0))
        workload = Workload(
            "disjunctive", base.catalog,
            NestedSelect(ScanTable("customer", "c"), predicate), {},
        )
        result = compare_strategies(workload, ["gmdj", "unnest_join"])
        assert "unnest_join" in result.failures
        assert "gmdj" in result.reports


class TestReporting:
    def test_print_series_layout(self, tiny_fig2, capsys):
        result = compare_strategies(tiny_fig2, ["native", "gmdj"])
        text = print_series("Test series", [result], ["native", "gmdj"])
        captured = capsys.readouterr().out
        assert "Test series" in text and text in captured
        assert "native" in text and "gmdj" in text

    def test_print_series_marks_infeasible(self, tiny_fig2):
        result = compare_strategies(tiny_fig2, ["gmdj"])
        result.failures["unnest_join"] = "nope"
        text = print_series("x", [result], ["gmdj", "unnest_join"])
        assert "infeasible" in text

    def test_series_summary_metrics(self, tiny_fig2):
        result = compare_strategies(tiny_fig2, ["gmdj"])
        assert series_summary([result], "gmdj")[0] > 0
        assert series_summary([result], "absent") == [float("inf")]
