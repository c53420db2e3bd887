"""Tests for EXPLAIN rendering of the extension operators and
explain_analyze."""

import pytest
from repro import QueryOptions

from repro.algebra.expressions import col
from repro.algebra.nested import Apply, Exists, NestedSelect, Subquery
from repro.algebra.operators import (
    Intersect,
    Limit,
    OrderBy,
    ScanTable,
)
from repro.algebra.printer import explain
from repro.engine import STRATEGIES, Database
from repro.storage import DataType


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table("T", [("k", DataType.INTEGER)], [(1,), (2,)])
    database.create_table("U", [("k", DataType.INTEGER)], [(2,), (3,)])
    return database


class TestPrinterExtras:
    def test_intersect(self):
        text = explain(Intersect(ScanTable("T"), ScanTable("U")))
        assert text.startswith("Intersect ALL")

    def test_order_by(self):
        text = explain(OrderBy(ScanTable("T"), [("T.k", True)]))
        assert "OrderBy [T.k DESC]" in text

    def test_limit_with_offset(self):
        text = explain(Limit(ScanTable("T"), 5, offset=2))
        assert "Limit 5 OFFSET 2" in text

    def test_apply(self):
        node = Apply(
            ScanTable("T", "t"),
            Subquery(ScanTable("U", "u"), col("u.k") == col("t.k"),
                     item=col("u.k")),
            output_name="v",
        )
        text = explain(node)
        assert text.startswith("Apply -> v [")
        assert "single(" in text
        assert "Scan T -> t" in text

    def test_sql_compound_plan_renders(self, db):
        plan = db.sql("SELECT k FROM T EXCEPT SELECT k FROM U")
        text = explain(plan)
        assert "Difference DISTINCT" in text


class TestExplainAnalyze:
    def test_contains_plan_and_counters(self, db):
        query = NestedSelect(
            ScanTable("T", "t"),
            Exists(Subquery(ScanTable("U", "u"), col("u.k") == col("t.k"))),
        )
        text = db.explain_analyze(query, QueryOptions("gmdj"))
        assert "GMDJ" in text
        assert "rows: 1" in text
        assert "tuples_scanned=" in text

    def test_respects_strategy(self, db):
        query = NestedSelect(
            ScanTable("T", "t"),
            Exists(Subquery(ScanTable("U", "u"), col("u.k") == col("t.k"))),
        )
        text = db.explain_analyze(query, QueryOptions("naive"))
        assert "NestedSelect" in text


class TestExplainShowsThePlanThatRuns:
    """EXPLAIN, ``static_report``, the analyzed certificate and ``repro
    lint`` all ask ``planner.plan_for``; so does the runner.  Whatever
    tree the executor walks is the tree every surface describes."""

    QUERIES = {
        "where_exists": (
            "SELECT t.k FROM T t WHERE EXISTS "
            "(SELECT * FROM U u WHERE u.k = t.k)"),
        "select_list_siblings": (
            "SELECT t.k, (SELECT COUNT(*) FROM U u WHERE u.k = t.k) AS n, "
            "(SELECT MAX(v.k) FROM U v WHERE v.k <> t.k) AS m FROM T t"),
        "subquery_free": "SELECT t.k FROM T t WHERE t.k > 1",
    }

    @staticmethod
    def executed_plan(db, query, options, monkeypatch):
        """Run ``query`` and return the tree the executor evaluated."""
        from repro.engine import executor

        seen = []

        def recording(evaluator):
            def evaluate(plan, *args, **kwargs):
                seen.append(plan)
                return evaluator(plan, *args, **kwargs)
            return evaluate

        monkeypatch.setattr(executor, "evaluate_plan",
                            recording(executor.evaluate_plan))
        for name, baseline in executor._BASELINES.items():
            monkeypatch.setitem(executor._BASELINES, name,
                                recording(baseline))
        plain = type(query).evaluate
        monkeypatch.setattr(
            type(query), "evaluate",
            lambda self, catalog: (
                seen.append(self) if self is query else None,
                plain(self, catalog))[1])
        db.execute(query, options)
        return seen[0]

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    @pytest.mark.parametrize("strategy", ["default", *STRATEGIES])
    def test_explain_renders_the_executed_tree(self, db, strategy, shape,
                                               monkeypatch):
        from repro.cli import _lint_one
        from repro.obs.explain import static_report

        options = QueryOptions(use_cache=False)
        if strategy != "default":
            options = QueryOptions(strategy, use_cache=False)
        sql = self.QUERIES[shape]
        query = db.sql(sql)
        explained = db.explain(query, options)
        analyzed = db.explain_analyze(query, options).json()
        _, certificate = static_report(db, query, options)
        _, linted, _ = _lint_one(db, sql, options.strategy, advice=False)
        plan = self.executed_plan(db, query, options, monkeypatch)
        assert explain(plan) == str(explained) == analyzed["plan"]
        assert (analyzed["certificate"] == certificate.to_json()
                == linted.to_json())
        assert analyzed["invariants"]["violations"] == []
