"""Tests for the engine: Database façade, planner, executor, reports."""

import pytest
from repro import QueryOptions

from repro.algebra import has_subquery_form
from repro.algebra.expressions import col, lit
from repro.algebra.nested import Apply, Exists, NestedSelect, Subquery
from repro.algebra.operators import ScanTable, Select
from repro.engine import (
    Database,
    STRATEGIES,
    execute,
    plan_for,
    profile,
)
from repro.unnesting import subquery_to_gmdj
from repro.errors import BindError, CatalogError, PlanError
from repro.storage import DataType


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(0, 5), (1, 2), (2, 9), (3, 1)],
    )
    database.create_table(
        "R", [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
        [(0, 3), (0, 8), (2, 2), (5, 4)],
    )
    return database


def nested_query():
    return NestedSelect(
        ScanTable("B", "b"),
        Exists(Subquery(ScanTable("R", "r"), col("r.K") == col("b.K"))),
    )


class TestDatabaseDDL:
    def test_create_table(self, db):
        assert len(db.table("B")) == 4

    def test_create_index_and_drop(self, db):
        db.create_index("R", "K")
        assert db.catalog.hash_index("R", ["K"]) is not None
        assert db.drop_indexes() == 1

    def test_register_replaces(self, db):
        from repro.storage import Relation

        db.register("B", Relation.from_columns([("Z", DataType.INTEGER)],
                                                [(1,)]))
        assert db.table("B").schema.names == ("Z",)

    def test_load_csv(self, db, tmp_path):
        from repro.storage import save_csv

        path = tmp_path / "t.csv"
        save_csv(db.table("B"), path)
        loaded = db.load_csv("B2", path)
        assert loaded.bag_equal(db.table("B"))

    def test_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.table("missing")


#: The Section 4 ablations are translation flags, not strategy names:
#: their plans run, pre-translated, under ``gmdj``.
ABLATIONS = {
    "gmdj_coalesce": dict(coalesce=True, completion=False),
    "gmdj_completion": dict(coalesce=False, completion=True),
}


class TestStrategies:
    def test_the_seven_names(self):
        assert STRATEGIES == (
            "naive", "native", "native_noindex", "unnest_join",
            "unnest_join_noindex", "gmdj", "gmdj_optimized",
        )
        assert QueryOptions().strategy == "gmdj_optimized"

    @pytest.mark.parametrize("strategy", STRATEGIES + tuple(ABLATIONS))
    def test_every_strategy_agrees(self, db, strategy):
        expected = db.execute(nested_query(), QueryOptions("naive"))
        query = nested_query()
        if strategy in ABLATIONS:
            query = subquery_to_gmdj(query, db.catalog, optimize=True,
                                     **ABLATIONS[strategy])
            strategy = "gmdj"
        assert expected.bag_equal(db.execute(query, QueryOptions(strategy)))

    def test_auto_on_nested(self, db):
        # The default options: a nested query goes through the GMDJ.
        expected = db.execute(nested_query(), QueryOptions("naive"))
        report = db.profile(nested_query(), QueryOptions(trace=True))
        assert expected.bag_equal(report.result)
        (query_span,) = report.trace.find(kind="query")
        assert query_span.attrs["strategy"] == "gmdj_optimized"

    def test_auto_on_flat(self, db):
        # ... and a subquery-free one is evaluated plainly.
        query = Select(ScanTable("B", "b"), col("b.X") > lit(2))
        report = db.profile(query, QueryOptions(trace=True))
        assert len(report.result) == 2
        (query_span,) = report.trace.find(kind="query")
        assert query_span.attrs == {"strategy": "plain"}
        assert plan_for(query, db.catalog, "gmdj") is query

    def test_unknown_strategy(self, db):
        with pytest.raises(PlanError):
            db.execute(nested_query(), QueryOptions("quantum"))
        with pytest.raises(PlanError):
            plan_for(nested_query(), db.catalog, "quantum")

    def test_has_subquery_form(self):
        assert has_subquery_form(nested_query())
        assert has_subquery_form(Apply(
            ScanTable("B", "b"),
            Subquery(ScanTable("R", "r"), col("r.K") == col("b.K"),
                     item=col("r.Y")),
        ))
        assert not has_subquery_form(ScanTable("B", "b"))

    def test_module_level_execute(self, db):
        result = execute(nested_query(), db.catalog, "gmdj")
        assert len(result) == 2


class TestProfile:
    def test_profile_report_fields(self, db):
        report = db.profile(nested_query(), QueryOptions("gmdj"))
        assert report.strategy == "gmdj"
        assert report.row_count == 2
        assert report.elapsed_seconds >= 0
        assert report.pages_read > 0

    def test_profile_counters_isolated(self, db):
        first = db.profile(nested_query(), QueryOptions("gmdj"))
        second = db.profile(nested_query(), QueryOptions("gmdj"))
        assert first.counters["pages_read"] == second.counters["pages_read"]

    def test_summary_string(self, db):
        text = db.profile(nested_query(), QueryOptions("gmdj")).summary()
        assert "gmdj" in text and "rows=" in text

    def test_total_work_positive(self, db):
        assert db.profile(nested_query(), QueryOptions("naive")).total_work > 0

    def test_module_level_profile(self, db):
        report = profile(nested_query(), db.catalog, "native")
        assert report.result is not None


class TestExplain:
    def test_explain_optimized_mentions_gmdj(self, db):
        text = db.explain(nested_query())
        assert "GMDJ" in text or "SelectGMDJ" in text

    def test_explain_plain_strategy_shows_nested(self, db):
        text = db.explain(nested_query(), QueryOptions("naive"))
        assert "NestedSelect" in text

    def test_explain_gmdj(self, db):
        text = db.explain(nested_query(), QueryOptions("gmdj"))
        assert "GMDJ" in text

    def test_explain_unknown_strategy(self, db):
        with pytest.raises(PlanError):
            db.explain(nested_query(), QueryOptions("nope"))


class TestSQLIntegration:
    def test_execute_sql(self, db):
        result = db.execute_sql(
            "SELECT b.K FROM B b WHERE EXISTS "
            "(SELECT * FROM R r WHERE r.K = b.K)"
        )
        assert sorted(row[0] for row in result.rows) == [0, 2]

    def test_execute_sql_strategy(self, db):
        sql = ("SELECT b.K FROM B b WHERE b.X > "
               "(SELECT AVG(r.Y) FROM R r WHERE r.K = b.K)")
        for strategy in ("naive", "unnest_join", "gmdj_optimized"):
            assert sorted(
                row[0] for row in db.execute_sql(sql, QueryOptions(strategy)).rows
            ) == [2]

    def test_profile_sql(self, db):
        report = db.profile_sql("SELECT K FROM B WHERE K > 1")
        assert report.row_count == 2

    def test_sql_bind_error(self, db):
        with pytest.raises(BindError):
            db.execute_sql("SELECT * FROM nonexistent")

    def test_execute_returns_the_result(self, db):
        assert len(execute(nested_query(), db.catalog, "gmdj")) == 2
