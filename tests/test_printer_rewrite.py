"""Tests for plan printing and generic tree rewriting."""

import dataclasses
import sys

import repro.algebra.rewrite as rewrite
from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import count_star
from repro.algebra.expressions import col, lit
from repro.algebra.operators import (
    GroupBy,
    Join,
    Project,
    ScanTable,
    Select,
    TableValue,
    Union,
)
from repro.algebra.printer import explain
from repro.algebra.rewrite import (
    map_children,
    plan_fingerprint,
    requalify_expression,
    transform_bottom_up,
)
from repro.gmdj import md
from repro.storage import DataType, Relation


class TestExplain:
    def test_scan_line(self):
        assert explain(ScanTable("Flow", "F")) == "Scan Flow -> F"

    def test_indentation(self):
        plan = Select(ScanTable("T"), col("T.x") > lit(1))
        lines = explain(plan).splitlines()
        assert lines[0].startswith("Select")
        assert lines[1].startswith("  Scan")

    def test_join_renders_both_children(self):
        plan = Join(ScanTable("A"), ScanTable("B"), col("A.x") == col("B.x"))
        text = explain(plan)
        assert "Scan A" in text and "Scan B" in text

    def test_gmdj_renders_blocks(self):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("cnt")]], [col("b.K") == col("r.K")])
        text = explain(plan)
        assert "theta1" in text and "base:" in text and "detail:" in text

    def test_table_value(self):
        relation = Relation.from_columns([("x", DataType.INTEGER)], [(1,)])
        assert "1 rows" in explain(TableValue(relation))

    def test_groupby_and_union(self):
        plan = Union(
            GroupBy(ScanTable("T"), ["T.k"], [count_star("c")]),
            Project(ScanTable("T"), ["T.k", (lit(0), "c")]),
        )
        text = explain(plan)
        assert "GroupBy" in text and "Union ALL" in text


class TestMapChildren:
    def test_replaces_child(self):
        plan = Select(ScanTable("T"), col("T.x") > lit(1))
        swapped = map_children(plan, lambda _: ScanTable("U"))
        assert swapped.child.table_name == "U"

    def test_identity_returns_same_object(self):
        plan = Select(ScanTable("T"), col("T.x") > lit(1))
        assert map_children(plan, lambda c: c) is plan

    def test_join_children_both_visited(self):
        plan = Join(ScanTable("A"), ScanTable("B"), col("A.x") == col("B.x"))
        seen = []
        map_children(plan, lambda c: seen.append(c) or c)
        assert len(seen) == 2


class TestTransformBottomUp:
    def test_rewrites_leaves_first(self):
        order = []

        def record(node):
            order.append(type(node).__name__)
            return node

        plan = Select(ScanTable("T"), col("T.x") > lit(1))
        transform_bottom_up(plan, record)
        assert order == ["ScanTable", "Select"]

    def test_fixpoint_on_rewritten_node(self):
        # A transform that unwraps nested Selects must run repeatedly.
        inner = Select(Select(ScanTable("T"), col("T.x") > lit(1)),
                       col("T.x") < lit(9))

        def unwrap(node):
            if isinstance(node, Select) and isinstance(node.child, Select):
                return Select(node.child.child,
                              node.child.predicate & node.predicate)
            return node

        result = transform_bottom_up(inner, unwrap)
        assert isinstance(result.child, ScanTable)


class TestFingerprintAndRequalify:
    def test_equal_plans_equal_fingerprints(self):
        a = Select(ScanTable("T"), col("T.x") > lit(1))
        b = Select(ScanTable("T"), col("T.x") > lit(1))
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_different_plans_differ(self):
        a = ScanTable("T", "x")
        b = ScanTable("T", "y")
        assert plan_fingerprint(a) != plan_fingerprint(b)

    def test_requalify_only_touches_target(self):
        expression = (col("a.x") == col("b.x")) & (col("a.y") > lit(1))
        rewritten = requalify_expression(expression, "a", "z")
        assert rewritten.references() == {"z.x", "b.x", "z.y"}

    def test_requalify_arithmetic_and_isnull(self):
        from repro.algebra.expressions import IsNull

        expression = IsNull(col("a.x") + col("c.y"))
        rewritten = requalify_expression(expression, "a", "z")
        assert rewritten.references() == {"z.x", "c.y"}


class TestNoReflectionPerWalk:
    def test_an_op_reads_no_dataclass_fields_in_rewrite(self, monkeypatch):
        # map_children reads each node class's child fields once; a
        # query over classes already seen reflects on none of them.
        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)], [(1,), (2,)])
        db.create_table("R", [("K", DataType.INTEGER)], [(1,)])
        sql = ("SELECT K FROM B b WHERE EXISTS "
               "(SELECT * FROM R r WHERE r.K = b.K)")
        cold = QueryOptions(use_cache=False)
        db.execute_sql(sql, cold)
        reflected, walked = [], []
        fields, child_names = dataclasses.fields, rewrite._child_names

        def counted_fields(obj):
            if sys._getframe(1).f_code.co_filename == rewrite.__file__:
                reflected.append(obj)
            return fields(obj)

        def counted_child_names(cls):
            walked.append(cls)
            return child_names(cls)

        monkeypatch.setattr(dataclasses, "fields", counted_fields)
        monkeypatch.setattr(rewrite, "_child_names", counted_child_names)
        assert db.execute_sql(sql, cold).rows == [(1,)]
        assert walked and reflected == []
