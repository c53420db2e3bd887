"""Tests for the APPLY operator and its GMDJ translation."""

import pytest

from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import col, lit
from repro.algebra.nested import Apply, Exists, Subquery
from repro.algebra.operators import ScanTable
from repro.errors import CardinalityError, ExpressionError
from repro.gmdj.operator import GMDJ
from repro.storage import Catalog, DataType, Relation
from repro.unnesting.translate import subquery_to_gmdj


@pytest.fixture
def catalog(kv_catalog) -> Catalog:
    return kv_catalog


def sub(item=None, aggregate=None, predicate=None):
    return Subquery(ScanTable("R", "r"),
                    predicate if predicate is not None
                    else col("r.K") == col("b.K"),
                    item=item, aggregate=aggregate)


def gmdjs(plan) -> list[GMDJ]:
    found = [plan] if isinstance(plan, GMDJ) else []
    for child in plan.children():
        found += gmdjs(child)
    return found


class TestApplySemantics:
    def test_aggregate_extends_schema(self, catalog):
        apply = Apply(ScanTable("B", "b"),
                      sub(aggregate=agg("sum", col("r.Y"), "s")),
                      output_name="total")
        result = apply.evaluate(catalog)
        assert result.schema.names == ("b.K", "b.X", "total")
        values = {row[0]: row[2] for row in result.rows}
        assert values[0] == 11 and values[3] is None

    def test_scalar(self, catalog):
        unique = sub(item=col("r.Y"),
                     predicate=(col("r.K") == col("b.K"))
                     & (col("r.Y") == lit(4)))
        apply = Apply(ScanTable("B", "b"), unique, output_name="v")
        assert apply.subquery.aggregate.function == "single"
        values = {row[0]: row[2] for row in apply.evaluate(catalog).rows}
        assert values[1] == 4 and values[0] is None

    def test_scalar_cardinality_error(self, catalog):
        apply = Apply(ScanTable("B", "b"), sub(item=col("r.Y")))
        with pytest.raises(CardinalityError):
            apply.evaluate(catalog)

    def test_scalar_needs_item(self):
        with pytest.raises(ExpressionError):
            Apply(ScanTable("B", "b"), sub())

    def test_output_preserved_for_duplicates(self):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(1, 1), (1, 1)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], [(1, 2)],
        ))
        apply = Apply(ScanTable("B", "b"), sub(item=col("r.Y")))
        assert apply.evaluate(catalog).rows == [(1, 1, 2), (1, 1, 2)]


class TestApplyToGmdj:
    """An Apply translates to one GMDJ carrying its value column."""

    def test_aggregate_rewrite_equivalent(self, catalog):
        apply = Apply(ScanTable("B", "b"),
                      sub(aggregate=agg("avg", col("r.Y"), "a")),
                      output_name="avgy")
        rewritten = subquery_to_gmdj(apply, catalog)
        assert apply.evaluate(catalog).bag_equal(rewritten.evaluate(catalog))
        assert rewritten.schema(catalog).names == ("b.K", "b.X", "avgy")

    def test_scalar_rewrite_equivalent(self, catalog):
        unique = sub(item=col("r.Y"),
                     predicate=(col("r.K") == col("b.K"))
                     & (col("r.Y") > lit(7)))
        apply = Apply(ScanTable("B", "b"), unique, output_name="v")
        rewritten = subquery_to_gmdj(apply, catalog)
        [gmdj] = gmdjs(rewritten)
        assert [spec.function for spec in gmdj.blocks[0].aggregates] \
            == ["single"]
        assert apply.evaluate(catalog).bag_equal(rewritten.evaluate(catalog))
        with pytest.raises(CardinalityError):
            subquery_to_gmdj(Apply(ScanTable("B", "b"), sub(item=col("r.Y"))),
                             catalog).evaluate(catalog)

    def test_nested_predicate_rewrite_equivalent(self, catalog):
        nested = Subquery(
            ScanTable("R", "r1"),
            (col("r1.K") == col("b.K"))
            & Exists(Subquery(ScanTable("R", "r2"),
                              (col("r2.K") == col("r1.K"))
                              & (col("r2.Y") > col("r1.Y")))),
            aggregate=count_star("n"),
        )
        apply = Apply(ScanTable("B", "b"), nested, output_name="n")
        rewritten = subquery_to_gmdj(apply, catalog)
        # Inner first (Thm 3.2): the EXISTS block's GMDJ is the detail of
        # the Apply's.
        outer, inner = gmdjs(rewritten)
        assert outer.detail is inner
        assert apply.evaluate(catalog).bag_equal(rewritten.evaluate(catalog))

    def test_rewrite_does_fewer_scans(self, catalog):
        from repro.storage import collect

        apply = Apply(ScanTable("B", "b"), sub(aggregate=count_star("n")),
                      output_name="n")
        rewritten = subquery_to_gmdj(apply, catalog)
        with collect() as loop_stats:
            apply.evaluate(catalog)
        with collect() as gmdj_stats:
            rewritten.evaluate(catalog)
        assert gmdj_stats.relation_scans < loop_stats.relation_scans
