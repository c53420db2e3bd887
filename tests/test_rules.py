"""Unit tests for the Table 1 leaf-mapping rules."""

import pytest

from repro.algebra.aggregates import agg
from repro.algebra.expressions import Column, Comparison, Literal, col
from repro.algebra.nested import (
    Exists,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
)
from repro.algebra.operators import ScanTable
from repro.errors import ExpressionError, TranslationError
from repro.unnesting.rules import NameGenerator, map_leaf

THETA = col("r.K") == col("b.K")


def sub(item=None, aggregate=None):
    return Subquery(ScanTable("R", "r"), THETA, item=item, aggregate=aggregate)


@pytest.fixture
def names() -> NameGenerator:
    return NameGenerator()


class TestExistsRules:
    def test_exists_maps_to_count_gt_zero(self, names):
        mapping = map_leaf(Exists(sub()), THETA, names)
        assert len(mapping.blocks) == 1
        assert mapping.blocks[0].aggregates[0].is_count_star
        assert isinstance(mapping.replacement, Comparison)
        assert mapping.replacement.op == ">"
        assert isinstance(mapping.replacement.right, Literal)
        assert mapping.replacement.right.value == 0

    def test_not_exists_maps_to_count_eq_zero(self, names):
        mapping = map_leaf(Exists(sub(), negated=True), THETA, names)
        assert mapping.replacement.op == "="

    def test_condition_is_inner_theta(self, names):
        mapping = map_leaf(Exists(sub()), THETA, names)
        assert mapping.blocks[0].condition.same_as(THETA)


class TestScalarRules:
    def test_plain_scalar_is_single_over_theta(self, names):
        leaf = ScalarComparison("<", col("b.X"), sub(item=col("r.Y")))
        mapping = map_leaf(leaf, THETA, names)
        # Table 1 row 1 is row 2 with single(y): theta alone selects the
        # rows, and the comparison sits in the replacement condition.
        [spec] = mapping.blocks[0].aggregates
        assert spec.function == "single" and spec.argument.same_as(col("r.Y"))
        assert mapping.blocks[0].condition.same_as(THETA)
        assert mapping.replacement.op == "<"
        assert mapping.replacement.right.reference == spec.output_name

    def test_aggregate_scalar_keeps_comparison_outside(self, names):
        leaf = ScalarComparison(
            ">", col("b.X"), sub(aggregate=agg("sum", col("r.Y"), "s"))
        )
        mapping = map_leaf(leaf, THETA, names)
        # Table 1 row 2: the aggregate is computed over theta only and the
        # comparison happens in the replacement condition.
        assert mapping.blocks[0].condition.same_as(THETA)
        assert mapping.blocks[0].aggregates[0].function == "sum"
        assert mapping.replacement.op == ">"
        assert isinstance(mapping.replacement.right, Column)

    def test_scalar_without_item_rejected(self, names):
        with pytest.raises(ExpressionError):
            ScalarComparison("=", col("b.X"), sub())


class TestQuantifiedRules:
    def test_some_single_count_block(self, names):
        leaf = QuantifiedComparison(">", "some", col("b.X"), sub(col("r.Y")))
        mapping = map_leaf(leaf, THETA, names)
        assert len(mapping.blocks) == 1
        assert mapping.replacement.op == ">"

    def test_all_two_count_blocks(self, names):
        leaf = QuantifiedComparison(">", "all", col("b.X"), sub(col("r.Y")))
        mapping = map_leaf(leaf, THETA, names)
        assert len(mapping.blocks) == 2
        # Restrictive block carries theta AND phi; weak block theta only.
        restrictive = mapping.blocks[0].condition.references()
        weak = mapping.blocks[1].condition.references()
        assert "b.X" in restrictive
        assert "b.X" not in weak
        assert mapping.replacement.op == "="
        assert isinstance(mapping.replacement.left, Column)
        assert isinstance(mapping.replacement.right, Column)

    def test_quantified_without_item_rejected(self, names):
        with pytest.raises(TranslationError):
            map_leaf(QuantifiedComparison(">", "some", col("b.X"), sub()),
                     THETA, names)


class TestNameGenerator:
    def test_fresh_names_unique(self):
        names = NameGenerator()
        generated = {names.fresh("cnt") for _ in range(10)}
        assert len(generated) == 10

    def test_output_names_recorded(self, names):
        leaf = QuantifiedComparison(">", "all", col("b.X"), sub(col("r.Y")))
        mapping = map_leaf(leaf, THETA, names)
        assert len(mapping.output_names) == 2
