"""Tests for memory-bounded (base-chunked) GMDJ evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import col
from repro.algebra.operators import ScanTable
from repro.errors import ConfigurationError, ReproError
from repro.gmdj import detail_scans_required, evaluate_gmdj_chunked
from repro.gmdj import md
from repro.storage import Catalog, DataType, Relation, collect


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER)], [(i,) for i in range(25)],
    ))
    cat.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i % 25, i) for i in range(150)],
    ))
    return cat


def plan():
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              [[count_star("cnt"), agg("sum", col("r.V"), "s")]],
              [col("b.K") == col("r.K")])


class TestEquivalence:
    @pytest.mark.parametrize("budget", [1, 3, 7, 10, 25, 1000])
    def test_matches_in_memory(self, catalog, budget):
        expected = plan().evaluate(catalog)
        chunked = evaluate_gmdj_chunked(plan(), catalog, budget)
        assert expected.bag_equal(chunked)

    def test_invalid_budget(self, catalog):
        with pytest.raises(ConfigurationError):
            evaluate_gmdj_chunked(plan(), catalog, 0)

    def test_invalid_budget_is_both_library_and_value_error(self, catalog):
        # ConfigurationError must stay catchable as either base so old
        # callers (``except ValueError``) and library-wide handlers
        # (``except ReproError``) both keep working.
        with pytest.raises(ValueError):
            evaluate_gmdj_chunked(plan(), catalog, -3)
        with pytest.raises(ReproError):
            evaluate_gmdj_chunked(plan(), catalog, -3)


class TestWellDefinedCost:
    def test_formula(self):
        assert detail_scans_required(25, 10) == 3
        assert detail_scans_required(25, 25) == 1
        assert detail_scans_required(0, 5) == 1
        with pytest.raises(ConfigurationError):
            detail_scans_required(10, 0)

    @pytest.mark.parametrize("budget,expected_scans", [(10, 3), (5, 5),
                                                       (25, 1)])
    def test_measured_scans_match_formula(self, catalog, budget,
                                          expected_scans):
        with collect() as stats:
            evaluate_gmdj_chunked(plan(), catalog, budget)
        # One scan of B plus the predicted number of detail scans.
        assert stats.relation_scans == 1 + expected_scans
        # Detail tuples scanned scale exactly with the formula.
        assert stats.tuples_scanned == 25 + 150 * expected_scans


class TestChunkedProperty:
    @settings(max_examples=40, deadline=None)
    @given(budget=st.integers(min_value=1, max_value=30),
           base_size=st.integers(min_value=0, max_value=20))
    def test_any_budget_exact(self, budget, base_size):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(i,) for i in range(base_size)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(i % 7, i) for i in range(40)],
        ))
        expected = plan().evaluate(catalog)
        chunked = evaluate_gmdj_chunked(plan(), catalog, budget)
        assert expected.bag_equal(chunked)
