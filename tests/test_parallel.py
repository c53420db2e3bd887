"""Tests for partitioned (parallel/distributed) GMDJ evaluation."""

import pytest

from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import col
from repro.algebra.operators import ScanTable
from repro.errors import ConfigurationError, ReproError
from repro.gmdj import evaluate_gmdj_partitioned, md, partition_rows
from repro.storage import Catalog, DataType, Relation


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER)], [(i,) for i in range(12)],
    ))
    cat.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i % 12, i if i % 7 else None) for i in range(90)],
    ))
    return cat


def full_gmdj():
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              [[count_star("cnt"), agg("sum", col("r.V"), "s"),
                agg("avg", col("r.V"), "a"), agg("min", col("r.V"), "lo"),
                agg("max", col("r.V"), "hi")]],
              [col("b.K") == col("r.K")])


class TestPartitionRows:
    def test_fragments_cover_relation(self, catalog):
        relation = catalog.table("R")
        fragments = partition_rows(relation, 4)
        assert sum(len(f) for f in fragments) == len(relation)

    def test_more_partitions_than_rows(self):
        relation = Relation.from_columns([("x", DataType.INTEGER)], [(1,)])
        fragments = partition_rows(relation, 5)
        assert sum(len(f) for f in fragments) == 1

    def test_empty_relation(self):
        relation = Relation.from_columns([("x", DataType.INTEGER)], [])
        assert sum(len(f) for f in partition_rows(relation, 3)) == 0

    def test_invalid_partition_count(self, catalog):
        with pytest.raises(ConfigurationError):
            partition_rows(catalog.table("R"), 0)

    def test_invalid_count_is_both_library_and_value_error(self, catalog):
        # Dual inheritance contract: old ``except ValueError`` callers
        # and library-wide ``except ReproError`` handlers both catch it.
        with pytest.raises(ValueError):
            partition_rows(catalog.table("R"), -1)
        with pytest.raises(ReproError):
            partition_rows(catalog.table("R"), -1)

    def test_evaluate_validates_partitions_up_front(self, catalog):
        with pytest.raises(ConfigurationError):
            evaluate_gmdj_partitioned(full_gmdj(), catalog, 0)


class TestPartitionedEdgeCases:
    """Rows, order, AVG reconstruction and scan volume at every
    (kernel x partition count x worker count) point live in
    ``test_physical_lattice``; what stays here is the degenerate input."""

    def test_empty_detail(self, catalog):
        catalog.replace_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)], [],
        ))
        single = full_gmdj().evaluate(catalog)
        partitioned = evaluate_gmdj_partitioned(full_gmdj(), catalog, 4)
        assert single.bag_equal(partitioned)
