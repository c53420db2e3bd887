"""Workload builders for the paper's experiments (Figures 2–5, Table 1).

Each builder returns ``(catalog, query)`` for one parameter point of one
experiment.  Sizes default to laptop scale but preserve the paper's
outer/inner *ratios* trajectory.  A builder builds exactly the sizes it
is given; scaling up is the benchmark scripts' business.

Paper parameter points:

* Figure 2 — EXISTS: outer 1000 rows, inner 300k/600k/900k/1.2M.
* Figure 3 — aggregate comparison: outer 500→2000 with inner 300k→1.2M.
* Figure 4 — quantified ALL with a ``<>`` key correlation: both tables
  40k/80k/120k/160k.
* Figure 5 — two tree-nested EXISTS over 300k→1.2M with a 1000-row outer
  block, with and without indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import col, lit
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
)
from repro.algebra.aggregates import agg
from repro.algebra.operators import ScanTable
from repro.data.rng import make_rng
from repro.data.tpcr import (
    generate_customer,
    generate_orders,
    generate_part,
)
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.types import DataType


@dataclass
class Workload:
    """One experiment point: a catalog, the nested query, and labels."""

    name: str
    catalog: Catalog
    query: NestedSelect
    params: dict


# -- Figure 2: EXISTS subquery ---------------------------------------------------

FIG2_INNER_SIZES = (6000, 12000, 18000, 24000)
FIG2_OUTER_SIZE = 200


def build_fig2(inner_size: int, outer_size: int = FIG2_OUTER_SIZE,
               indexes: bool = True, seed: int = 11) -> Workload:
    """``σ[∃ orders(custkey = c.custkey ∧ totalprice > P)] customer``."""
    catalog = Catalog()
    catalog.create_table("customer", generate_customer(outer_size, seed))
    catalog.create_table(
        "orders", generate_orders(inner_size, outer_size * 2, seed)
    )
    if indexes:
        catalog.create_hash_index("orders", ["custkey"])
        catalog.create_hash_index("customer", ["custkey"])
    subquery = Subquery(
        ScanTable("orders", "o"),
        (col("o.custkey") == col("c.custkey"))
        & (col("o.totalprice") > lit(250000.0)),
    )
    query = NestedSelect(ScanTable("customer", "c"), Exists(subquery))
    return Workload(
        "fig2_exists", catalog, query,
        {"outer": outer_size, "inner": inner_size, "indexes": indexes},
    )


# -- Figure 3: comparison predicate over an aggregate -----------------------------------

FIG3_POINTS = ((50, 3000), (100, 6000), (150, 9000), (200, 12000))


def build_fig3(outer_size: int, inner_size: int, indexes: bool = True,
               seed: int = 12) -> Workload:
    """``σ[c.acctbal * 50 > (SELECT avg(totalprice) ... correlated)] customer``."""
    catalog = Catalog()
    catalog.create_table("customer", generate_customer(outer_size, seed))
    catalog.create_table(
        "orders", generate_orders(inner_size, outer_size, seed)
    )
    if indexes:
        catalog.create_hash_index("orders", ["custkey"])
    subquery = Subquery(
        ScanTable("orders", "o"),
        col("o.custkey") == col("c.custkey"),
        aggregate=agg("avg", col("o.totalprice"), "avgprice"),
    )
    query = NestedSelect(
        ScanTable("customer", "c"),
        ScalarComparison(">", col("c.acctbal") * lit(50.0), subquery),
    )
    return Workload(
        "fig3_aggcomp", catalog, query,
        {"outer": outer_size, "inner": inner_size, "indexes": indexes},
    )


# -- Figure 4: quantified ALL with a <> key correlation ----------------------------------

FIG4_SIZES = (400, 800, 1200, 1600)


def build_fig4(size: int, seed: int = 13) -> Workload:
    """``σ[p.retailprice >=all π[q.retailprice]σ[q.partkey <> p.partkey] part2] part1``.

    Both tables have ``size`` rows; the ``<>`` correlation defeats hash
    partitioning, which is the whole point of the experiment.
    """
    catalog = Catalog()
    catalog.create_table("part1", generate_part(size, seed))
    part2 = generate_part(size, seed + 1)
    part2.name = "part2"
    catalog.create_table("part2", part2)
    subquery = Subquery(
        ScanTable("part2", "q"),
        col("q.partkey") != col("p.partkey"),
        item=col("q.retailprice"),
    )
    query = NestedSelect(
        ScanTable("part1", "p"),
        QuantifiedComparison(">=", "all", col("p.retailprice"), subquery),
    )
    return Workload("fig4_all", catalog, query, {"size": size})


# -- Figure 5: tree-nested EXISTS predicates ------------------------------------------------

FIG5_INNER_SIZES = (6000, 12000, 18000, 24000)
FIG5_OUTER_SIZE = 200


def build_fig5(inner_size: int, outer_size: int = FIG5_OUTER_SIZE,
               indexes: bool = True, seed: int = 14) -> Workload:
    """Two EXISTS subqueries over the same large table, disjoint filters.

    ``σ[∃ o1(custkey=c ∧ price>HI) ∧ ∃ o2(custkey=c ∧ priority='1-URGENT')]``
    — the shape where conventional unnesting needs two large joins that
    cannot be combined, while coalescing folds both subqueries into one
    GMDJ scan.
    """
    catalog = Catalog()
    catalog.create_table("customer", generate_customer(outer_size, seed))
    catalog.create_table(
        "orders", generate_orders(inner_size, outer_size * 2, seed)
    )
    if indexes:
        catalog.create_hash_index("orders", ["custkey"])
        catalog.create_hash_index("customer", ["custkey"])
    first = Subquery(
        ScanTable("orders", "o1"),
        (col("o1.custkey") == col("c.custkey"))
        & (col("o1.totalprice") > lit(300000.0)),
    )
    second = Subquery(
        ScanTable("orders", "o2"),
        (col("o2.custkey") == col("c.custkey"))
        & (col("o2.orderpriority") == lit("1-URGENT")),
    )
    query = NestedSelect(
        ScanTable("customer", "c"), Exists(first) & Exists(second)
    )
    return Workload(
        "fig5_tree_exists", catalog, query,
        {"outer": outer_size, "inner": inner_size, "indexes": indexes},
    )


# -- Table 1: one workload per rewrite rule ------------------------------------------------

def build_table1_catalog(outer: int = 120, inner: int = 2400,
                         seed: int = 15, nulls: bool = True) -> Catalog:
    """A generic two-table catalog exercising every Table 1 rule.

    ``B(K, X, RK)`` and ``R(RID, K, Y)``: ``K`` is the many-to-one
    correlation key, ``RID`` is unique in R and ``B.RK`` references it (so
    the plain scalar-comparison rule sees at most one inner row, the form
    Table 1 row 1 is defined for).  Roughly 8% NULLs in X and Y when
    ``nulls`` is set, so the three-valued-logic corners are live.
    """
    rng = make_rng(seed, "table1")

    def maybe_null(value):
        if nulls and rng.random() < 0.08:
            return None
        return value

    catalog = Catalog()
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER),
         ("RK", DataType.INTEGER)],
        [(i, maybe_null(rng.randint(0, 50)), rng.randrange(inner))
         for i in range(outer)],
    ))
    catalog.create_table("R", Relation.from_columns(
        [("RID", DataType.INTEGER), ("K", DataType.INTEGER),
         ("Y", DataType.INTEGER)],
        [(rid, rng.randrange(outer), maybe_null(rng.randint(0, 50)))
         for rid in range(inner)],
    ))
    catalog.create_hash_index("R", ["K"])
    catalog.create_hash_index("R", ["RID"])
    return catalog


def table1_queries() -> dict[str, NestedSelect]:
    """One nested query per Table 1 row (over the build_table1_catalog)."""
    correlated = col("r.K") == col("b.K")

    def sub(item=None, aggregate=None, predicate=None):
        return Subquery(ScanTable("R", "r"), predicate or correlated,
                        item=item, aggregate=aggregate)

    scalar_unique = Subquery(
        # Correlate on R's unique key so the scalar block yields at most
        # one row per outer tuple (the form Table 1 row 1 assumes).
        ScanTable("R", "r"),
        col("r.RID") == col("b.RK"),
        item=col("r.Y"),
    )
    return {
        "comparison": NestedSelect(
            ScanTable("B", "b"),
            ScalarComparison("=", col("b.X"), scalar_unique),
        ),
        "agg_comparison": NestedSelect(
            ScanTable("B", "b"),
            ScalarComparison(
                ">", col("b.X"),
                sub(aggregate=agg("avg", col("r.Y"), "avgy")),
            ),
        ),
        "some": NestedSelect(
            ScanTable("B", "b"),
            QuantifiedComparison(">", "some", col("b.X"), sub(item=col("r.Y"))),
        ),
        "all": NestedSelect(
            ScanTable("B", "b"),
            QuantifiedComparison(">", "all", col("b.X"), sub(item=col("r.Y"))),
        ),
        "exists": NestedSelect(ScanTable("B", "b"), Exists(sub())),
        "not_exists": NestedSelect(
            ScanTable("B", "b"), Exists(sub(), negated=True)
        ),
    }


# -- Example 2.3 (coalescing ablation) -------------------------------------------------------

def build_example23(flows: int = 4000, sources: int = 60,
                    seed: int = 16) -> Workload:
    """The three-subquery SourceIP query of Example 2.3."""
    from repro.data.netflow import NetflowConfig, build_netflow_catalog
    from repro.algebra.operators import Project

    config = NetflowConfig(flows=flows, users=sources, seed=seed)
    catalog = build_netflow_catalog(config)
    base = Project(ScanTable("Flow", "F0"), ["F0.SourceIP"], distinct=True)

    def sub(dest: str, alias: str) -> Subquery:
        return Subquery(
            ScanTable("Flow", alias),
            (col(f"{alias}.SourceIP") == col("F0.SourceIP"))
            & (col(f"{alias}.DestIP") == lit(dest)),
        )

    predicate = (
        Exists(sub("167.167.167.0", "F1"), negated=True)
        & Exists(sub("168.168.168.0", "F2"))
        & Exists(sub("169.169.169.0", "F3"), negated=True)
    )
    query = NestedSelect(base, predicate)
    return Workload("example23", catalog, query, {"flows": config.flows})
