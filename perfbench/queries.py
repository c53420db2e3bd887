"""The benchmark's SQL texts, each with its SQLite-oracle equivalent.

``Query.sql`` goes to the engine; ``Query.oracle_sql`` (the same text
unless stated) goes to SQLite.  SQLite has no ``SOME``/``ALL``, so the
quantified forms carry a hand-written equivalent that is exact under
SQL three-valued logic:

* ``x op ALL (SELECT y ... WHERE c)`` is true iff no inner row makes
  ``x op y`` false *or unknown*:
  ``NOT EXISTS (SELECT 1 ... WHERE c AND (x op y) IS NOT TRUE)``;
* ``x op SOME (SELECT y ... WHERE c)`` is true iff some inner row makes
  ``x op y`` true: ``EXISTS (SELECT 1 ... WHERE c AND x op y)``.

A WHERE clause keeps only rows whose predicate is *true*, so the
false/unknown distinction of the quantified predicate itself cannot
change which outer rows survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    name: str
    sql: str
    oracle: str | None = None

    @property
    def oracle_sql(self) -> str:
        return self.oracle or self.sql


# -- scan_heavy / serve_mixed: customer x orders (Figures 2, 3, 5) ------------

def fig2_exists(threshold: int = 430000) -> Query:
    return Query(
        f"fig2_exists_{threshold}",
        "SELECT c.custkey FROM customer c WHERE EXISTS "
        "(SELECT * FROM orders o WHERE o.custkey = c.custkey "
        f"AND o.totalprice > {threshold})",
    )


def fig3_avg(factor: int = 50) -> Query:
    return Query(
        f"fig3_avg_{factor}",
        f"SELECT c.custkey FROM customer c WHERE c.acctbal * {factor} > "
        "(SELECT AVG(o.totalprice) FROM orders o "
        "WHERE o.custkey = c.custkey)",
    )


def fig5_two_exists(threshold: int = 400000) -> Query:
    return Query(
        f"fig5_two_exists_{threshold}",
        "SELECT c.custkey FROM customer c WHERE EXISTS "
        "(SELECT * FROM orders o1 WHERE o1.custkey = c.custkey "
        f"AND o1.totalprice > {threshold}) AND EXISTS "
        "(SELECT * FROM orders o2 WHERE o2.custkey = c.custkey "
        "AND o2.orderpriority = '1-URGENT')",
    )


def scan_heavy_queries() -> list[Query]:
    return [fig2_exists(), fig3_avg(), fig5_two_exists()]


# -- small_query: seven WHERE-subquery shapes + the six Table 1 forms ---------

def where_subquery_shapes() -> list[Query]:
    """The decision-support shapes over customer/orders/part/supplier."""
    return [
        Query(
            "exists_big_order",
            "SELECT c.custkey FROM customer c WHERE EXISTS "
            "(SELECT * FROM orders o WHERE o.custkey = c.custkey AND "
            "o.totalprice > 350000)",
        ),
        Query(
            "not_exists_urgent",
            "SELECT c.custkey FROM customer c WHERE NOT EXISTS "
            "(SELECT * FROM orders o WHERE o.custkey = c.custkey AND "
            "o.orderpriority = '1-URGENT')",
        ),
        Query(
            "above_segment_avg",
            "SELECT c.custkey FROM customer c WHERE c.acctbal > "
            "(SELECT AVG(d.acctbal) FROM customer d WHERE "
            "d.mktsegment = c.mktsegment)",
        ),
        Query(
            "brand_price_leader",
            "SELECT p.partkey FROM part p WHERE p.retailprice >= ALL "
            "(SELECT q.retailprice FROM part q WHERE q.brand = p.brand)",
            "SELECT p.partkey FROM part p WHERE NOT EXISTS "
            "(SELECT 1 FROM part q WHERE q.brand = p.brand AND "
            "(p.retailprice >= q.retailprice) IS NOT TRUE)",
        ),
        Query(
            "nations_with_rich_customers",
            "SELECT s.suppkey FROM supplier s WHERE s.nationkey IN "
            "(SELECT c.nationkey FROM customer c WHERE c.acctbal > 9000)",
        ),
        Query(
            "repeat_urgent_buyers",
            "SELECT c.custkey FROM customer c WHERE 2 <= "
            "(SELECT COUNT(*) FROM orders o WHERE o.custkey = c.custkey "
            "AND o.orderpriority = '1-URGENT')",
        ),
        Query(
            "distinct_priorities",
            "SELECT c.custkey FROM customer c WHERE 3 <= "
            "(SELECT COUNT(DISTINCT o.orderpriority) FROM orders o WHERE "
            "o.custkey = c.custkey)",
        ),
    ]


def table1_forms() -> list[Query]:
    """One query per row of the paper's Table 1, over ``B``/``R``."""
    correlated = "FROM R r WHERE r.K = b.K"
    return [
        Query(
            "t1_comparison",
            "SELECT b.K FROM B b WHERE b.X = "
            "(SELECT r.Y FROM R r WHERE r.RID = b.RK)",
        ),
        Query(
            "t1_agg_comparison",
            f"SELECT b.K FROM B b WHERE b.X > (SELECT AVG(r.Y) {correlated})",
        ),
        Query(
            "t1_some",
            f"SELECT b.K FROM B b WHERE b.X > SOME (SELECT r.Y {correlated})",
            f"SELECT b.K FROM B b WHERE EXISTS (SELECT 1 {correlated} "
            "AND b.X > r.Y)",
        ),
        Query(
            "t1_all",
            f"SELECT b.K FROM B b WHERE b.X > ALL (SELECT r.Y {correlated})",
            f"SELECT b.K FROM B b WHERE NOT EXISTS (SELECT 1 {correlated} "
            "AND (b.X > r.Y) IS NOT TRUE)",
        ),
        Query(
            "t1_exists",
            f"SELECT b.K FROM B b WHERE EXISTS (SELECT * {correlated})",
        ),
        Query(
            "t1_not_exists",
            f"SELECT b.K FROM B b WHERE NOT EXISTS (SELECT * {correlated})",
        ),
    ]


def select_list_probe() -> Query:
    """The SELECT-list scalar-subquery shape (the Apply operator).

    Orders of magnitude dearer than the WHERE shapes at the same size,
    so it is timed alone as ``engine.apply_select_list_ms`` and kept out
    of every op mix.
    """
    return Query(
        "order_profile_columns",
        "SELECT c.custkey, "
        "(SELECT COUNT(*) FROM orders o WHERE o.custkey = c.custkey) n, "
        "(SELECT MAX(o2.totalprice) FROM orders o2 WHERE "
        "o2.custkey = c.custkey) top FROM customer c",
    )


# -- completion_all: Figure 4 and its NOT EXISTS twin -------------------------

def completion_queries() -> list[Query]:
    return [
        Query(
            "fig4_ge_all_neq",
            "SELECT p.partkey FROM part1 p WHERE p.retailprice >= ALL "
            "(SELECT q.retailprice FROM part2 q "
            "WHERE q.partkey <> p.partkey)",
            "SELECT p.partkey FROM part1 p WHERE NOT EXISTS "
            "(SELECT 1 FROM part2 q WHERE q.partkey <> p.partkey AND "
            "(p.retailprice >= q.retailprice) IS NOT TRUE)",
        ),
        Query(
            "fig4_not_exists_neq",
            "SELECT p.partkey FROM part1 p WHERE NOT EXISTS "
            "(SELECT * FROM part2 q WHERE q.partkey <> p.partkey "
            "AND q.retailprice > p.retailprice)",
        ),
    ]


# -- batch_mqo: one batch of eight members over B/R ---------------------------

def mqo_batch(seed: int) -> list[Query]:
    """Eight members: 4 dedup-able, 3 distinct-theta, 1 incompatible.

    The four aggregate comparisons share one ``AVG(r.Y)`` block (same
    theta, same aggregate), so coalescing dedups them to a single block;
    the three EXISTS carry distinct theta constants, so they share only
    the scan; ``COUNT(DISTINCT)`` is not decomposable and must stay a
    singleton.  Literals rotate with the seed so no run can be served by
    anything remembered from another.
    """
    rng = random.Random(f"{seed}:mqo")
    correlated = "FROM R r WHERE r.K = b.K"
    members = []
    for op in (">=", "<", ">", "<="):
        shift = rng.randint(-5, 5)
        members.append(Query(
            f"agg_{len(members)}",
            f"SELECT b.K FROM B b WHERE b.X + {shift} {op} "
            f"(SELECT AVG(r.Y) {correlated})",
        ))
    for cut in rng.sample(range(30, 50), 3):
        members.append(Query(
            f"exists_{len(members)}",
            f"SELECT b.K FROM B b WHERE EXISTS (SELECT * {correlated} "
            f"AND r.Y > {cut})",
        ))
    members.append(Query(
        "distinct_singleton",
        f"SELECT b.K FROM B b WHERE {rng.randint(40, 48)} <= "
        f"(SELECT COUNT(DISTINCT r.Y) {correlated})",
    ))
    return members
