"""The benchmark's own seeded data generator (stdlib only).

Every table is a :class:`Table` of plain Python rows, so the same rows
feed both the engine (``Database.create_table``) and the SQLite oracle.
Sizes are fixed by the workload; only the *values* depend on the seed,
and every distribution is uniform over a fixed range so that the work a
query does (selectivity, group sizes) is the same from seed to seed up
to sampling noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
NATIONS = 25


@dataclass
class Table:
    """One generated table: name, ``(column, type)`` pairs, rows."""

    name: str
    columns: list[tuple[str, str]]  # type is "integer" | "float" | "string"
    rows: list[tuple]


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def customer(count: int, seed: int) -> Table:
    rng = _rng(seed, "customer")
    rows = [
        (key, f"Customer#{key:09d}", rng.randrange(NATIONS),
         round(rng.uniform(-999.99, 9999.99), 2), rng.choice(SEGMENTS))
        for key in range(1, count + 1)
    ]
    return Table("customer", [
        ("custkey", "integer"), ("name", "string"), ("nationkey", "integer"),
        ("acctbal", "float"), ("mktsegment", "string"),
    ], rows)


def orders(count: int, customers: int, seed: int) -> Table:
    """Orders whose ``custkey`` ranges over ``1..customers``.

    Callers pass twice the customer count where half the keys should
    dangle (the Figure 2/5 shape: not every order has a customer row).
    """
    rng = _rng(seed, "orders")
    rows = [
        (key, rng.randint(1, customers),
         round(rng.uniform(850.0, 450000.0), 2), rng.randint(0, 2400),
         rng.choice(PRIORITIES))
        for key in range(1, count + 1)
    ]
    return Table("orders", [
        ("orderkey", "integer"), ("custkey", "integer"),
        ("totalprice", "float"), ("orderdate", "integer"),
        ("orderpriority", "string"),
    ], rows)


def part(count: int, seed: int, name: str = "part",
         leader_every: int = 0) -> Table:
    """Parts priced ``900 + key % 1000 + U(0, 100)``.

    With ``leader_every`` every such key is priced 2,000 higher than any
    ordinary part, so a ``>= ALL`` over another ``part`` table has a
    non-empty answer (about ``count / leader_every`` rows) on every seed.
    """
    rng = _rng(seed, name)
    rows = [
        (key, f"part {key}", rng.choice(BRANDS),
         round(900 + (key % 1000) + rng.uniform(0, 100)
               + (2000 if leader_every and key % leader_every == 0 else 0),
               2),
         rng.randint(1, 50))
        for key in range(1, count + 1)
    ]
    return Table(name, [
        ("partkey", "integer"), ("name", "string"), ("brand", "string"),
        ("retailprice", "float"), ("size", "integer"),
    ], rows)


def supplier(count: int, seed: int) -> Table:
    rng = _rng(seed, "supplier")
    rows = [
        (key, f"Supplier#{key:09d}", rng.randrange(NATIONS),
         round(rng.uniform(-999.99, 9999.99), 2))
        for key in range(1, count + 1)
    ]
    return Table("supplier", [
        ("suppkey", "integer"), ("name", "string"),
        ("nationkey", "integer"), ("acctbal", "float"),
    ], rows)


def table1_pair(outer: int, inner: int, seed: int,
                null_share: float = 0.08) -> tuple[Table, Table]:
    """The Table-1 ``B(K, X, RK)`` / ``R(RID, K, Y)`` pair.

    ``K`` is the many-to-one correlation key; ``RID`` is unique in R and
    ``B.RK`` references it, so the scalar-comparison form sees at most
    one inner row.  ``null_share`` of X and Y are NULL, which keeps the
    three-valued-logic corners of every Table 1 form live.
    """
    rng = _rng(seed, "table1")

    def maybe_null(value: int) -> int | None:
        return None if rng.random() < null_share else value

    base = Table("B", [
        ("K", "integer"), ("X", "integer"), ("RK", "integer"),
    ], [
        (key, maybe_null(rng.randint(0, 50)), rng.randrange(inner))
        for key in range(outer)
    ])
    detail = Table("R", [
        ("RID", "integer"), ("K", "integer"), ("Y", "integer"),
    ], [
        (rid, rng.randrange(outer), maybe_null(rng.randint(0, 50)))
        for rid in range(inner)
    ])
    return base, detail
