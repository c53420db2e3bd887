"""Ablation D — invariant-block reuse (Rao & Ross, generalized by GMDJs).

The paper names "the reuse of invariants [23]" as one of the subquery
optimizations the GMDJ framework generalizes.  An *uncorrelated* subquery
block (θ references only the detail relation) has the same range for
every base tuple; the evaluator computes its aggregates once and shares
the state.  This ablation measures the effect on a workload mixing one
correlated and one uncorrelated subquery.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import scaled, write_report
from repro.algebra.expressions import col, lit
from repro.algebra.nested import Exists, NestedSelect, Subquery
from repro.algebra.operators import ScanTable
from repro.data.tpcr import generate_customer, generate_orders
from repro.engine import execute
from repro.gmdj.evaluate import invariant_sharing
from repro.storage import Catalog, collect

OUTER = scaled(400)
INNER = scaled(8000)
_catalog = None


def _setup() -> Catalog:
    global _catalog
    if _catalog is None:
        catalog = Catalog()
        catalog.create_table("customer", generate_customer(OUTER, seed=77))
        catalog.create_table(
            "orders", generate_orders(INNER, OUTER, seed=77)
        )
        _catalog = catalog
    return _catalog


def query():
    correlated = Exists(Subquery(
        ScanTable("orders", "o1"),
        (col("o1.custkey") == col("c.custkey"))
        & (col("o1.totalprice") > lit(200000.0)),
    ))
    uncorrelated = Exists(Subquery(
        ScanTable("orders", "o2"),
        col("o2.totalprice") > lit(449000.0),
    ))
    return NestedSelect(ScanTable("customer", "c"),
                        correlated & uncorrelated)


@pytest.mark.parametrize("sharing", (True, False),
                         ids=("shared", "per-tuple"))
def test_invariant_sharing(benchmark, sharing):
    catalog = _setup()
    runner = partial(execute, query(), catalog, "gmdj")

    def run():
        with invariant_sharing(sharing):
            return runner()

    baseline = execute(query(), catalog, "naive")
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.bag_equal(baseline)


def test_invariant_ablation_report(benchmark):
    catalog = _setup()
    runner = partial(execute, query(), catalog, "gmdj")

    def run():
        measurements = {}
        for sharing in (True, False):
            with invariant_sharing(sharing), collect() as stats:
                runner()
            measurements[sharing] = stats.snapshot()
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    shared = measurements[True]
    per_tuple = measurements[False]
    lines = [
        "== Ablation D: invariant-block reuse (uncorrelated subquery) ==",
        f"aggregate updates: shared={shared['aggregate_updates']} "
        f"per-tuple={per_tuple['aggregate_updates']}",
        f"predicate evals:   shared={shared['predicate_evals']} "
        f"per-tuple={per_tuple['predicate_evals']}",
    ]
    text = "\n".join(lines)
    print(text)
    write_report("ablation_invariants", text)
    # Sharing collapses the uncorrelated block's work from |B| x matches
    # to just matches.
    assert shared["predicate_evals"] * 10 < per_tuple["predicate_evals"]