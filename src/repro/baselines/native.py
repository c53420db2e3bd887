"""The nested-loop baselines: the paper's naive loop and a conventional
engine's smart loop, both on :class:`~repro.algebra.nested.LoopEvaluator`.

The naive approach (Section 1) re-evaluates every subquery for every
outer tuple with a full scan of its source: it never stops an inner scan
early, which is the cost the paper measures for the "native" nested-loop
mode on comparison-predicate queries (Figure 3).

The paper's experiments ran the nested queries in a commercial DBMS's
native mode and observed three behaviours (Section 5):

* a **specialized EXISTS algorithm** — stop scanning the inner block at the
  first match (good on Figure 2's workload when indexes help, very poor
  without indexes on Figure 5);
* a **smart nested loop for ALL** — discard the outer tuple as soon as one
  inner tuple falsifies the comparison, "essentially a form of tuple
  completion" (the reason native wins the basic-GMDJ on Figure 4);
* **index-assisted correlation lookups** — equality correlation predicates
  probe an index on the inner table instead of scanning it.

:func:`evaluate_native` reproduces exactly those three behaviours.
Whether indexes are used depends on what the catalog actually holds, so
dropping indexes (as the Figure 5 experiment does) degrades this baseline
the same way it degraded the paper's target DBMS.
"""

from __future__ import annotations

from repro.algebra.nested import LoopEvaluator
from repro.algebra.operators import Operator
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation


def evaluate_naive(query: Operator, catalog: Catalog) -> Relation:
    """Evaluate with exhaustive tuple-iteration semantics (no smarts)."""
    return LoopEvaluator(catalog).evaluate(query)


def evaluate_native(query: Operator, catalog: Catalog,
                    use_indexes: bool = True) -> Relation:
    """Evaluate with early termination and (optionally) index probes."""
    evaluator = LoopEvaluator(catalog, early_exit=True, use_indexes=use_indexes)
    return evaluator.evaluate(query)
