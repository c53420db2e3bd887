"""Strategy → plan: how a (possibly nested) query gets evaluated.

The planner exposes the strategies the paper's experiments compare:

``naive``           exhaustive tuple-iteration (nested loop, no smarts);
``native``          a conventional engine's smart nested loop — early
                    termination plus index-assisted correlation lookups;
``native_noindex``  the same with index probes disabled (the Figure 5
                    stability study);
``unnest_join``     conventional join/outer-join unnesting;
``unnest_join_noindex``  the same modelling an engine without indexes
                    (sort-merge instead of indexed joins);
``gmdj``            Algorithm SubqueryToGMDJ, unoptimized;
``gmdj_optimized``  SubqueryToGMDJ + coalescing + completion (Section 4)
                    — the default.

:func:`plan_for` is the one place a strategy name becomes an operator
tree; the executor, MQO share planning, EXPLAIN, ``repro lint`` and the
fuzz oracle all call it, so what is rendered or verified is the tree
that runs.  The five baselines evaluate the query as bound.  The two
GMDJ strategies translate whenever the query holds a subquery form
(:func:`repro.algebra.has_subquery_form` — WHERE and SELECT-list
positions alike) and otherwise evaluate it plainly.  The coalescing-only
and completion-only *ablations* are not strategies: build their plans
with ``subquery_to_gmdj(..., optimize=True, coalesce=..., completion=...)``
and run them, pre-translated, under ``gmdj``.

Orthogonally to the strategy, the :class:`~repro.engine.options.QueryOptions`
pick the physical pipeline every GMDJ node of the translated plan runs
through (:mod:`repro.gmdj.physical`): ``backend`` names the kernel,
``partitions`` / ``workers`` the fragmenter, ``rollup`` hooks the
semantic rollup store around each node — and ``use_cache`` lets a
:class:`~repro.engine.cache.PlanCache` skip re-translation of plans the
database has seen before.
"""

from __future__ import annotations

from repro.algebra.nested import has_subquery_form
from repro.algebra.operators import Operator
from repro.engine.cache import PlanCache
from repro.engine.options import GMDJ_STRATEGIES, STRATEGIES
from repro.errors import PlanError
from repro.gmdj.operator import GMDJ
from repro.storage.catalog import Catalog
from repro.unnesting.translate import subquery_to_gmdj

__all__ = [
    "STRATEGIES",
    "plan_for",
]


def _holds_gmdj(plan: Operator) -> bool:
    """True for a pre-translated plan (a fused SelectGMDJ's child is
    its GMDJ)."""
    return isinstance(plan, GMDJ) or any(
        _holds_gmdj(child) for child in plan.children()
    )


def _is_plain(query: Operator) -> bool:
    """Nothing for a GMDJ strategy to do: no subquery form to translate
    and no GMDJ node to send through the physical pipeline."""
    return not has_subquery_form(query) and not _holds_gmdj(query)


def plan_for(
    query: Operator,
    catalog: Catalog,
    strategy: str,
    cache: PlanCache | None = None,
) -> Operator:
    """The operator tree ``strategy`` executes for ``query``.

    The baselines run the query as bound, so it is returned unchanged —
    as is a plain query (no subquery form, no GMDJ) under the GMDJ
    strategies.  Otherwise ``gmdj`` is Algorithm SubqueryToGMDJ and
    ``gmdj_optimized`` adds the Section 4 optimizations; a pre-translated
    plan passes through the translator untouched, which is how the
    ablation plans run under ``gmdj``.  ``cache`` memoizes translations
    per ``(strategy, normalized query)``; a translation is not kept if
    the catalog was written while it ran.
    """
    if strategy not in STRATEGIES:
        raise PlanError(
            f"unknown strategy {strategy!r}; choose one of {STRATEGIES}"
        )
    if strategy not in GMDJ_STRATEGIES or _is_plain(query):
        return query
    optimize = strategy == "gmdj_optimized"
    if cache is None:
        return subquery_to_gmdj(query, catalog, optimize=optimize)
    key = (strategy, PlanCache.plan_key(query))
    plan = cache.translations.get(key)
    if plan is None:
        generation = catalog.generation
        plan = subquery_to_gmdj(query, catalog, optimize=optimize)
        cache.translations.put(key, plan, catalog, generation)
    return plan
