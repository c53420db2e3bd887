"""Strategy selection: how a (possibly nested) query gets evaluated.

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
``gmdj_coalesce``   SubqueryToGMDJ + coalescing only (ablation);
``gmdj_completion`` SubqueryToGMDJ + completion only (ablation);
``gmdj_optimized``  SubqueryToGMDJ + coalescing + completion (Section 4);
``cost_based``      whichever of the above the static cost model picks;
``auto``            gmdj_optimized for nested queries, plain evaluation
                    otherwise.

Orthogonally to the strategy, the :class:`~repro.engine.options.QueryOptions`
pick the physical pipeline every GMDJ node of the translated plan runs
through (:mod:`repro.gmdj.physical`): ``backend`` / ``chunk_size`` name
the kernel, ``chunk_budget`` or ``partitions`` / ``workers`` the
fragmenter, ``rollup`` hooks the semantic rollup store around each node —
and ``use_cache`` lets a :class:`~repro.engine.cache.PlanCache` skip
re-translation of plans the database has seen before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.rollup import RollupStore

from repro.algebra.nested import NestedSelect
from repro.algebra.operators import Operator
from repro.algebra.rewrite import map_children
from repro.baselines.join_unnest import evaluate_join_unnest
from repro.baselines.native import evaluate_native
from repro.baselines.nested_loop import evaluate_naive
from repro.engine.cache import PlanCache
from repro.engine.options import QueryOptions, STRATEGIES
from repro.errors import PlanError
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.unnesting.translate import subquery_to_gmdj

__all__ = [
    "STRATEGIES",
    "contains_nested_select",
    "make_executor",
]

#: Translation flags per GMDJ strategy, also the translation-cache key
#: component (strategy name alone would alias distinct plans).
_TRANSLATION_FLAGS = {
    "gmdj": dict(optimize=False),
    "gmdj_coalesce": dict(optimize=True, coalesce=True, completion=False),
    "gmdj_completion": dict(optimize=True, coalesce=False, completion=True),
    "gmdj_optimized": dict(optimize=True),
}


def _lint_gate(plan: Operator, catalog: Catalog, level: str) -> None:
    """Fail-fast static verification of a plan about to execute.

    Only error-severity diagnostics gate execution (the plan would raise
    or silently diverge from SQL semantics); warnings and advice belong
    to the CLI/EXPLAIN surfaces, not the hot path.
    """
    from repro.lint import lint_plan
    from repro.lint.diagnostics import LintWarning

    report = lint_plan(plan, catalog, advice=False)
    if report.ok:
        return
    rendered = "; ".join(d.render() for d in report.errors)
    if level == "strict":
        from repro.errors import LintError

        raise LintError(
            f"static plan verification failed: {rendered}",
            diagnostics=report.errors,
        )
    import warnings

    warnings.warn(
        f"static plan verification found errors: {rendered}",
        LintWarning, stacklevel=3,
    )


def contains_nested_select(operator: Operator) -> bool:
    """True when the tree holds at least one NestedSelect node."""
    found = False

    def visit(node: Operator) -> Operator:
        nonlocal found
        if isinstance(node, NestedSelect):
            found = True
        map_children(node, lambda child: (visit(child), child)[1])
        return node

    visit(operator)
    return found


def make_executor(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions | str = "auto",
    cache: PlanCache | None = None,
    rollups: RollupStore | None = None,
) -> Callable[[], Relation]:
    """Return a zero-argument callable that evaluates ``query``.

    Translation-time work (for the GMDJ strategies) happens inside the
    callable as well, matching how the paper's timings include rewrite
    cost (it is negligible; evaluation dominates) — unless ``cache``
    holds the translated plan already.  When tracing is enabled the run
    is wrapped in a ``query`` span carrying the resolved strategy name
    (and, for GMDJ strategies, the kernel and fragmenter), so traces
    attribute all work to what actually ran.
    """
    options = QueryOptions.of(options)
    requested = options.strategy
    options = options.canonical()
    if options.lint in ("warn", "strict"):
        # Verify the input tree eagerly — this covers the baseline
        # strategies (which execute the query as-is); the GMDJ
        # strategies additionally verify their translated plan inside
        # the runner (see _translator).
        _lint_gate(query, catalog, options.lint)
    resolved, physical, runner = _resolve_executor(
        query, catalog, options, cache, rollups
    )

    def traced() -> Relation:
        from repro.obs.tracer import span

        with span("query", kind="query", strategy=resolved,
                  requested=requested, **physical):
            return runner()

    return traced


def _translator(
    query: Operator,
    catalog: Catalog,
    strategy: str,
    options: QueryOptions,
    cache: PlanCache | None,
) -> Callable[[], Operator]:
    """A callable producing the translated GMDJ plan, cache-aware.

    With ``options.lint`` active the translated plan passes through the
    static verifier before it is returned for evaluation — *after* any
    cache retrieval, since the translation cache is shared across
    options objects and a cached plan may never have been linted.
    """
    flags = _TRANSLATION_FLAGS[strategy]
    lint = options.lint if options.lint in ("warn", "strict") else None

    def verified(plan: Operator) -> Operator:
        if lint is not None:
            _lint_gate(plan, catalog, lint)
        return plan

    if cache is None or not options.use_cache:
        return lambda: verified(subquery_to_gmdj(query, catalog, **flags))

    key = (strategy, PlanCache.plan_key(query))

    def translate() -> Operator:
        plan = cache.translation(key)
        if plan is None:
            plan = subquery_to_gmdj(query, catalog, **flags)
            cache.store_translation(key, plan)
        return verified(plan)

    return translate


def _gmdj_runner(
    query: Operator,
    catalog: Catalog,
    strategy: str,
    options: QueryOptions,
    cache: PlanCache | None,
    rollups: RollupStore | None = None,
) -> Callable[[], Relation]:
    """Build the runner for a GMDJ strategy: translate, then walk the
    plan through the one physical pipeline the options select."""
    from repro.gmdj.physical import (
        evaluate_plan,
        select_fragmenter,
        select_kernel,
    )

    translate = _translator(query, catalog, strategy, options, cache)
    kernel = select_kernel(options.backend, options.chunk_size)
    fragmenter = select_fragmenter(
        options.chunk_budget, options.partitions, options.workers
    )
    hook = None
    if rollups is not None and options.rollup in ("exact", "subsume"):
        hook = rollups.node_hook(catalog, options.rollup == "subsume")

    return lambda: evaluate_plan(translate(), catalog, kernel, fragmenter,
                                 hook)


def _resolve_executor(
    query: Operator, catalog: Catalog, options: QueryOptions,
    cache: PlanCache | None, rollups: RollupStore | None = None,
) -> tuple[str, dict[str, str], Callable[[], Relation]]:
    """Resolve ``auto``/``cost_based`` and build the raw runner.

    Returns ``(strategy, physical, runner)`` — ``physical`` holds the
    ``kernel`` / ``fragmenter`` query-span attributes of a GMDJ run
    (empty for plain evaluation and the baselines).
    """
    strategy = options.strategy
    if strategy == "auto":
        if not contains_nested_select(query):
            return "plain", {}, lambda: query.evaluate(catalog)
        strategy = "gmdj_optimized"
    if strategy == "cost_based":
        from repro.engine.costmodel import choose_strategy, contains_apply

        if not contains_nested_select(query) and not contains_apply(query):
            return "plain", {}, lambda: query.evaluate(catalog)
        strategy = choose_strategy(query, catalog)
    if strategy == "naive":
        return strategy, {}, lambda: evaluate_naive(query, catalog)
    if strategy == "native":
        return strategy, {}, lambda: evaluate_native(
            query, catalog, use_indexes=True
        )
    if strategy == "native_noindex":
        return strategy, {}, lambda: evaluate_native(
            query, catalog, use_indexes=False
        )
    if strategy == "unnest_join":
        return strategy, {}, lambda: evaluate_join_unnest(
            query, catalog, use_indexes=True
        )
    if strategy == "unnest_join_noindex":
        return strategy, {}, lambda: evaluate_join_unnest(
            query, catalog, use_indexes=False
        )
    if strategy in _TRANSLATION_FLAGS:
        physical = {"kernel": options.kernel()}
        fragmenter = options.fragmenter()
        if fragmenter is not None:
            physical["fragmenter"] = fragmenter
        return strategy, physical, _gmdj_runner(
            query, catalog, strategy, options, cache, rollups
        )
    raise PlanError(
        f"unknown strategy {strategy!r}; choose one of {STRATEGIES}"
    )
