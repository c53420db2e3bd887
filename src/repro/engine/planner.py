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

from functools import partial
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.rollup import RollupStore

from repro.algebra.apply_op import has_subquery_form
from repro.algebra.operators import Operator
from repro.baselines.join_unnest import evaluate_join_unnest
from repro.baselines.native import evaluate_native
from repro.baselines.nested_loop import evaluate_naive
from repro.engine.cache import PlanCache
from repro.engine.options import GMDJ_STRATEGIES, QueryOptions, STRATEGIES
from repro.errors import PlanError
from repro.gmdj.operator import GMDJ
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.unnesting.translate import subquery_to_gmdj

__all__ = [
    "STRATEGIES",
    "lint_gate",
    "make_executor",
    "plan_for",
]

#: The baselines evaluate the query as bound, each with its own evaluator.
_BASELINES: dict[str, Callable[[Operator, Catalog], Relation]] = {
    "naive": evaluate_naive,
    "native": partial(evaluate_native, use_indexes=True),
    "native_noindex": partial(evaluate_native, use_indexes=False),
    "unnest_join": partial(evaluate_join_unnest, use_indexes=True),
    "unnest_join_noindex": partial(evaluate_join_unnest, use_indexes=False),
}


def lint_gate(plan: Operator, catalog: Catalog, level: str) -> None:
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
    per ``(strategy, normalized query)``.
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
    plan = cache.translation(key)
    if plan is None:
        plan = subquery_to_gmdj(query, catalog, optimize=optimize)
        cache.store_translation(key, plan)
    return plan


def make_executor(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions | str | None = None,
    cache: PlanCache | None = None,
    rollups: RollupStore | None = None,
    plan: Operator | None = None,
) -> Callable[[], Relation]:
    """Return a zero-argument callable that evaluates ``query``.

    Translation-time work (for the GMDJ strategies) happens inside the
    callable as well, matching how the paper's timings include rewrite
    cost (it is negligible; evaluation dominates) — unless ``cache``
    holds the translated plan already.  When tracing is enabled the run
    is wrapped in a ``query`` span carrying the strategy name — or
    ``plain`` when a GMDJ strategy had nothing to translate — and, for
    GMDJ runs, the kernel and fragmenter, so traces attribute all work
    to what actually ran.  The relation it returns holds its row list:
    a column-backed result (the numpy kernel's output, the array-form
    operators above it) becomes tuples here, once, inside the call —
    whoever times the callable times the whole query.

    ``plan`` is what :func:`plan_for` returned for ``query`` under these
    options, when the caller holds it already (a batch plans every
    member to find its share groups — and gates what it translated): a
    GMDJ run then walks it as it is instead of planning again.
    """
    options = QueryOptions.of(options).canonical()
    lint = options.lint
    if lint != "off":
        # Verify the input tree eagerly — this covers the baseline
        # strategies (which execute the query as-is); the GMDJ
        # strategies additionally verify their translated plan inside
        # the runner.
        lint_gate(query, catalog, lint)
    strategy = options.strategy
    physical: dict[str, str] = {}
    runner: Callable[[], Relation]
    if strategy in _BASELINES:
        runner = partial(_BASELINES[strategy], query, catalog)
    elif _is_plain(query):
        # Nothing to translate, but the same walk: under the numpy
        # kernel the flat operators take their array forms.
        from repro.gmdj.physical import evaluate_plan, select_kernel

        strategy = "plain"
        runner = partial(evaluate_plan, query, catalog,
                         select_kernel(options.backend))
    else:
        physical["kernel"] = options.kernel()
        fragmenter = options.fragmenter()
        if fragmenter is not None:
            physical["fragmenter"] = fragmenter
        runner = _gmdj_runner(query, catalog, options, lint, cache, rollups,
                              plan)

    def traced() -> Relation:
        from repro.obs.tracer import span

        with span("query", kind="query", strategy=strategy, **physical):
            result = runner()
            result.rows  # the one transposition of a column-backed result
            return result

    return traced


def _gmdj_runner(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions,
    lint: str,
    cache: PlanCache | None,
    rollups: RollupStore | None,
    planned: Operator | None = None,
) -> Callable[[], Relation]:
    """Build the runner for a GMDJ strategy: :func:`plan_for`, then walk
    the plan through the one physical pipeline the options select.

    With ``lint`` active the translated plan passes through the static
    verifier before evaluation — *after* any cache retrieval, since the
    translation cache is shared across options objects and a cached
    plan may never have been linted.  A plan handed in (``planned``)
    was built, and gated, by the caller under these same options.
    """
    from repro.gmdj.physical import (
        evaluate_plan,
        select_fragmenter,
        select_kernel,
    )

    kernel = select_kernel(options.backend)
    fragmenter = select_fragmenter(options.partitions, options.workers)
    hook = None
    if rollups is not None and options.rollup in ("exact", "subsume"):
        hook = rollups.node_hook(catalog, options.rollup == "subsume")
    translations = cache if options.use_cache else None

    def run() -> Relation:
        plan = planned
        if plan is None:
            plan = plan_for(query, catalog, options.strategy, translations)
            if lint != "off":
                lint_gate(plan, catalog, lint)
        return evaluate_plan(plan, catalog, kernel, fragmenter, hook)

    return run
