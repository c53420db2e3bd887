"""Query execution: :func:`execute` is the one function that turns a
query into rows — a baseline's evaluator, or the plan walk
(:func:`repro.gmdj.physical.evaluate_plan`) over the tree
:func:`~repro.engine.planner.plan_for` names.  Every unprofiled run
reaches it through :func:`repro.engine.mqo.execute_batch`, which owns
the result cache and the share groups; :func:`profile` wraps it in an
IOStats collection, a timer and, under ``trace``, a tracer."""

from __future__ import annotations

import time
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.algebra.operators import Operator
from repro.baselines.join_unnest import evaluate_join_unnest
from repro.baselines.native import evaluate_naive, evaluate_native
from repro.engine.cache import PlanCache
from repro.engine.options import QueryOptions
from repro.engine.planner import _is_plain, plan_for
from repro.engine.reports import ExecutionReport
from repro.gmdj.parallel import DetailPartitions
from repro.gmdj.physical import (
    NodeHook,
    evaluate_plan,
    select_fragmenter,
    select_kernel,
)
from repro.obs.tracer import Tracer, span, tracing, tracing_enabled
from repro.storage.attempt import stored_read
from repro.storage.catalog import Catalog
from repro.storage.iostats import collect
from repro.storage.relation import Relation

if TYPE_CHECKING:
    from repro.engine.rollup import RollupStore

#: The baselines evaluate the query as bound, each with its own evaluator.
_BASELINES: dict[str, Callable[[Operator, Catalog], Relation]] = {
    "naive": evaluate_naive,
    "native": partial(evaluate_native, use_indexes=True),
    "native_noindex": partial(evaluate_native, use_indexes=False),
    "unnest_join": partial(evaluate_join_unnest, use_indexes=True),
    "unnest_join_noindex": partial(evaluate_join_unnest, use_indexes=False),
}


def _detached(result: Relation, catalog: Catalog) -> Relation:
    """``result`` as it leaves the engine: snapshotted if it is a view of
    a stored table.

    Scan views share the stored row list, so a plan that only scans (a
    bare ``SELECT * FROM t``) evaluates to that very list; what leaves
    the engine must not change under a later ``insert``.
    """
    if any(result.shares_rows(catalog.table(name))
           for name in catalog.table_names()):
        return result.copy()
    return result


def execute(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions | str | None = None,
    *,
    plan: Operator | None = None,
    cache: PlanCache | None = None,
    rollups: RollupStore | None = None,
) -> Relation:
    """Evaluate ``query`` under ``options``; returns the result relation.

    Translation happens inside the call, as the paper's timings include
    rewrite cost (about a third of a cold ``small_query`` op: DESIGN.md
    §5, "The per-query constant") — unless ``cache`` holds it (under
    ``use_cache``) or ``plan`` is what :func:`plan_for` returned for
    ``query`` already (a batch plans every member).  ``rollups`` hooks
    the rollup store around every GMDJ node under ``rollup="subsume"``.

    The run is one ``query`` span naming the strategy (``plain`` when a
    GMDJ strategy had nothing to translate) and, for GMDJ runs, the
    kernel and fragmenter.  The relation returned holds its row list: a
    column-backed result becomes tuples here, once, inside the call —
    whoever times the call times the whole query.
    """
    options = QueryOptions.of(options).canonical()
    strategy = options.strategy
    physical: dict[str, str] = {}
    baseline = _BASELINES.get(strategy)
    fragmenter: DetailPartitions | None = None
    hook: NodeHook | None = None
    if baseline is None and _is_plain(query):
        # Nothing to translate, but the same walk: under the numpy
        # kernel the flat operators take their array forms.
        strategy, plan = "plain", query
    elif baseline is None:
        physical["kernel"] = options.kernel()
        if options.fragmenter() is not None:
            physical["fragmenter"] = options.fragmenter()
        fragmenter = select_fragmenter(options.partitions, options.workers)
        if rollups is not None and options.rollup == "subsume":
            hook = rollups.node_hook(catalog)
    with span("query", kind="query", strategy=strategy, **physical):
        if baseline is not None:
            stored_read()
            result = baseline(query, catalog)
        else:
            if plan is None:
                plan = plan_for(query, catalog, options.strategy,
                                cache if options.use_cache else None)
            result = evaluate_plan(plan, catalog,
                                   select_kernel(options.backend),
                                   fragmenter, hook)
        result.rows  # the one transposition of a column-backed result
    return _detached(result, catalog)


def profile(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions | str | None = None,
    *,
    cache: PlanCache | None = None,
    rollups: RollupStore | None = None,
) -> ExecutionReport:
    """Evaluate ``query`` as :func:`execute` does and capture wall-clock
    time and work counters.

    Under ``QueryOptions(trace=True)`` a tracer is installed (unless one
    is already active) and its finished span tree lands on the report —
    what EXPLAIN ANALYZE consumes.  The ``collect()`` swap happens
    *outside* the traced region so every span snapshots the same ambient
    stats object it diffs against.
    """
    options = QueryOptions.of(options)
    tracer = Tracer() if options.trace and not tracing_enabled() else None
    with collect() as stats:
        started = time.perf_counter()
        with tracing(tracer) if tracer is not None else nullcontext():
            result = execute(query, catalog, options, cache=cache,
                             rollups=rollups)
        elapsed = time.perf_counter() - started
    return ExecutionReport(
        strategy=options.strategy,
        elapsed_seconds=elapsed,
        counters=stats.snapshot(),
        result=result,
        trace=None if tracer is None else tracer.trace(),
        options=options,
    )
