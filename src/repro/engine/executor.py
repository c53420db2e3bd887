"""Query execution with timing, work accounting, and optional tracing.

:func:`run` is the single execution path: it coerces whatever options
form the caller holds, builds the executor, and (when profiling)
captures wall-clock, counters, and the span tree.  ``execute`` and
``profile`` are thin spellings over it — ``execute`` skips the
counter-collection swap entirely so callers may keep wrapping it in
their own :func:`repro.storage.iostats.collect`.
"""

from __future__ import annotations

import time

from repro.algebra.operators import Operator
from repro.engine.cache import PlanCache
from repro.engine.options import QueryOptions
from repro.engine.planner import make_executor
from repro.engine.reports import ExecutionReport
from repro.engine.rollup import RollupStore
from repro.obs.tracer import Tracer, tracing, tracing_enabled
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.iostats import collect


def _detached(result: Relation, catalog: Catalog) -> Relation:
    """``result`` as it leaves the engine: holding its row list, and
    snapshotted if it is a view of a stored table.

    The runner :func:`make_executor` builds has already turned a
    column-backed result into tuples (inside the run's clock: nothing is
    deferred to the caller), so ``rows`` below is the list itself.  Scan
    views share the stored row list, so a plan that only scans (a bare
    ``SELECT * FROM t``) evaluates to that very list; what leaves the
    engine must not change under a later ``insert``.
    """
    rows = result.rows
    if any(rows is catalog.table(name).rows
           for name in catalog.table_names()):
        return result.copy()
    return result


def run(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions | str | None = None,
    cache: PlanCache | None = None,
    profiled: bool = True,
    rollups: RollupStore | None = None,
    plan: Operator | None = None,
) -> ExecutionReport:
    """Evaluate ``query`` under ``options``; the one execution path.

    With ``profiled`` the run is wrapped in a fresh IOStats collection
    and timed, and ``options.trace`` installs a tracer (unless one is
    already active) whose finished span tree lands on the report — this
    is what EXPLAIN ANALYZE consumes.  The ``collect()`` swap happens
    *outside* the traced region so every span snapshots the same ambient
    stats object it diffs against.  Without ``profiled`` the query just
    runs: no counter swap (the caller may be collecting), no tracer
    installation, and the report carries only the result.  ``plan`` is
    :func:`~repro.engine.planner.make_executor`'s.
    """
    options = QueryOptions.of(options)
    runner = make_executor(query, catalog, options, cache=cache,
                           rollups=rollups, plan=plan)
    if not profiled:
        return ExecutionReport(
            strategy=options.strategy, elapsed_seconds=0.0,
            result=_detached(runner(), catalog), options=options,
        )
    trace_obj = None
    with collect() as stats:
        started = time.perf_counter()
        if options.trace and not tracing_enabled():
            tracer = Tracer()
            with tracing(tracer):
                result = runner()
            trace_obj = tracer.trace()
        else:
            result = runner()
        result = _detached(result, catalog)
        elapsed = time.perf_counter() - started
    return ExecutionReport(
        strategy=options.strategy,
        elapsed_seconds=elapsed,
        counters=stats.snapshot(),
        result=result,
        trace=trace_obj,
        options=options,
    )


def execute(query: Operator, catalog: Catalog,
            options: QueryOptions | str | None = None) -> Relation:
    """Evaluate ``query`` under ``options``; returns the result relation."""
    return run(query, catalog, options, profiled=False).result


def profile(
    query: Operator, catalog: Catalog,
    options: QueryOptions | str | None = None,
    trace: bool = False,
) -> ExecutionReport:
    """Evaluate ``query`` and capture wall-clock time and work counters."""
    options = QueryOptions.of(options)
    if trace:
        options = options.with_trace(True)
    return run(query, catalog, options)
