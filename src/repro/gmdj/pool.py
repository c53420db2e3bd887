"""Worker-pool scheduler for partitioned GMDJ evaluation.

:mod:`repro.gmdj.parallel` establishes the algebraic decomposition —
``MD(B, R1 ∪ R2, l, θ) = merge(MD(B, R1, l, θ), MD(B, R2, l, θ))`` — and
evaluates fragments sequentially.  This module supplies the actual
concurrency: detail fragments are dispatched to a pool of workers via
:mod:`concurrent.futures`, and each worker returns

* the partial aggregate rows for its fragment (merged columnwise by the
  caller with the same add/min/max machinery the sequential path uses),
* an :class:`~repro.storage.iostats.IOStats` snapshot of the work it
  performed, merged into the coordinator's ambient stats so query-level
  counters are identical to a single-process run, and
* when the coordinator is tracing, a serialized span subtree (the
  ``partition``/``detail_scan`` spans) that is grafted back into the
  parent :class:`~repro.obs.tracer.Tracer` — EXPLAIN ANALYZE and the
  invariant checker (fragments tile the detail, output ≤ |B|) keep
  working unchanged under parallelism.

Executor selection (``choose_executor``):

``process``  a :class:`~concurrent.futures.ProcessPoolExecutor`; true
             multi-core speedup for CPU-bound aggregate scans, at the
             price of pickling the base relation and each fragment.
``thread``   a :class:`~concurrent.futures.ThreadPoolExecutor`; no extra
             processes and no pickling, used for small inputs where
             process start-up would dominate (GIL-serialized, so this is
             an overhead-avoidance fallback, not a speedup path).
``auto``     processes when the detail is large enough
             (``PROCESS_MIN_DETAIL_ROWS``) and the task pickles, threads
             otherwise.

Executor lifetime: by default :func:`map_partitions` creates a pool for
one call and tears it down on exit (batch/CLI behaviour: nothing ever
leaks because nothing outlives the call).  Long-lived processes — the
``repro.serve`` query service above all — instead install a
:class:`PoolRegistry` with :class:`pooling`, and every pooled evaluation
in that context reuses the registry's executors instead of paying pool
start-up per query.  The registry owns those executors and
:meth:`PoolRegistry.shutdown` (reached via ``Database.close()`` and the
server's graceful drain) is the deterministic teardown path.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError, WorkerPoolError
from repro.obs.tracer import Tracer, attach_subtrace, span, tracing, tracing_enabled
from repro.storage.iostats import IOStats, collect
from repro.storage.relation import Relation
from repro.storage.schema import Schema

if TYPE_CHECKING:
    from repro.gmdj.operator import GMDJ

#: Below this many detail rows ``auto`` prefers threads: forking and
#: pickling would cost more than the scan itself.
PROCESS_MIN_DETAIL_ROWS = 20_000

_EXECUTOR_KINDS = ("auto", "thread", "process")

#: The worker count used when none is requested: sequential fragments.
DEFAULT_WORKERS = 1


def resolve_workers(workers: int | None) -> int:
    """Validate an explicit worker count or fall back to the default."""
    if workers is None:
        return DEFAULT_WORKERS
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def choose_executor(kind: str | None, detail_rows: int,
                    task_sample: object) -> str:
    """Resolve ``kind`` (None means ``auto``) to a concrete executor
    kind for this input.

    ``task_sample`` is any object that must survive pickling for the
    process path (the shadow plan and the kernel); unpicklable ones
    degrade to threads rather than failing.
    """
    kind = kind or "auto"
    if kind not in _EXECUTOR_KINDS:
        raise ConfigurationError(
            f"executor must be one of {_EXECUTOR_KINDS}, got {kind!r}"
        )
    if kind != "auto":
        return kind
    if detail_rows < PROCESS_MIN_DETAIL_ROWS:
        return "thread"
    try:
        pickle.dumps(task_sample)
    except Exception:
        return "thread"
    return "process"


@dataclass
class PartitionTask:
    """One picklable unit of pool work: a fragment against the base."""

    number: int
    kernel: Callable[..., Relation]
    base: Relation
    fragment: Relation
    shadow: object  # the AVG-decomposed GMDJ (repro.gmdj.operator.GMDJ)
    shadow_schema: Schema
    trace: bool


@dataclass
class PartitionResult:
    """What a worker ships back to the coordinator."""

    number: int
    rows: list
    counters: dict
    spans: list | None


def run_partition(task: PartitionTask) -> PartitionResult:
    """Evaluate one detail fragment (executed inside a pool worker).

    The worker isolates its own IOStats and (when requested) its own
    tracer — both are context-local, so thread workers never race the
    coordinator's accounting — and returns everything as plain data.
    """
    run = task.kernel
    tracer = Tracer() if task.trace else None
    with collect() as stats:
        if tracer is not None:
            with tracing(tracer):
                with span(f"partition {task.number}", kind="partition",
                          detail_rows=len(task.fragment),
                          worker=os.getpid()):
                    partial = run(task.base, task.fragment, task.shadow,
                                  task.shadow_schema)
        else:
            partial = run(task.base, task.fragment, task.shadow,
                          task.shadow_schema)
    return PartitionResult(
        number=task.number,
        rows=partial.rows,
        counters=stats.snapshot(),
        spans=(tracer.trace().to_json()["spans"]
               if tracer is not None else None),
    )


class PoolRegistry:
    """Reusable executors keyed by ``(kind, workers)``.

    One registry belongs to one owner (a :class:`~repro.engine.database.
    Database`, or the serve tier's dispatcher); executors are created on
    first use and reused until :meth:`shutdown`, which waits for
    in-flight work and then releases every worker.  All methods are
    thread-safe — the serve tier calls :meth:`get` from concurrent
    request threads.
    """

    def __init__(self) -> None:
        self._pools: dict[tuple[str, int], Executor] = {}
        self._lock = threading.Lock()
        self._closed = False

    def get(self, kind: str, workers: int) -> Executor:
        """The shared executor for this shape, created on first use."""
        if kind not in ("thread", "process"):
            raise ConfigurationError(
                f"executor must be 'thread' or 'process', got {kind!r}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        key = (kind, workers)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "pool registry is shut down; no new executors"
                )
            pool = self._pools.get(key)
            if pool is None:
                pool = self._pools[key] = _make_pool(kind, workers)
            return pool

    def evict(self, kind: str, workers: int, pool: Executor) -> None:
        """Forget ``pool`` (a broken executor) so the next :meth:`get`
        for this shape starts a fresh one.  A no-op when another thread
        already replaced it."""
        with self._lock:
            if self._pools.get((kind, workers)) is pool:
                del self._pools[(kind, workers)]
        pool.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> int:
        """Shut down every executor; returns how many were released.

        Idempotent.  With ``wait`` (the default) the call blocks until
        in-flight tasks finish, so a drain that follows the admission
        barrier is deterministic: nothing is executing when it returns.
        """
        with self._lock:
            self._closed = True
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.shutdown(wait=wait)
        return len(pools)

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)


#: The installed registry, or None for per-call executor lifetimes.
#: A ``ContextVar`` so concurrent serve requests (each running a tenant
#: database in its own context) resolve their own tenant's registry.
_registry_var: ContextVar["PoolRegistry | None"] = ContextVar(
    "repro_pool_registry", default=None
)


def active_registry() -> "PoolRegistry | None":
    return _registry_var.get()


class pooling:
    """Context manager installing a :class:`PoolRegistry` for reuse.

    Every :func:`map_partitions` call inside the context draws its
    executor from the registry instead of creating (and destroying) a
    private pool.  ``Database._run`` wraps execution in this, so each
    database's pooled queries share that database's executors.
    """

    def __init__(self, registry: PoolRegistry):
        self.registry = registry
        self._token = None

    def __enter__(self) -> PoolRegistry:
        self._token = _registry_var.set(self.registry)
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        _registry_var.reset(self._token)


def _make_pool(kind: str, workers: int) -> Executor:
    if kind == "process":
        import multiprocessing

        # Prefer fork where available: workers start in milliseconds and
        # inherit imports, which keeps small-query overhead low.  Other
        # platforms fall back to the default start method.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            return ProcessPoolExecutor(max_workers=workers,
                                       mp_context=context)
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="gmdj-worker")


def map_partitions(
    kernel: Callable[..., Relation],
    base: Relation,
    fragments: list[Relation],
    shadow: GMDJ,
    shadow_schema: Schema,
    workers: int,
    executor: str | None = None,
) -> list[list]:
    """Run ``kernel`` over every fragment on a worker pool; returns
    partial row lists.

    Results are returned in fragment order.  Worker IOStats snapshots are
    merged into the coordinator's ambient stats and worker span subtrees
    are grafted into the active tracer before returning, so from the
    outside the evaluation is indistinguishable from the sequential path
    except for wall-clock.  A worker that dies mid-map surfaces as
    :class:`~repro.errors.WorkerPoolError` — never partial rows — and
    its executor leaves the registry, so the next query gets a fresh one.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    trace = tracing_enabled()
    kind = choose_executor(executor, sum(len(f) for f in fragments),
                           (shadow, kernel))
    tasks = [
        PartitionTask(number, kernel, base, fragment, shadow, shadow_schema,
                      trace)
        for number, fragment in enumerate(fragments, start=1)
    ]
    registry = _registry_var.get()
    with span("pool", kind="pool", executor=kind, workers=workers,
              partitions=len(fragments),
              reused=registry is not None):
        pool = (registry.get(kind, workers) if registry is not None
                else _make_pool(kind, workers))
        try:
            results = list(pool.map(run_partition, tasks))
        except BrokenExecutor as error:
            if registry is not None:
                registry.evict(kind, workers, pool)
            raise WorkerPoolError(
                f"a {kind} pool worker died while evaluating "
                f"{len(fragments)} detail partition(s): {error}"
            ) from error
        finally:
            if registry is None:
                pool.shutdown()
        ambient = IOStats.ambient()
        for result in results:
            ambient.merge(result.counters)
            if result.spans:
                attach_subtrace(result.spans)
    return [result.rows for result in results]
