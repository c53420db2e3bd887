"""Tests for the worker-pool scheduler behind partitioned GMDJ runs.

Covers executor selection, multi-worker equivalence on both thread and
process pools, and the observability contract: worker IOStats merge into
the coordinator's counters and worker span subtrees graft back into the
parent trace, so both show the whole evaluation.
"""

import pytest

from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import col
from repro.algebra.operators import ScanTable
from repro.errors import ConfigurationError
from repro.gmdj import evaluate_gmdj_partitioned, md, run_gmdj
from repro.gmdj.pool import (
    PROCESS_MIN_DETAIL_ROWS,
    choose_executor,
    map_partitions,
    resolve_workers,
)
from repro.obs.tracer import Tracer, tracing
from repro.storage import Catalog, DataType, Relation, collect


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER)], [(i,) for i in range(10)],
    ))
    cat.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i % 10, i if i % 6 else None) for i in range(80)],
    ))
    return cat


def full_gmdj():
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              [[count_star("cnt"), agg("sum", col("r.V"), "s"),
                agg("avg", col("r.V"), "a"), agg("min", col("r.V"), "lo"),
                agg("max", col("r.V"), "hi")]],
              [col("b.K") == col("r.K")])


class TestChooseExecutor:
    def test_explicit_kind_wins(self):
        assert choose_executor("thread", 10**9, object()) == "thread"
        assert choose_executor("process", 1, None) == "process"

    def test_auto_small_input_prefers_threads(self):
        assert choose_executor("auto", 100, None) == "thread"

    def test_auto_large_picklable_prefers_processes(self):
        assert choose_executor(
            "auto", PROCESS_MIN_DETAIL_ROWS, {"plan": 1}
        ) == "process"

    def test_auto_unpicklable_degrades_to_threads(self):
        assert choose_executor(
            "auto", PROCESS_MIN_DETAIL_ROWS, lambda: None
        ) == "thread"

    def test_unset_kind_is_auto(self):
        assert choose_executor(None, 100, None) == "thread"
        assert choose_executor(
            None, PROCESS_MIN_DETAIL_ROWS, {"plan": 1}
        ) == "process"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_executor("gpu", 1, None)

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        base = Relation.from_columns([("K", DataType.INTEGER)], [])
        with pytest.raises(ConfigurationError):
            map_partitions(run_gmdj, base, [], None, base.schema, workers=0)


class TestMultiWorkerEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thread_pool_matches_sequential(self, catalog, workers):
        sequential = full_gmdj().evaluate(catalog)
        pooled = evaluate_gmdj_partitioned(
            full_gmdj(), catalog, partitions=4, workers=workers,
            executor="thread",
        )
        assert sequential.bag_equal(pooled)

    def test_process_pool_matches_sequential(self, catalog):
        sequential = full_gmdj().evaluate(catalog)
        pooled = evaluate_gmdj_partitioned(
            full_gmdj(), catalog, partitions=4, workers=2,
            executor="process",
        )
        assert sequential.bag_equal(pooled)

    def test_more_workers_than_partitions(self, catalog):
        sequential = full_gmdj().evaluate(catalog)
        pooled = evaluate_gmdj_partitioned(
            full_gmdj(), catalog, partitions=2, workers=8,
            executor="thread",
        )
        assert sequential.bag_equal(pooled)


class TestStatsPropagation:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_worker_counters_merge_into_coordinator(self, catalog, executor):
        with collect() as sequential_stats:
            full_gmdj().evaluate(catalog)
        with collect() as pooled_stats:
            evaluate_gmdj_partitioned(
                full_gmdj(), catalog, partitions=3, workers=2,
                executor=executor,
            )
        # Parallelism must not lose (or invent) work: the fragments
        # tile the detail, so scan totals match the single-scan run.
        assert (pooled_stats.tuples_scanned
                == sequential_stats.tuples_scanned)
        assert pooled_stats.aggregate_updates > 0


class TestTraceGrafting:
    def run_traced(self, catalog, **kwargs):
        tracer = Tracer()
        with tracing(tracer):
            evaluate_gmdj_partitioned(full_gmdj(), catalog, **kwargs)
        return tracer.trace()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_partition_spans_reattach(self, catalog, executor):
        trace = self.run_traced(catalog, partitions=3, workers=2,
                                executor=executor)
        kinds = [span.kind for span in trace.walk()]
        assert kinds.count("pool") == 1
        assert kinds.count("partition") == 3
        # The grafted subtrees keep their detail scans, so per-fragment
        # work is still attributed.
        assert kinds.count("detail_scan") >= 3

    def test_pool_span_records_executor_and_workers(self, catalog):
        trace = self.run_traced(catalog, partitions=2, workers=2,
                                executor="thread")
        pool_span = next(s for s in trace.walk() if s.kind == "pool")
        assert pool_span.attrs["executor"] == "thread"
        assert pool_span.attrs["workers"] == 2
        assert pool_span.attrs["partitions"] == 2

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_invariants_hold_on_pooled_traces(self, catalog, executor):
        # Fragments tile the detail: one scan each, the volume of one
        # scan.  (The merged output's |B| bound raises on any run.)
        with collect() as single:
            full_gmdj().evaluate(catalog)
        with collect() as pooled:
            self.run_traced(catalog, partitions=4, workers=2,
                            executor=executor)
        assert pooled.detail_scans == 4
        assert pooled.tuples_scanned == single.tuples_scanned

    def test_untraced_pool_leaves_no_spans(self, catalog):
        result = evaluate_gmdj_partitioned(
            full_gmdj(), catalog, partitions=3, workers=2,
            executor="thread",
        )
        assert len(result) == 10


class TestPoolRegistry:
    """Persistent executors for long-lived owners (serve tier, Database)."""

    def test_get_reuses_by_shape(self):
        from repro.gmdj.pool import PoolRegistry

        registry = PoolRegistry()
        try:
            first = registry.get("thread", 2)
            assert registry.get("thread", 2) is first
            assert registry.get("thread", 3) is not first
            assert len(registry) == 2
        finally:
            registry.shutdown()

    def test_shutdown_is_idempotent_and_counts(self):
        from repro.gmdj.pool import PoolRegistry

        registry = PoolRegistry()
        registry.get("thread", 1)
        assert registry.shutdown() == 1
        assert registry.shutdown() == 0
        assert registry.closed

    def test_get_after_shutdown_raises(self):
        from repro.gmdj.pool import PoolRegistry

        registry = PoolRegistry()
        registry.shutdown()
        with pytest.raises(ConfigurationError):
            registry.get("thread", 1)

    def test_rejects_bad_shapes(self):
        from repro.gmdj.pool import PoolRegistry

        registry = PoolRegistry()
        try:
            with pytest.raises(ConfigurationError):
                registry.get("auto", 2)  # must be resolved before get()
            with pytest.raises(ConfigurationError):
                registry.get("thread", 0)
        finally:
            registry.shutdown()

    def test_pooling_context_reuses_executor(self, catalog):
        from repro.gmdj.pool import PoolRegistry, active_registry, pooling

        registry = PoolRegistry()
        try:
            assert active_registry() is None
            with pooling(registry):
                assert active_registry() is registry
                for _ in range(3):
                    result = evaluate_gmdj_partitioned(
                        full_gmdj(), catalog, partitions=2, workers=2,
                        executor="thread",
                    )
                    assert len(result) == 10
                # Three pooled evaluations, one executor: the registry
                # absorbed the per-call pool start-up.
                assert len(registry) == 1
            assert active_registry() is None
        finally:
            registry.shutdown()

    def test_pooled_span_marks_reuse(self, catalog):
        from repro.gmdj.pool import PoolRegistry, pooling

        registry = PoolRegistry()
        try:
            tracer = Tracer()
            with pooling(registry), tracing(tracer):
                evaluate_gmdj_partitioned(
                    full_gmdj(), catalog, partitions=2, workers=2,
                    executor="thread",
                )
            pool_span = next(
                s for s in tracer.trace().walk() if s.kind == "pool")
            assert pool_span.attrs["reused"] is True
        finally:
            registry.shutdown()

    def test_pooled_equals_per_call_results(self, catalog):
        from repro.gmdj.pool import PoolRegistry, pooling

        baseline = evaluate_gmdj_partitioned(
            full_gmdj(), catalog, partitions=3, workers=2, executor="thread",
        )
        registry = PoolRegistry()
        try:
            with pooling(registry):
                pooled = evaluate_gmdj_partitioned(
                    full_gmdj(), catalog, partitions=3, workers=2,
                    executor="thread",
                )
        finally:
            registry.shutdown()
        assert pooled.rows == baseline.rows


def _dying_kernel(base, detail, gmdj, output_schema, rule=None,
                  selection=None):
    """A kernel that kills its own worker process mid-scan (module level
    so process workers can unpickle it by reference)."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


class TestDeadWorker:
    SQL = ("SELECT K FROM B b WHERE EXISTS "
           "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 20)")

    def make_db(self):
        from repro import Database, DataType

        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)],
                        [(i,) for i in range(10)])
        db.create_table(
            "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(i % 10, i) for i in range(80)],
        )
        return db

    def test_killed_worker_raises_typed_error_and_pool_recovers(self):
        from repro.errors import ReproError, WorkerPoolError
        from repro.gmdj.pool import pooling

        def on_processes(kernel=run_gmdj):
            with pooling(db.pools):
                return evaluate_gmdj_partitioned(
                    full_gmdj(), db.catalog, partitions=2, workers=2,
                    executor="process", kernel=kernel)

        with self.make_db() as db:
            expected = full_gmdj().evaluate(db.catalog)
            # Warm the database's ("process", 2) executor, then kill one
            # of its workers mid-map.
            assert on_processes().bag_equal(expected)
            broken = db.pools.get("process", 2)
            with pytest.raises(WorkerPoolError) as error:
                on_processes(_dying_kernel)
            assert isinstance(error.value, ReproError)
            # The broken executor left the registry: the next run on the
            # same database gets a fresh pool and the right answer.
            assert len(db.pools) == 0
            assert on_processes().bag_equal(expected)
            assert db.pools.get("process", 2) is not broken

    def test_per_call_pool_raises_the_same_typed_error(self, catalog):
        from repro.errors import WorkerPoolError

        with pytest.raises(WorkerPoolError):
            evaluate_gmdj_partitioned(
                full_gmdj(), catalog, partitions=2, workers=2,
                executor="process", kernel=_dying_kernel,
            )
