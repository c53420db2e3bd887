"""The traced pass: per-layer metrics, measured from outside.

A layer is a module under ``src/repro``.  Nothing here reaches into the
program: each number comes from timing a call to a public function,
from a counter the program already exposes (``IOStats``, the metrics
registry, ``db.cache.stats()``, ``db.rollups.stats()``,
``BatchResult.report``, the ``profile_sql(trace=True)`` span tree, the
``elapsed_ms``/``served_by`` fields of serve responses), or from the
benchmark's own spans around those calls.

The pass has four parts, the timed ones given a share of ``--seconds``:

1. ``serve_mixed`` only: its request schedule over HTTP, untraced and
   then under benchmark spans;
2. the ops in-process, each one run plain, run again under benchmark
   spans and counter scopes (the ratio of the two is
   ``obs.bench_trace_overhead_pct``), and then replayed by hand layer
   by layer: the replay's named times plus ``engine.unattributed_ms``
   equal the traced wall;
3. fixed-repetition probes (kernels, tiers, storage, MQO);
4. a short run against a real ``repro serve`` over this workload's data.

Every time is a mean per op, so the rows of a layer table add up.
"""

from __future__ import annotations

import itertools
import json
import shutil
import time
from collections.abc import Callable
from pathlib import Path

from perfbench import data, queries
from perfbench.harness import (
    Calibrator,
    Measurement,
    answer_problem,
    fingerprint,
    median,
    percentile,
)
from perfbench.metrics import PER_LAYER
from perfbench.oracle import Oracle
from perfbench.serve import (
    BLOCK,
    Outcome,
    ServeSession,
    run_load,
    schedule,
    warm_requests,
)
from perfbench.spans import Recorder, layer_table

#: The replayed chain, in call order: what one cold execute_sql is made of
#: as far as public functions can tell.
CHAIN = ("sql.tokenize", "sql.parse", "sql.bind", "unnesting.translate",
         "gmdj.optimize", "lint.certify_capabilities", "gmdj.scan")


def _timed(thunk: Callable[[], object]) -> tuple[float, object]:
    started = time.perf_counter()
    value = thunk()
    return (time.perf_counter() - started) * 1000.0, value


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _chain_metric(span_name: str) -> str:
    if span_name == "gmdj.scan":
        return "gmdj.scan_ms.numpy"
    return span_name + "_ms"


class TracedPass:
    """State of one traced pass over one set-up workload."""

    def __init__(self, workload, seconds: float, out_dir: Path):
        self.workload = workload
        self.seconds = seconds
        self.out_dir = out_dir
        self.recorder = Recorder()
        self.calibrator = Calibrator()
        self.metrics: dict[str, float] = {}
        self.measured = Measurement()
        self.db = workload.inprocess_db()
        self.options = workload.options
        #: One op = these texts (one text, or batch_mqo's eight).
        self.units: list[list] = workload.op_units()
        self.texts = [q for unit in self.units for q in unit]
        self.plans: dict[str, object] = {}
        self.serve_outcomes: list[Outcome] = []

    # -- helpers --------------------------------------------------------------

    def run_unit(self, unit: list, options=None) -> list:
        return self.workload.execute(unit, options or self.options)

    def check(self, name: str, rows: list, expected) -> None:
        self.measured.attempted += 1
        problem = answer_problem(name, rows, expected)
        if problem:
            self.measured.fail(problem)

    def absorb(self, other: Measurement) -> None:
        self.measured.attempted += other.attempted
        self.measured.failed += other.failed
        self.measured.failures.extend(other.failures)
        del self.measured.failures[5:]

    # -- part 1: the workload's own requests, over HTTP --------------------------

    def http_pass(self) -> None:
        """``serve_mixed`` only: its schedule, untraced and then traced."""
        workload = self.workload
        share = 0.15 * self.seconds
        untraced, _ = run_load(
            workload.session.port, workload.requests(), seconds=share)
        traced, self.serve_outcomes = run_load(
            workload.session.port, workload.requests(), seconds=share,
            recorder=self.recorder)
        self.absorb(untraced)
        self.absorb(traced)
        self.metrics["obs.bench_trace_overhead_pct"] = 100.0 * (
            _mean(traced.latencies_ms) / _mean(untraced.latencies_ms) - 1)

    # -- part 2: the ops in-process, and their path replayed by hand -------------

    def engine_pass(self, seconds: float) -> None:
        """Whole rounds of: the op plain, the op traced, the op replayed.

        The three are interleaved op by op so that they see the same
        machine: on a shared 2-core box a minute-to-minute drift of 10%
        is ordinary, and the difference of two means taken a second
        apart would be mostly that.  Counter totals divide by whole
        rounds, so the per-op counts are exact and repeat from run to
        run.
        """
        from repro.obs import metrics_scope, tracing
        from repro.storage import collect

        recorder = self.recorder
        io_totals: dict[str, int] = {}
        counters: dict[str, int] = {}
        plain_ms = []
        deadline = time.perf_counter() + seconds
        while True:
            for unit in self.units:
                self.calibrator.sample_if_due()
                plain_ms.append(_timed(lambda: self.run_unit(unit))[0])
                with metrics_scope(merge=False) as registry, \
                        collect() as stats:
                    with recorder.span("engine.execute_sql",
                                       op=unit[0].name):
                        rows = self.run_unit(unit)
                for key, value in stats.snapshot().items():
                    io_totals[key] = io_totals.get(key, 0) + value
                for key, counter in registry.counters.items():
                    counters[key] = counters.get(key, 0) + counter.value
                self.check(unit[0].name, rows,
                           self.workload.unit_answer(unit))
                self.replay(unit)
            if time.perf_counter() >= deadline:
                break
        # One more round under the program's own tracer, for the span
        # kinds only it can see; kept out of the timings above.
        scans = fallbacks = 0
        for unit in self.units:
            with tracing() as tracer:
                self.run_unit(unit)
            for span in tracer.trace().walk():
                if span.kind == "detail_scan":
                    scans += 1
                    fallbacks += bool(span.attrs.get("fallbacks"))
        ops = len(plain_ms)
        metrics = self.metrics
        metrics["harness.calibration_ms"] = self.calibrator.unit_ms()
        traced_ms = _mean(recorder.durations_ms("engine.execute_sql"))
        metrics["engine.execute_sql_ms"] = traced_ms
        metrics.setdefault("obs.bench_trace_overhead_pct",
                           100.0 * (traced_ms / _mean(plain_ms) - 1))
        for metric, key in (
            ("storage.tuples_scanned_per_op", "tuples_scanned"),
            ("storage.relation_scans_per_op", "relation_scans"),
            ("gmdj.aggregate_updates_per_op", "aggregate_updates"),
            ("gmdj.predicate_evals_per_op", "predicate_evals"),
            ("gmdj.completed_tuples_per_op", "completed_tuples"),
        ):
            metrics[metric] = io_totals.get(key, 0) / ops
        metrics["gmdj.detail_scans_per_op"] = scans / len(self.units)
        metrics["gmdj.numpy_fallback_scans_per_op"] = (
            fallbacks / len(self.units))
        metrics["algebra.bind_cache_hit_ratio"] = _ratio(
            counters.get("expr_bind_cache_hits", 0),
            counters.get("expr_bind_cache_misses", 0))
        metrics["storage.columnar_cache_hit_ratio"] = _ratio(
            counters.get("columnar.cache_hits", 0),
            counters.get("columnar.cache_misses", 0))
        self_ms = recorder.self_ms()
        chain_ms = 0.0
        for name in CHAIN:
            metrics[_chain_metric(name)] = self_ms.get(name, 0.0) / ops
            chain_ms += metrics[_chain_metric(name)]
        metrics["engine.unattributed_ms"] = traced_ms - chain_ms
        scan_ms = metrics["gmdj.scan_ms.numpy"]
        metrics["gmdj.detail_rows_per_s"] = (
            1000.0 * metrics["storage.tuples_scanned_per_op"] / scan_ms
            if scan_ms else 0.0)

    def replay(self, unit: list) -> None:
        """Walk one op's path by hand, one public call per layer.

        The ``replay`` root's own self time is the harness's glue
        between the calls, not the program's, and stays out of the chain.
        """
        from repro.gmdj import evaluate_plan_vectorized, optimize_plan
        from repro.lint import capability_scope, certify_capabilities
        from repro.sql import Binder, Parser
        from repro.unnesting import subquery_to_gmdj

        recorder, catalog = self.recorder, self.db.catalog
        with recorder.span("replay", op=unit[0].name):
            for query in unit:
                with recorder.span("sql.tokenize"):
                    parser = Parser(query.sql)
                with recorder.span("sql.parse"):
                    statement = parser.parse()
                with recorder.span("sql.bind"):
                    tree = Binder(catalog).bind_statement(statement)
                with recorder.span("unnesting.translate"):
                    plan = subquery_to_gmdj(tree, catalog, optimize=False)
                with recorder.span("gmdj.optimize"):
                    plan = optimize_plan(plan, catalog=catalog)
                with recorder.span("lint.certify_capabilities"):
                    certificate = certify_capabilities(plan, catalog)
                with recorder.span("gmdj.scan"):
                    with capability_scope(certificate):
                        result = evaluate_plan_vectorized(
                            plan, catalog, None,
                            backend=self.options.backend)
                self.plans[query.name] = (plan, certificate)
                self.check(query.name, result.rows,
                           self.workload.answers[query.name])

    # -- part 3: probes ---------------------------------------------------------

    def probe_plans(self) -> None:
        """Static passes and the other two kernels, over the saved plans."""
        from repro.gmdj import GMDJ, evaluate_plan_vectorized
        from repro.lint import capability_scope, certify_plan, lint_plan

        catalog = self.db.catalog
        ops = len(self.units)
        totals = {"certify": 0.0, "lint": 0.0, "python": 0.0, "row": 0.0}
        nodes = 0

        def count(node) -> int:
            return isinstance(node, GMDJ) + sum(
                count(child) for child in node.children())

        for query in self.texts:
            plan, certificate = self.plans[query.name]
            nodes += count(plan)
            totals["certify"] += _timed(lambda: certify_plan(plan))[0]
            totals["lint"] += _timed(
                lambda: lint_plan(plan, catalog, advice=False))[0]
            with capability_scope(certificate):
                totals["python"] += _timed(lambda: evaluate_plan_vectorized(
                    plan, catalog, None, backend="python"))[0]
                elapsed, result = _timed(lambda: plan.evaluate(catalog))
                totals["row"] += elapsed
            self.check(query.name + "/row", result.rows,
                       self.workload.answers[query.name])
        metrics = self.metrics
        metrics["unnesting.gmdj_nodes_per_query"] = nodes / len(self.texts)
        metrics["lint.certify_plan_ms"] = totals["certify"] / ops
        metrics["lint.lint_plan_ms"] = totals["lint"] / ops
        metrics["gmdj.scan_ms.python"] = totals["python"] / ops
        metrics["gmdj.scan_ms.row"] = totals["row"] / ops

    def probe_partitioned(self) -> None:
        import dataclasses

        for workers in (1, 2):
            options = dataclasses.replace(
                self.options, partitions=2, workers=workers)
            for unit in self.units:  # warm: pools start on first use
                self.run_unit(unit, options)
            total = 0.0
            for unit in self.units:
                elapsed, rows = _timed(lambda: self.run_unit(unit, options))
                total += elapsed
                self.check(f"{unit[0].name}/w{workers}", rows,
                           self.workload.unit_answer(unit))
            self.metrics[f"gmdj.partitioned_ms.w{workers}"] = (
                total / len(self.units))

    def probe_tiers(self) -> None:
        """Result cache and rollup store: the second run of each text.

        Which tier answered is read the way ``repro serve`` reads it:
        from the run's own metrics registry.
        """
        import dataclasses

        from repro.obs import metrics_scope

        db = self.db
        for tier, options, hit_keys, miss_key in (
            ("cache", dataclasses.replace(self.options, use_cache=True),
             ("cache.result_hits",), None),
            ("rollup", dataclasses.replace(self.options, rollup="subsume"),
             ("rollup.exact_hits", "rollup.subsume_hits"), "rollup.misses"),
        ):
            db.cache.invalidate()
            db.rollups.invalidate()
            for query in self.texts:
                db.execute_sql(query.sql, options)
            times = []
            served = 0
            for query in self.texts:
                with metrics_scope(merge=False) as registry:
                    elapsed, relation = _timed(
                        lambda: db.execute_sql(query.sql, options))
                times.append(elapsed)
                counters = {name: counter.value
                            for name, counter in registry.counters.items()}
                served += (any(counters.get(key) for key in hit_keys)
                           and not counters.get(miss_key))
                self.check(f"{query.name}/{tier}", relation.rows,
                           self.workload.answers[query.name])
            self.metrics[f"engine.{tier}_hit_ms"] = _mean(times)
            self.metrics[f"engine.{tier}_hit_ratio"] = served / len(times)
        db.cache.invalidate()
        db.rollups.invalidate()

    def probe_mqo(self) -> None:
        from repro.engine import plan_batch

        db, catalog = self.db, self.db.catalog
        plan_ms = 0.0
        for unit in self.units:
            trees = [db.sql(query.sql) for query in unit]
            plan_ms += _timed(
                lambda: plan_batch(trees, catalog, self.options))[0]
        self.metrics["engine.mqo_plan_batch_ms"] = plan_ms / len(self.units)
        sqls = [query.sql for query in self.texts]
        for sql in sqls:  # warm both paths alike
            db.execute_sql(sql, self.options)
        single_ms = sum(
            _timed(lambda: db.execute_sql(sql, self.options))[0]
            for sql in sqls)
        batch_ms, batch = _timed(
            lambda: db.execute_sql_batch(sqls, self.options))
        for query, relation in zip(self.texts, batch):
            self.check(query.name + "/batch", relation.rows,
                       self.workload.answers[query.name])
        self.metrics["engine.mqo_scans_saved_per_batch"] = float(
            batch.report.scans_saved)
        self.metrics["engine.mqo_batch_vs_sequential"] = batch_ms / single_ms

    def probe_select_list(self) -> None:
        """The Apply-operator shape, on its own fixed 20 x 400 tables."""
        from repro import Database, DataType

        seed = self.workload.seed
        tables = [data.customer(20, seed), data.orders(400, 20, seed)]
        query = queries.select_list_probe()
        oracle = Oracle(tables)
        expected = oracle.answer(query.oracle_sql)
        oracle.close()
        with Database() as db:
            for table in tables:
                db.create_table(
                    table.name,
                    [(n, DataType(kind)) for n, kind in table.columns],
                    table.rows)
            elapsed, relation = _timed(
                lambda: db.execute_sql(query.sql, self.options))
        self.check(query.name, relation.rows, expected)
        self.metrics["engine.apply_select_list_ms"] = elapsed

    def probe_storage(self) -> Path:
        """Save, size, load and re-encode the detail table."""
        from repro.storage import (
            ColumnarRelation,
            load_binary,
            save_binary,
        )

        workload = self.workload
        relation = self.db.table(workload.detail_table)
        directory = workload.workdir / "probe_cols"
        if directory.exists():
            shutil.rmtree(directory)
        started = time.perf_counter()
        path = save_binary(relation, directory / workload.detail_table)
        self.metrics["storage.save_binary_s"] = time.perf_counter() - started
        size = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
        self.metrics["storage.cols_bytes_per_row"] = size / max(
            1, len(relation))
        started = time.perf_counter()
        loaded = load_binary(path, name=workload.detail_table)
        self.metrics["storage.load_binary_s"] = time.perf_counter() - started
        if len(loaded) != len(relation):
            self.measured.fail("storage: load_binary lost rows")
        self.metrics["storage.columnar_encode_ms"] = _timed(
            lambda: ColumnarRelation.from_relation(relation.copy()))[0]
        for name in self.db.catalog.table_names():
            if name != workload.detail_table:
                save_binary(self.db.table(name), directory / name)
        return directory

    def probe_tracer(self) -> None:
        """The program's own tracer on and off, alternating text by text."""
        plain = traced = 0.0
        deadline = time.perf_counter() + 0.05 * self.seconds
        while True:
            for query in self.texts:
                plain += self.db.profile_sql(
                    query.sql, self.options).elapsed_seconds
                traced += self.db.profile_sql(
                    query.sql, self.options.with_trace(True)).elapsed_seconds
            if time.perf_counter() >= deadline:
                break
        self.metrics["obs.tracer_overhead_pct"] = 100.0 * (traced / plain - 1)

    # -- part 4: the serve layer -------------------------------------------------

    def probe_serve(self, data_dir: Path) -> None:
        """A real server over this workload's tables, briefly.

        ``serve_mixed`` already ran its own traced schedule in part 1;
        every other workload gets a server of its own here, so that
        serve-layer numbers exist for its data shape too.
        """
        workload = self.workload
        budget = 0.10 * self.seconds
        session = workload.session
        owned = session is None
        if owned:
            session = ServeSession(
                data_dir, workload.workdir / "probe_serve.log",
                workers=2).start()
        try:
            outcomes = (self.generic_load(session, budget) if owned
                        else self.serve_outcomes)
            self.metrics["serve.boot_s"] = session.boot_s
            self.serve_metrics(outcomes)
            self.metrics["serve.execute_qps.w2"] = self.execute_qps(
                session, budget)
        finally:
            if owned:
                session.stop()
        single = ServeSession(
            data_dir, workload.workdir / "probe_serve_w1.log",
            workers=1).start()
        try:
            self.metrics["serve.execute_qps.w1"] = self.execute_qps(
                single, budget)
        finally:
            single.stop()
        self.probe_tenant()

    def generic_load(self, session: ServeSession,
                     budget: float) -> list[Outcome]:
        """The mixed schedule over this workload's own texts.

        With a dozen texts per class an insert every twenty requests
        would turn nearly every hit into a miss, so the reads run
        without inserts and three inserts follow on their own.
        """
        workload = self.workload
        pools = workload.serve_pools()
        self.absorb(run_load(session.port, warm_requests(pools))[0])
        block = [klass for klass in BLOCK if klass != "ddl"]
        reads = schedule(workload.seed, pools, workload.neutral_insert,
                         block=block)
        inserts = itertools.islice(
            (r for r in workload.requests() if r.klass == "ddl"), 3)
        outcomes = []
        # One whole block first, so that every class has a sample however
        # short the budget; then reads until the budget is spent.
        for requests, seconds in (
            (itertools.islice(reads, len(block)), None),
            (reads, budget),
            (inserts, None),
        ):
            result, more = run_load(session.port, requests, seconds=seconds,
                                    recorder=self.recorder)
            self.absorb(result)
            outcomes += more
        return outcomes

    def execute_qps(self, session: ServeSession, budget: float) -> float:
        """Execute-class requests per second over two connections."""
        executes = (r for r in self.workload.requests()
                    if r.klass == "execute")
        run_load(session.port, itertools.islice(executes, 2))
        result, _ = run_load(session.port, executes, connections=2,
                             seconds=budget)
        self.absorb(result)
        return (result.attempted - result.failed) / result.wall_s

    def serve_metrics(self, outcomes: list[Outcome]) -> None:
        metrics = self.metrics
        for klass in ("cache_hit", "rollup_hit", "execute", "ddl"):
            metrics[f"serve.request_ms_p50.{klass}"] = median(
                [o.latency_ms for o in outcomes if o.klass == klass]) \
                if any(o.klass == klass for o in outcomes) else 0.0
        metrics["serve.request_ms_p99"] = percentile(
            [o.latency_ms for o in outcomes], 0.99)
        answered = [o for o in outcomes if o.klass != "ddl"
                    and o.status == 200]
        hits = [o for o in answered if o.served_by in ("cache", "rollup")]
        executed = [o for o in answered if o not in hits]
        metrics["serve.overhead_ms_p50.hit"] = median(
            [o.latency_ms - o.elapsed_ms for o in hits]) if hits else 0.0
        metrics["serve.overhead_ms_p50.execute"] = median(
            [o.latency_ms - o.elapsed_ms for o in executed]) \
            if executed else 0.0
        for tier in ("cache", "rollup"):
            metrics[f"serve.served_by_share.{tier}"] = (
                sum(o.served_by == tier for o in answered)
                / max(1, len(answered)))
        metrics["serve.served_by_share.execute"] = (
            len(executed) / max(1, len(answered)))
        metrics["serve.shed_429"] = float(
            sum(o.status == 429 for o in outcomes))

    def probe_tenant(self) -> None:
        """``Tenant.run_query`` and ``json_response`` without a socket."""
        from repro.serve import Tenant, json_response

        tenant = Tenant(name="probe", db=self.db)
        run_ms = json_ms = 0.0
        for query in self.texts:
            elapsed, payload = _timed(
                lambda: tenant.run_query(query.sql, self.options))
            run_ms += elapsed
            json_ms += _timed(lambda: json_response(200, payload))[0]
            self.check(query.name + "/tenant", payload["rows"],
                       self.workload.answers[query.name])
        self.metrics["serve.run_query_ms"] = run_ms / len(self.texts)
        self.metrics["serve.json_response_ms"] = json_ms / len(self.texts)

    # -- the whole pass -------------------------------------------------------------

    def run(self) -> None:
        self.metrics["data.generate_s"] = self.workload.generate_s
        if self.workload.session is not None:
            self.http_pass()
        self.engine_pass(0.30 * self.seconds)
        self.probe_plans()
        self.probe_partitioned()
        self.probe_tiers()
        self.probe_mqo()
        self.probe_select_list()
        self.probe_tracer()
        data_dir = self.probe_storage()
        self.probe_serve(data_dir)

    def report(self) -> str:
        """The layer table: the chain plus what it leaves unexplained."""
        metrics = self.metrics
        rows = []
        for name in CHAIN:
            rows.append((name, metrics[_chain_metric(name)]))
        rows.append(("engine.unattributed", metrics["engine.unattributed_ms"]))
        return layer_table(
            f"-- {self.workload.name}: mean self time per op, traced "
            f"in-process wall = engine.execute_sql_ms",
            rows, metrics["engine.execute_sql_ms"])

    def write(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"trace_{self.workload.name}.json"
        origin = min((s["start"] for s in self.recorder.spans), default=0.0)
        spans = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.recorder.spans
        ]
        path.write_text(json.dumps({
            "workload": self.workload.name,
            "environment": fingerprint(self.workload.seed),
            "options": self.workload.resolved_options,
            "metrics": self.metrics,
            "spans": spans,
        }))
        return path


def traced_pass(workload, seconds: float,
                out_dir: Path) -> tuple[Measurement, dict]:
    """Run the traced pass; returns its op accounting and the metrics."""
    traced = TracedPass(workload, seconds, out_dir)
    traced.run()
    print(traced.report())
    print(f"  trace written to {traced.write()}")
    units = {layer.name: layer.unit for layer in PER_LAYER}
    missing = set(units) - set(traced.metrics)
    if missing:
        raise AssertionError(f"traced pass left out {sorted(missing)}")
    return traced.measured, {
        name: (float(traced.metrics[name]), units[name]) for name in units
    }

