"""The metric catalogue: every name the benchmark prints, in one place.

``BENCHMARK.json`` carries ``name``/``unit``/``better`` (and ``bound``
for end-to-end metrics); the layer, the definition and the prediction —
which end-to-end metric on which workload a layer metric should move —
live here and in ``README.md``.  ``tests/test_smoke.py`` checks that
this catalogue, ``BENCHMARK.json`` and what a run prints all agree.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    definition: str
    moves: str  # the end-to-end metric x workload it should move


# The issue asked for bounds of 10/10/15/10/10% on the five timed
# metrics.  This 2-core shared box cannot resolve that: after
# calibration ten seeds still spread (quartile distance over median) by
# 2-8% in its calmer quarter-hours and by up to 12% in its noisier ones
# (README, "How steady it is").  A bound has to be about three times
# the spread, and the contract caps a bound at 25%.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of five set-ups: data generation, .cols save/load or "
             "server boot, oracle answers, one untimed warm-up pass"),
    EndToEnd("ops_per_s", "op/s", "higher", 0.25,
             "correct ops / measured wall (closed loop)"),
    EndToEnd("op_ms_p50", "ms", "lower", 0.25, "median op latency"),
    EndToEnd("op_ms_p90", "ms", "lower", 0.25, "p90 op latency"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25,
             "user+sys CPU of harness and children / ops attempted"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "highest ru_maxrss of the harness process and its children"),
)

_SMALL = "op_ms_p50 on small_query"
_SCAN = "ops_per_s, op_ms_p50 on scan_heavy"
_SERVE = "op_ms_p50, ops_per_s on serve_mixed"

PER_LAYER = (
    # sql
    PerLayer("sql.tokenize_ms", "ms", "lower",
             "Parser(text): lexing, per op", _SMALL),
    PerLayer("sql.parse_ms", "ms", "lower",
             "Parser.parse() on the lexed tokens, per op", _SMALL),
    PerLayer("sql.bind_ms", "ms", "lower",
             "Binder.bind_statement, per op", _SMALL),
    # unnesting
    PerLayer("unnesting.translate_ms", "ms", "lower",
             "subquery_to_gmdj(optimize=False), per op", _SMALL),
    PerLayer("unnesting.gmdj_nodes_per_query", "count", "lower",
             "GMDJ nodes in the optimized plan, mean per query (exact)",
             "ops_per_s on scan_heavy (Prop 4.1: fewer nodes, fewer scans)"),
    # lint
    PerLayer("lint.certify_capabilities_ms", "ms", "lower",
             "certify_capabilities(plan), per op (on the execute path)",
             _SMALL + "; hit classes of serve_mixed"),
    PerLayer("lint.certify_plan_ms", "ms", "lower",
             "certify_plan(plan), per op (what a shared group pays)",
             "ops_per_s on batch_mqo"),
    PerLayer("lint.lint_plan_ms", "ms", "lower",
             "lint_plan(plan), per op (what lint=warn/strict would add)",
             "none under the default profile"),
    # algebra
    PerLayer("algebra.bind_cache_hit_ratio", "ratio", "higher",
             "expr_bind_cache hits / (hits + misses) over the traced ops",
             _SMALL),
    # engine
    PerLayer("engine.execute_sql_ms", "ms", "lower",
             "execute_sql (execute_sql_batch on batch_mqo) in-process, "
             "mean per op of the traced pass", "op_ms_p50 everywhere"),
    PerLayer("engine.unattributed_ms", "ms", "lower",
             "engine.execute_sql_ms minus the hand-replayed chain "
             "(tokenize, parse, bind, translate, optimize, "
             "certify_capabilities, scan)", _SMALL + " and serve_mixed"),
    PerLayer("engine.cache_hit_ms", "ms", "lower",
             "second run of each text with use_cache on", _SERVE),
    PerLayer("engine.rollup_hit_ms", "ms", "lower",
             "second run of each text with rollup=subsume, cache off",
             _SERVE),
    PerLayer("engine.cache_hit_ratio", "ratio", "higher",
             "share of those second runs the result cache answered",
             _SERVE),
    PerLayer("engine.rollup_hit_ratio", "ratio", "higher",
             "share of those second runs the rollup store answered (hits "
             "and no miss in the run's own metrics registry)", _SERVE),
    PerLayer("engine.mqo_plan_batch_ms", "ms", "lower",
             "plan_batch over one op's queries", "ops_per_s on batch_mqo"),
    PerLayer("engine.mqo_scans_saved_per_batch", "count", "higher",
             "BatchReport.scans_saved for the workload's texts as one "
             "batch (exact)", "ops_per_s on batch_mqo"),
    PerLayer("engine.mqo_batch_vs_sequential", "ratio", "lower",
             "wall of that batch / wall of its members run singly",
             "ops_per_s on batch_mqo"),
    PerLayer("engine.apply_select_list_ms", "ms", "lower",
             "the SELECT-list scalar-subquery shape on a fixed 20 x 400 "
             "probe, kept out of every op mix", "none (not in any op mix)"),
    # storage
    PerLayer("storage.save_binary_s", "s", "lower",
             "save_binary of the workload's detail table",
             "setup_s on scan_heavy, serve_mixed"),
    PerLayer("storage.load_binary_s", "s", "lower",
             "load_binary of the same .cols directory",
             "setup_s on scan_heavy, serve_mixed"),
    PerLayer("storage.cols_bytes_per_row", "B", "lower",
             "bytes on disk of that .cols directory / rows", "none (size)"),
    PerLayer("storage.columnar_encode_ms", "ms", "lower",
             "ColumnarRelation.from_relation of the detail table: what a "
             "table not loaded from .cols pays on its first scan, and what "
             "every scan after an insert pays",
             "op_ms_p90 on serve_mixed"),
    PerLayer("storage.columnar_cache_hit_ratio", "ratio", "higher",
             "columnar.cache hits / (hits + misses) over the traced ops",
             _SCAN),
    PerLayer("storage.tuples_scanned_per_op", "count", "lower",
             "IOStats.tuples_scanned per op (exact)", _SCAN),
    PerLayer("storage.relation_scans_per_op", "count", "lower",
             "IOStats.relation_scans per op (exact)", _SCAN),
    # gmdj
    PerLayer("gmdj.optimize_ms", "ms", "lower",
             "optimize_plan on the translated plan, per op", _SMALL),
    PerLayer("gmdj.scan_ms.numpy", "ms", "lower",
             "evaluate_plan_vectorized(backend=numpy), per op", _SCAN),
    PerLayer("gmdj.scan_ms.python", "ms", "lower",
             "evaluate_plan_vectorized(backend=python), per op",
             "op_ms_p50 on completion_all"),
    PerLayer("gmdj.scan_ms.row", "ms", "lower",
             "plan.evaluate (the row interpreter), per op",
             "none under the default profile"),
    PerLayer("gmdj.detail_rows_per_s", "1/s", "higher",
             "tuples scanned per op / gmdj.scan_ms.numpy", _SCAN),
    PerLayer("gmdj.detail_scans_per_op", "count", "lower",
             "detail_scan spans per op (exact)", _SCAN),
    PerLayer("gmdj.numpy_fallback_scans_per_op", "count", "lower",
             "detail_scan spans carrying 'fallbacks' per op (exact)",
             "op_ms_p50 on completion_all and scan_heavy"),
    PerLayer("gmdj.aggregate_updates_per_op", "count", "lower",
             "IOStats.aggregate_updates per op (exact)", _SCAN),
    PerLayer("gmdj.predicate_evals_per_op", "count", "lower",
             "IOStats.predicate_evals per op (exact)",
             "op_ms_p50 on completion_all"),
    PerLayer("gmdj.completed_tuples_per_op", "count", "higher",
             "IOStats.completed_tuples per op (exact)",
             "op_ms_p50 on completion_all"),
    PerLayer("gmdj.partitioned_ms.w1", "ms", "lower",
             "execute_sql with partitions=2, workers=1, per op", _SCAN),
    PerLayer("gmdj.partitioned_ms.w2", "ms", "lower",
             "execute_sql with partitions=2, workers=2, per op",
             "op_ms_p50 on scan_heavy, not cpu_ms_per_op"),
    # serve
    PerLayer("serve.boot_s", "s", "lower",
             "spawn of 'repro serve --data DIR' to its listening line",
             "setup_s on serve_mixed"),
    PerLayer("serve.request_ms_p50.cache_hit", "ms", "lower",
             "client latency, cache_hit class", _SERVE),
    PerLayer("serve.request_ms_p50.rollup_hit", "ms", "lower",
             "client latency, rollup_hit class", _SERVE),
    PerLayer("serve.request_ms_p50.execute", "ms", "lower",
             "client latency, execute class", "op_ms_p90 on serve_mixed"),
    PerLayer("serve.request_ms_p50.ddl", "ms", "lower",
             "client latency, one-row insert", "op_ms_p90 on serve_mixed"),
    PerLayer("serve.request_ms_p99", "ms", "lower",
             "client latency over every traced request", "none (tail)"),
    PerLayer("serve.overhead_ms_p50.hit", "ms", "lower",
             "client latency minus the response's elapsed_ms, requests "
             "served by cache or rollup", _SERVE),
    PerLayer("serve.overhead_ms_p50.execute", "ms", "lower",
             "the same, requests served by execute", _SERVE),
    PerLayer("serve.served_by_share.cache", "ratio", "higher",
             "share of query responses with served_by=cache", _SERVE),
    PerLayer("serve.served_by_share.rollup", "ratio", "higher",
             "share with served_by=rollup", _SERVE),
    PerLayer("serve.served_by_share.execute", "ratio", "lower",
             "share with served_by=execute (or mixed)", _SERVE),
    PerLayer("serve.shed_429", "count", "lower",
             "responses with status 429", "failed ops on serve_mixed"),
    PerLayer("serve.run_query_ms", "ms", "lower",
             "Tenant.run_query in-process, per text: against "
             "engine.execute_sql_ms it prices the tenant's lock, tracer "
             "and row copying without socket or event loop", _SERVE),
    PerLayer("serve.json_response_ms", "ms", "lower",
             "json_response(200, payload) on those payloads", _SERVE),
    PerLayer("serve.execute_qps.w1", "1/s", "higher",
             "execute-class requests per second, 2 connections, "
             "--workers 1", "ops_per_s on serve_mixed"),
    PerLayer("serve.execute_qps.w2", "1/s", "higher",
             "the same with --workers 2 (ROADMAP: flat today)",
             "ops_per_s on serve_mixed"),
    # obs / harness
    PerLayer("obs.tracer_overhead_pct", "%", "lower",
             "profile_sql with trace=True vs without, over the texts",
             "none (tracing is off end to end)"),
    PerLayer("obs.bench_trace_overhead_pct", "%", "lower",
             "mean op latency of the traced pass vs an untraced pass of "
             "the same ops in the same run", "none (the benchmark's own cost)"),
    PerLayer("data.generate_s", "s", "lower",
             "the benchmark's data generator", "setup_s everywhere"),
    PerLayer("harness.calibration_ms", "ms", "lower",
             "median calibration unit during the traced pass: layer times "
             "are raw, and times from two runs compare after dividing by it",
             "none (the machine's speed, not the program's)"),
)
