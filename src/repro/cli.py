"""Command-line interface: run subquery SQL over CSV tables, or fuzz.

Usage::

    python -m repro --data warehouse_dir/ \\
        "SELECT c.custkey FROM customer c WHERE EXISTS \\
         (SELECT * FROM orders o WHERE o.custkey = c.custkey)" \\
        --strategy gmdj_optimized --profile

Physical GMDJ execution hangs off the same flags: ``--backend`` picks
the scan kernel (``auto`` by default, which is ``numpy``: whole-array
scans; ``python`` runs columnar batches, ``row`` is the reference
interpreter), ``--workers N`` evaluates detail partitions on a worker
pool (``--partitions`` controls the fragment count), and ``--no-cache``
bypasses the database's plan/result cache.

Every ``*.csv`` file in ``--data`` (written by
:func:`repro.storage.save_csv`, i.e. with a typed ``name:type`` header)
becomes a table named after the file stem.  ``--index table.attr`` adds
hash indexes for the native/join strategies to use.

The ``explain`` subcommand renders plans, optionally executed::

    python -m repro explain "SELECT ..." --data warehouse_dir/
    python -m repro explain "SELECT ..." --data warehouse_dir/ --analyze
    python -m repro explain "SELECT ..." --data d/ --analyze --json

Plain ``explain`` prints the plan the strategy would run;
``--analyze`` executes it under operator tracing and annotates every
span with wall-clock and IOStats counter deltas, then holds the run's
counters to the plan's cost certificate (``--strict-invariants`` turns
violations into a non-zero exit).  ``--json`` emits the full
trace as machine-readable JSON.

The ``lint`` subcommand statically verifies plans without executing::

    python -m repro lint "SELECT ..." --data warehouse_dir/
    python -m repro lint --corpus tests/corpus --json

It runs the static plan verifier (:mod:`repro.lint`) over the plan the
strategy would execute, printing every diagnostic (the engine's own
error as ``L000``, type mismatches, 3VL NULL hazards, missed-rewrite
advice) plus the structural cost certificate.  Exit status is 0 when no
error-severity diagnostic fired, 1 otherwise.  With ``--corpus DIR`` it verifies every fuzz
corpus case in DIR instead of a single statement.

The ``serve`` subcommand boots the async multi-tenant query service
(:mod:`repro.serve`)::

    python -m repro serve --port 8125 --workers 4 --queue-depth 64 \\
        --data warehouse_dir/

It exposes ``/query``, ``/batch``, ``/ddl``, ``/explain``, ``/metrics``
and ``/healthz`` as JSON-over-HTTP endpoints with bounded-queue admission
control (429 on overload), per-request deadlines (408), and graceful
drain on SIGINT/SIGTERM (503 while draining).  ``--data`` pre-loads a
CSV directory into the ``default`` tenant; other tenants are created on
first reference.  The server sets no execution options: a request's own
``options`` object is the only one.

The ``convert`` subcommand rewrites a data directory between the CSV
interchange format and the binary ``.cols`` column format::

    python -m repro convert warehouse_dir/ warehouse_bin/ --to binary

Binary tables load memory-mapped without a parse step; ``--data``
accepts directories holding either format (binary shadows a same-named
CSV).

The ``fuzz`` subcommand runs the differential fuzzer instead::

    python -m repro fuzz --seed 42 --iterations 500
    python -m repro fuzz --corpus tests/corpus        # replay only

Failing cases are shrunk and written as JSON under ``--out`` (default
``fuzz_failures/``); promote them into ``tests/corpus/`` to pin the
regression.  ``--metrics PATH`` additionally writes the campaign's
metrics registry as JSON.  Exit status is 0 when every point agreed
with the SQLite oracle, and every lattice point with the row kernel's
rows and counters, on every case; 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine import STRATEGIES, Database, QueryOptions, plan_for
from repro.engine.options import BACKENDS, ROLLUP_LEVELS
from repro.errors import ReproError

DEFAULT_STRATEGY = QueryOptions().strategy


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The strategy/kernel/fragmenter knobs shared by run and explain."""
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY,
        help=f"evaluation strategy (default: {DEFAULT_STRATEGY})",
    )
    parser.add_argument(
        "--partitions", type=int, default=None, metavar="N",
        help="detail partitions for partitioned evaluation",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker pool size for partitioned evaluation (default 1)",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="GMDJ scan kernel: 'auto' (default, the same as numpy), "
             "whole-array numpy, python columnar batches, "
             "or the row reference interpreter",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the plan/result cache for this run",
    )
    parser.add_argument(
        "--rollup", choices=ROLLUP_LEVELS, default="off",
        help="semantic rollup tier: answer GMDJ nodes from materialized "
             "rollups (exact signature match, or subsumption from a "
             "coarser stored rollup); default off",
    )


def query_options(args) -> QueryOptions:
    """Build the QueryOptions a parsed CLI invocation asks for."""
    return QueryOptions(
        strategy=args.strategy,
        partitions=args.partitions,
        workers=args.workers,
        backend=args.backend,
        use_cache=not args.no_cache,
        rollup=args.rollup,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GMDJ-based subquery processing over CSV tables "
                    "(Akinde & Boehlen, ICDE 2003).",
    )
    parser.add_argument("sql", help="the SELECT statement to run")
    parser.add_argument(
        "--data", type=Path, default=None,
        help="directory of *.csv files and *.cols binary tables to load",
    )
    add_execution_arguments(parser)
    parser.add_argument(
        "--index", action="append", default=[], metavar="TABLE.ATTR",
        help="create a hash index before running (repeatable)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the plan instead of executing",
    )
    parser.add_argument(
        "--emit-sql", action="store_true",
        help="print the GMDJ plan reduced to standard SQL "
             "(conditional aggregation) instead of executing",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print timing and work counters after the result",
    )
    parser.add_argument(
        "--limit", type=int, default=50,
        help="max rows to print (default 50)",
    )
    return parser


def load_data_directory(db: Database, directory: Path) -> list[str]:
    """Load every table in ``directory``; returns table names.

    ``*.csv`` files load through the text reader; ``*.cols/`` binary
    column directories (see :mod:`repro.storage.binio`) load through the
    memory-mapped reader.  A binary table shadows a same-named CSV — the
    binary form is the faster, lossless one, and ``repro convert`` keeps
    the CSV around only as interchange.
    """
    from repro.storage.binio import binary_tables, table_stem

    names = []
    binary_names = set()
    for path in binary_tables(directory):
        name = table_stem(path)
        db.load_binary(name, path)
        binary_names.add(name)
        names.append(name)
    for path in sorted(directory.glob("*.csv")):
        if path.stem in binary_names:
            continue
        db.load_csv(path.stem, path)
        names.append(path.stem)
    return sorted(names)


def build_convert_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro convert",
        description="Convert a data directory between the CSV interchange "
                    "format and the binary .cols column format "
                    "(NPY-per-column + JSON manifest, memory-mapped on "
                    "load).",
    )
    parser.add_argument(
        "source", type=Path,
        help="directory of tables to convert (*.csv and/or *.cols)",
    )
    parser.add_argument(
        "destination", type=Path,
        help="directory to write converted tables into (created if needed)",
    )
    parser.add_argument(
        "--to", choices=("binary", "csv"), default="binary",
        help="target format (default: binary)",
    )
    return parser


def convert_main(argv: list[str], out) -> int:
    from repro.storage import save_binary, save_csv

    args = build_convert_parser().parse_args(argv)
    if not args.source.is_dir():
        print(f"error: {args.source} is not a directory", file=sys.stderr)
        return 2
    db = Database()
    try:
        names = load_data_directory(db, args.source)
        if not names:
            print(f"error: no tables (*.csv or *.cols) in {args.source}",
                  file=sys.stderr)
            return 2
        args.destination.mkdir(parents=True, exist_ok=True)
        for name in names:
            relation = db.catalog.table(name)
            if args.to == "binary":
                written = save_binary(relation, args.destination / name)
            else:
                written = args.destination / f"{name}.csv"
                save_csv(relation, written)
            print(f"{name}: {len(relation)} rows -> {written}", file=out)
        print(f"converted {len(names)} table(s) to {args.to}", file=out)
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential SQL fuzzing: lattice points against a "
                    "SQLite oracle and the row kernel's rows and counters.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; every case is derived from it (default 0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=100,
        help="number of (database, query) cases to generate (default 100)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=10,
        help="max rows per generated table (default 10)",
    )
    parser.add_argument(
        "--corpus", type=Path, default=None, metavar="DIR",
        help="replay the *.json cases in DIR instead of generating",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("fuzz_failures"), metavar="DIR",
        help="directory for shrunk counterexample JSON "
             "(default fuzz_failures/)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failing cases as generated, without minimizing",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-divergence progress output",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="write the campaign's metrics registry as JSON to PATH",
    )
    return parser


def fuzz_main(argv: list[str], out) -> int:
    from repro.fuzz.runner import (
        FuzzConfig,
        load_corpus,
        replay_case,
        run_fuzz,
        save_counterexample,
    )

    args = build_fuzz_parser().parse_args(argv)
    if args.corpus is not None:
        if not args.corpus.is_dir():
            print(f"error: {args.corpus} is not a directory", file=sys.stderr)
            return 2
        cases = load_corpus(args.corpus)
        if not cases:
            print(f"error: no *.json cases in {args.corpus}", file=sys.stderr)
            return 2
        failures = 0
        for path, data in cases:
            outcome = replay_case(data)
            if outcome.ok:
                print(f"{path.name}: OK ({outcome.engines_run} points, "
                      f"{len(outcome.skipped)} skipped)", file=out)
            else:
                failures += 1
                print(f"{path.name}: DIVERGED", file=out)
                for divergence in outcome.divergences:
                    print(f"  {divergence.engine}: {divergence.kind} "
                          f"({divergence.detail})", file=out)
        print(f"replayed {len(cases)} case(s), {failures} failing", file=out)
        return 1 if failures else 0

    try:
        config = FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            max_rows=args.max_rows,
            shrink=not args.no_shrink,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    log = None if args.quiet else (lambda message: print(message, file=out))
    report = run_fuzz(config, log=log)
    for case in report.counterexamples:
        path = save_counterexample(args.out, case)
        print(f"counterexample written to {path}", file=out)
        print(f"  sql: {case.sql}", file=out)
        for divergence in case.outcome.divergences:
            print(f"  {divergence.engine}: {divergence.kind} "
                  f"({divergence.detail})", file=out)
    print(report.summary(), file=out)
    if args.metrics is not None:
        from repro.obs.metrics import get_registry

        path = get_registry().write(args.metrics)
        print(f"metrics written to {path}", file=out)
    return 0 if report.ok else 1


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically verify a query's plans without executing "
                    "them: schema/type inference, 3VL NULL-safety lints, "
                    "and the structural cost certificate.",
    )
    parser.add_argument(
        "sql", nargs="?", default=None,
        help="the SELECT statement to verify (omit with --corpus)",
    )
    parser.add_argument(
        "--data", type=Path, default=None,
        help="directory of *.csv files and *.cols binary tables to load",
    )
    parser.add_argument(
        "--index", action="append", default=[], metavar="TABLE.ATTR",
        help="create a hash index before linting (repeatable)",
    )
    parser.add_argument(
        "--corpus", type=Path, default=None, metavar="DIR",
        help="verify every fuzz corpus case (*.json) in DIR instead of "
             "a single statement",
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY,
        help="lint the plan this strategy would execute "
             f"(default: {DEFAULT_STRATEGY})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit diagnostics and the cost certificate as JSON",
    )
    parser.add_argument(
        "--no-advice", action="store_true",
        help="suppress advisory (Axxx) diagnostics",
    )
    parser.add_argument(
        "--capabilities", action="store_true",
        help="also derive the capability certificate (nullability "
             "lattice, aggregate classes, theta-block facts) per plan",
    )
    parser.add_argument(
        "--concurrency", action="append", type=Path, default=[],
        metavar="PATH",
        help="run the source-level concurrency lint (RW-lock discipline, "
             "ContextVar isolation, shared-mutable capture) over this "
             "file or directory instead of a plan (repeatable)",
    )
    return parser


def _lint_one(db: Database, sql: str, strategy: str, advice: bool):
    """Lint the plan ``strategy`` would run.

    Returns ``(report, cost_certificate, capability_certificate)``.  When
    the engine rejects the statement — the binder, the translator, or
    the plan's own schema derivation and binding — the report holds that
    error as ``L000`` and there are no certificates.
    """
    from repro.lint import (
        LintReport,
        certify_capabilities,
        certify_plan,
        lint_plan,
    )

    try:
        plan = plan_for(db.sql(sql), db.catalog, strategy)
    except ReproError as error:
        report = LintReport()
        report.add("L000", f"{type(error).__name__}: {error}", strategy)
        return report, None, None
    report = lint_plan(plan, db.catalog, advice=advice)
    if "L000" in report.codes():
        return report, None, None
    return report, certify_plan(plan), certify_capabilities(plan, db.catalog)


def _lint_concurrency(paths, as_json: bool, out) -> int:
    """Run the source-level concurrency lint over files/directories."""
    from repro.lint import lint_concurrency_paths

    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    report = lint_concurrency_paths(paths)
    if as_json:
        import json

        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _corpus_capability(database: Database, sql: str):
    """The capability certificate of a corpus case's optimized plan."""
    from repro.errors import TranslationError
    from repro.lint import certify_capabilities

    query = database.sql(sql)
    try:
        plan = plan_for(query, database.catalog, DEFAULT_STRATEGY)
    except TranslationError:
        plan = query
    return certify_capabilities(plan, database.catalog)


def _lint_corpus(args, out) -> int:
    """Verify every corpus case; exit 1 on any error-severity finding."""
    import json

    from repro.fuzz.datagen import DatabaseSpec
    from repro.fuzz.oracle import lint_findings
    from repro.fuzz.runner import load_corpus

    cases = load_corpus(args.corpus)
    if not cases:
        print(f"error: no *.json cases in {args.corpus}", file=sys.stderr)
        return 2
    failures = 0
    results = []
    for path, data in cases:
        dbspec = DatabaseSpec.from_json(data["tables"])
        database = Database()
        for name, table_spec in dbspec.tables.items():
            database.create_table(
                name, list(table_spec.columns), table_spec.rows
            )
        findings = lint_findings(database, data["sql"])
        capability = (
            _corpus_capability(database, data["sql"])
            if args.capabilities else None
        )
        if findings:
            failures += 1
        if args.json:
            entry = {
                "case": path.name,
                "ok": not findings,
                "diagnostics": [
                    dict(plan=label, **diagnostic.to_json())
                    for label, diagnostic in findings
                ],
            }
            if capability is not None:
                entry["capabilities"] = capability.to_json()
            results.append(entry)
        elif findings:
            print(f"{path.name}: {len(findings)} error(s)", file=out)
            for label, diagnostic in findings:
                print(f"  {label}: {diagnostic.render()}", file=out)
        else:
            suffix = (f" — {capability.summary()}"
                      if capability is not None else "")
            print(f"{path.name}: OK{suffix}", file=out)
    if args.json:
        print(json.dumps({
            "ok": failures == 0,
            "cases": len(cases),
            "failing": failures,
            "results": results,
        }, indent=2), file=out)
    else:
        print(f"linted {len(cases)} case(s), {failures} failing", file=out)
    return 1 if failures else 0


def lint_main(argv: list[str], out) -> int:
    args = build_lint_parser().parse_args(argv)
    if args.concurrency:
        if args.sql is not None or args.corpus is not None:
            print("error: --concurrency lints source files; it does not "
                  "combine with a SQL statement or --corpus",
                  file=sys.stderr)
            return 2
        return _lint_concurrency(args.concurrency, args.json, out)
    if (args.sql is None) == (args.corpus is None):
        print("error: provide either a SQL statement, --corpus DIR, or "
              "--concurrency PATH", file=sys.stderr)
        return 2
    try:
        if args.corpus is not None:
            if not args.corpus.is_dir():
                print(f"error: {args.corpus} is not a directory",
                      file=sys.stderr)
                return 2
            return _lint_corpus(args, out)
        db = Database()
        status = _load_and_index(db, args)
        if status:
            return status
        report, certificate, capabilities = _lint_one(
            db, args.sql, args.strategy, advice=not args.no_advice
        )
        if args.json:
            import json

            payload = {
                "lint": report.to_json(),
                "certificate": certificate and certificate.to_json(),
            }
            if args.capabilities:
                payload["capabilities"] = capabilities and capabilities.to_json()
            print(json.dumps(payload, indent=2), file=out)
        else:
            print(report.render(), file=out)
            if certificate is not None:
                print(certificate.summary(), file=out)
                if args.capabilities:
                    print(capabilities.summary(), file=out)
        return 0 if report.ok else 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Async multi-tenant query service: /query, /ddl, "
                    "/explain, /metrics, /healthz as JSON over HTTP with "
                    "bounded-queue admission control and per-request "
                    "deadlines.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="TCP port (default 8125; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="concurrent request executions (default 4)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="admitted requests allowed to wait beyond the executing "
             "ones; excess is shed with 429 (default 64)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=30_000.0, metavar="MS",
        help="default per-request deadline; requests may set their own "
             "via body deadline_ms (default 30000)",
    )
    parser.add_argument(
        "--max-tenants", type=int, default=16, metavar="N",
        help="cap on distinct tenants (default 16)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="how long graceful shutdown waits for in-flight requests "
             "(default 10)",
    )
    parser.add_argument(
        "--data", type=Path, default=None,
        help="directory of *.csv files pre-loaded into tenant 'default'",
    )
    return parser


def serve_main(argv: list[str], out) -> int:
    from repro.serve import DEFAULT_PORT, ServeConfig, run_server

    args = build_serve_parser().parse_args(argv)
    try:
        config = ServeConfig(
            host=args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            deadline_ms=args.deadline_ms,
            max_tenants=args.max_tenants,
            drain_grace_s=args.drain_grace,
        )
        if args.data is not None and not args.data.is_dir():
            print(f"error: {args.data} is not a directory", file=sys.stderr)
            return 2
        return run_server(config, data_dir=args.data)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Render a query plan, optionally executing it under "
                    "operator tracing (EXPLAIN ANALYZE).",
    )
    parser.add_argument("sql", help="the SELECT statement to explain")
    parser.add_argument(
        "--data", type=Path, default=None,
        help="directory of *.csv files and *.cols binary tables to load",
    )
    add_execution_arguments(parser)
    parser.add_argument(
        "--index", action="append", default=[], metavar="TABLE.ATTR",
        help="create a hash index before running (repeatable)",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="execute the query under tracing and annotate the plan "
             "with measured per-operator counters and times",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report's JSON payload instead of text (static "
             "plan/lint/certificate; with --analyze also the trace)",
    )
    parser.add_argument(
        "--strict-invariants", action="store_true",
        help="with --analyze: exit non-zero when a run violates one "
             "of the paper's cost invariants",
    )
    return parser


def explain_main(argv: list[str], out) -> int:
    args = build_explain_parser().parse_args(argv)
    db = Database()
    try:
        status = _load_and_index(db, args)
        if status:
            return status
        options = query_options(args)
        query = db.sql(args.sql)
        from repro.errors import InvariantViolation
        from repro.obs.explain import explain_report

        try:
            # One Explain report serves both renderings; with --analyze
            # the query executes exactly once either way.
            report = explain_report(
                db, query, options, analyze=args.analyze,
                strict=args.strict_invariants,
            )
            if args.json:
                import json

                print(json.dumps(report.json(), indent=2), file=out)
            else:
                print(report.text(), file=out)
        except InvariantViolation as violation:
            print(f"invariant violation: {violation}", file=sys.stderr)
            return 1
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _load_and_index(db: Database, args) -> int:
    """Shared --data/--index handling; returns non-zero on usage errors."""
    if args.data is not None:
        if not args.data.is_dir():
            print(f"error: {args.data} is not a directory", file=sys.stderr)
            return 2
        tables = load_data_directory(db, args.data)
        if not tables:
            print(f"error: no *.csv files in {args.data}", file=sys.stderr)
            return 2
    for spec in args.index:
        table, _, attribute = spec.partition(".")
        if not attribute:
            print(f"error: --index wants TABLE.ATTR, got {spec!r}",
                  file=sys.stderr)
            return 2
        db.create_index(table, attribute)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:], out)
    if argv and argv[0] == "explain":
        return explain_main(argv[1:], out)
    if argv and argv[0] == "lint":
        return lint_main(argv[1:], out)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:], out)
    if argv and argv[0] == "convert":
        return convert_main(argv[1:], out)
    args = build_parser().parse_args(argv)
    db = Database()
    try:
        status = _load_and_index(db, args)
        if status:
            return status
        options = query_options(args)
        if args.explain:
            print(db.explain(db.sql(args.sql), options), file=out)
            return 0
        if args.emit_sql:
            from repro.gmdj.to_sql import plan_to_sql

            plan = plan_for(db.sql(args.sql), db.catalog, DEFAULT_STRATEGY)
            print(plan_to_sql(plan, db.catalog), file=out)
            return 0
        if args.profile:
            report = db.profile_sql(args.sql, options)
            print(report.result.pretty(limit=args.limit), file=out)
            print(file=out)
            print(report.summary(), file=out)
        else:
            result = db.execute_sql(args.sql, options)
            print(result.pretty(limit=args.limit), file=out)
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
