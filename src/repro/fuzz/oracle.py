"""The differential oracle: every engine vs. SQLite ground truth.

A *case* is a (database, query) pair.  The oracle runs the query through

* every SQL-capable planner strategy (``naive``, ``native``,
  ``unnest_join``, ``gmdj``, ``gmdj_optimized`` — the GMDJ two on the
  ``row`` reference kernel),
* the two Section 4 ablations (``gmdj_coalesce``, ``gmdj_completion``):
  fuzz engines, not strategies — their plans are built with the
  translator's ``coalesce=`` / ``completion=`` flags and run,
  pre-translated, under ``gmdj`` — and
* the plain ``gmdj`` translation at further (kernel, fragmenter) points
  of the physical pipeline — detail-partitioned, python batch and numpy
  kernels (with deliberately tiny partitions and batches so
  fragmentation and multi-batch scans actually happen on fuzz-sized
  data), and
* the rollup-warm replay engine (``gmdj_rollup_warm``): the query runs
  cold with the semantic rollup tier on, then warm against the now-
  populated store, then once more under ``gmdj_optimized`` whose
  base-selection pushdown gives the subsumption matcher real work — a
  warm result differing from its cold twin is the classic semantic-
  cache failure mode and is reported with the dedicated divergence
  kind ``"rollup-divergence"``,

and compares each result bag against stdlib ``sqlite3`` executing an
independently rendered query.  Comparison is NULL-aware bag equality
over *normalized* rows, so ``2`` and ``2.0`` agree and float noise below
1e-9 is ignored.

Baselines that legitimately cannot express a query (join unnesting on
disjunctions or non-neighboring correlation raises
:class:`~repro.errors.TranslationError`) are recorded as skips, never as
divergences; any other exception *is* a divergence — the fuzzer treats
crashes as findings.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.options import GMDJ_STRATEGIES, QueryOptions
from repro.engine.planner import plan_for
from repro.errors import ReproError, TranslationError
from repro.fuzz.datagen import DatabaseSpec
from repro.gmdj.physical import (
    evaluate_plan,
    evaluate_plan_vectorized,
    select_fragmenter,
    select_kernel,
)
from repro.unnesting.translate import subquery_to_gmdj

#: Planner strategies the oracle drives through the SQL frontend.
STRATEGY_ENGINES = (
    "naive",
    "native",
    "unnest_join",
    "gmdj",
    "gmdj_optimized",
)

#: Ablation engines: ``subquery_to_gmdj(optimize=True, **flags)`` plans
#: executed as pre-translated plans under the ``gmdj`` strategy.
ABLATION_ENGINES = {
    "gmdj_coalesce": dict(coalesce=True, completion=False),
    "gmdj_completion": dict(coalesce=False, completion=True),
}

#: Tiny fragmentation knobs: fuzz databases hold ~10 rows per table, so
#: these force multiple partitions / batches on nearly every case.
FUZZ_PARTITIONS = 3
FUZZ_CHUNK_SIZE = 3

#: Physical-pipeline engines: a GMDJ strategy's plan evaluated at one
#: (kernel, fragmenter) point each, as ``select_kernel`` /
#: ``select_fragmenter`` keyword arguments, once per strategy of the
#: third element — ``gmdj`` is the plain translation, ``gmdj_optimized``
#: the coalesced one with its completion rules, so the array kernel
#: meets Thm 4.1/4.2 plans under the oracle too.
MODE_ENGINES = {
    "gmdj_parallel": (dict(backend="row"),
                      dict(partitions=FUZZ_PARTITIONS), ("gmdj",)),
    "gmdj_vectorized": (dict(backend="python", chunk_size=FUZZ_CHUNK_SIZE),
                        dict(), ("gmdj",)),
    "gmdj_numpy": (dict(backend="numpy", chunk_size=FUZZ_CHUNK_SIZE),
                   dict(), ("gmdj", "gmdj_optimized")),
}

#: Cold-then-warm replay through the semantic rollup store
#: (:mod:`repro.engine.rollup`); divergence kind "rollup-divergence".
ROLLUP_ENGINES = ("gmdj_rollup_warm",)

ALL_ENGINES = (STRATEGY_ENGINES + tuple(ABLATION_ENGINES)
               + tuple(MODE_ENGINES) + ROLLUP_ENGINES)


@dataclass
class Divergence:
    """One engine disagreeing with the oracle (or blowing up)."""

    engine: str
    kind: str  # "mismatch" | "error" | "lint-error"
    #          | "rollup-divergence" | "certificate-violation"
    detail: str
    expected: list | None = None
    actual: list | None = None

    def to_json(self) -> dict:
        return {
            "engine": self.engine,
            "kind": self.kind,
            "detail": self.detail,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass
class CaseOutcome:
    """Result of one differential case across every engine."""

    divergences: list[Divergence] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    engines_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def normalize_value(value):
    """Collapse cross-engine representation differences.

    Booleans become ints (SQLite has no boolean storage class), and
    floats are quantized to 1e-9 — integral floats collapse onto their
    int, so ``2`` vs ``2.0`` never reads as a divergence.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        quantized = round(value, 9)
        return int(quantized) if quantized == int(quantized) else quantized
    return value


def normalize_rows(rows) -> Counter:
    """Rows as a NULL-aware multiset of normalized tuples."""
    return Counter(tuple(normalize_value(v) for v in row) for row in rows)


def _bag_repr(bag: Counter) -> list:
    """A JSON-friendly, deterministic rendering of a row bag."""
    return sorted(
        (list(row) for row in bag.elements()),
        key=lambda row: [(v is not None, str(type(v)), v) for v in row],
    )


def sqlite_oracle_rows(dbspec: DatabaseSpec, sqlite_sql: str) -> Counter:
    """Execute the SQLite rendering against an in-memory ground truth."""
    connection = sqlite3.connect(":memory:")
    try:
        dbspec.to_sqlite(connection)
        rows = connection.execute(sqlite_sql).fetchall()
    finally:
        connection.close()
    return normalize_rows(rows)


def lint_findings(database: Database, repro_sql: str) -> list[tuple[str, object]]:
    """Error-severity lint diagnostics for a query and its translations.

    Statically verifies the bound query tree plus both GMDJ translations
    (plain and optimized).  Returns ``(plan_label, diagnostic)`` pairs —
    an oracle-accepted query must produce none, so the fuzzer reports
    each as a divergence of the pseudo-engine ``"lint"``.
    """
    from repro.lint import lint_plan

    findings: list[tuple[str, object]] = []
    try:
        query = database.sql(repro_sql)
    except ReproError:
        # The frontend rejected the SQL; every engine will report that
        # on its own — there is no plan to verify.
        return findings
    plans = [("query", query)]
    for strategy in ("gmdj", "gmdj_optimized"):
        try:
            plans.append(
                (strategy, plan_for(query, database.catalog, strategy)))
        except TranslationError:
            continue
    seen: set[tuple[str, str, str]] = set()
    for label, plan in plans:
        report = lint_plan(plan, database.catalog, advice=False)
        for diagnostic in report.errors:
            key = (diagnostic.code, diagnostic.path, diagnostic.message)
            if key in seen:
                continue
            seen.add(key)
            findings.append((label, diagnostic))
    return findings


def capability_violations(database: Database, repro_sql: str) -> list[str]:
    """Cross-check capability certificates against actual evaluation.

    Both GMDJ translations of the query are certified
    (:func:`repro.lint.absint.certify_capabilities`) and evaluated —
    on the row kernel and on each vectorized kernel — and the observed
    rows are checked against the certified per-column nullability.
    Returns human-readable violation strings; the certificate's
    soundness contract is that this list is empty for every
    oracle-accepted query, so the fuzzer reports each entry as a
    divergence of the pseudo-engine ``"capability"``.
    """
    from repro.lint.absint import certify_capabilities
    from repro.obs.invariants import check_capabilities

    try:
        query = database.sql(repro_sql)
    except ReproError:
        return []
    problems: list[str] = []
    for label in ("gmdj", "gmdj_optimized"):
        try:
            plan = plan_for(query, database.catalog, label)
        except TranslationError:
            continue
        certificate = certify_capabilities(plan, database.catalog)
        runs = [
            (label, lambda: plan.evaluate(database.catalog)),
            (f"{label}/vectorized",
             lambda: evaluate_plan_vectorized(
                 plan, database.catalog, FUZZ_CHUNK_SIZE,
                 backend="python")),
            (f"{label}/numpy",
             lambda: evaluate_plan_vectorized(
                 plan, database.catalog, FUZZ_CHUNK_SIZE,
                 backend="numpy")),
        ]
        for run_label, run in runs:
            try:
                rows = run().rows
            except Exception:
                # Engine failures are the engine loop's findings, not
                # certificate unsoundness.
                continue
            report = check_capabilities(rows, certificate)
            problems.extend(
                f"{run_label}: {violation}"
                for violation in report.violations
            )
    return problems


def _rollup_warm_divergence(
    database: Database, repro_sql: str, expected: Counter,
) -> Divergence | None:
    """Cold/warm/optimized-warm replay through the rollup store.

    Three runs against the case database: cold under ``gmdj`` with the
    rollup tier on (this populates the store), warm with the same
    options (exact-tier serving), and once under ``gmdj_optimized``
    whose pushed-down base selections exercise subsumption matching.
    A warm result differing from its cold twin — or from the SQLite
    oracle — is a stale/unsound cache hit, the failure class this
    engine exists to catch.
    """
    cold_options = QueryOptions(
        strategy="gmdj", backend="row", rollup="subsume", use_cache=False,
    )
    optimized_options = QueryOptions(
        strategy="gmdj_optimized", backend="row", rollup="subsume",
        use_cache=False,
    )
    cold = normalize_rows(
        database.execute_sql(repro_sql, cold_options).rows)
    warm = normalize_rows(
        database.execute_sql(repro_sql, cold_options).rows)
    optimized = normalize_rows(
        database.execute_sql(repro_sql, optimized_options).rows)
    if cold != expected:
        missing = expected - cold
        extra = cold - expected
        return Divergence(
            engine="gmdj_rollup_warm", kind="mismatch",
            detail=(f"cold run: {sum(missing.values())} row(s) missing, "
                    f"{sum(extra.values())} unexpected"),
            expected=_bag_repr(expected), actual=_bag_repr(cold),
        )
    if warm != cold:
        return Divergence(
            engine="gmdj_rollup_warm", kind="rollup-divergence",
            detail="warm replay diverged from its own cold evaluation",
            expected=_bag_repr(cold), actual=_bag_repr(warm),
        )
    if optimized != expected:
        return Divergence(
            engine="gmdj_rollup_warm", kind="rollup-divergence",
            detail=("rollup-warm gmdj_optimized run diverged from the "
                    "oracle"),
            expected=_bag_repr(expected), actual=_bag_repr(optimized),
        )
    return None


def run_differential(
    dbspec: DatabaseSpec,
    repro_sql: str,
    sqlite_sql: str,
    engines=ALL_ENGINES,
) -> CaseOutcome:
    """Run one case through every engine and diff against SQLite.

    Besides executing, the case is *statically verified*: the linter
    (:mod:`repro.lint`) runs over the query and its GMDJ translations,
    and any error-severity diagnostic is reported as a divergence of the
    pseudo-engine ``"lint"`` — the linter's soundness contract is that
    it never fires at error severity on an oracle-accepted query.
    """
    expected = sqlite_oracle_rows(dbspec, sqlite_sql)
    outcome = CaseOutcome()
    database = Database()
    for name, table_spec in dbspec.tables.items():
        database.create_table(name, list(table_spec.columns), table_spec.rows)
    try:
        for label, diagnostic in lint_findings(database, repro_sql):
            outcome.divergences.append(Divergence(
                engine="lint", kind="lint-error",
                detail=f"{label}: {diagnostic.render()}",
            ))
    except Exception as error:  # the linter itself must never crash
        outcome.divergences.append(Divergence(
            engine="lint", kind="lint-error",
            detail=f"linter crashed: {type(error).__name__}: {error}",
        ))
    try:
        for problem in capability_violations(database, repro_sql):
            outcome.divergences.append(Divergence(
                engine="capability", kind="certificate-violation",
                detail=problem,
            ))
    except Exception as error:  # nor must the certifier
        outcome.divergences.append(Divergence(
            engine="capability", kind="certificate-violation",
            detail=f"certifier crashed: {type(error).__name__}: {error}",
        ))
    for engine in engines:
        try:
            if engine in ROLLUP_ENGINES:
                divergence = _rollup_warm_divergence(
                    database, repro_sql, expected)
                outcome.engines_run += 1
                if divergence is not None:
                    outcome.divergences.append(divergence)
                continue
            if engine in MODE_ENGINES:
                kernel, fragmenter, strategies = MODE_ENGINES[engine]
                query = database.sql(repro_sql)
                results = [
                    evaluate_plan(
                        plan_for(query, database.catalog, strategy),
                        database.catalog, select_kernel(**kernel),
                        select_fragmenter(**fragmenter))
                    for strategy in strategies
                ]
            elif engine in ABLATION_ENGINES:
                plan = subquery_to_gmdj(
                    database.sql(repro_sql), database.catalog,
                    optimize=True, **ABLATION_ENGINES[engine])
                results = [database.execute(
                    plan, QueryOptions("gmdj", backend="row"))]
            else:
                backend = "row" if engine in GMDJ_STRATEGIES else "auto"
                results = [database.execute_sql(
                    repro_sql, QueryOptions(engine, backend=backend))]
        except TranslationError:
            outcome.skipped.append(engine)
            continue
        except (Exception, RecursionError) as error:
            outcome.engines_run += 1
            outcome.divergences.append(Divergence(
                engine=engine, kind="error",
                detail=f"{type(error).__name__}: {error}",
            ))
            continue
        outcome.engines_run += 1
        for result in results:
            actual = normalize_rows(result.rows)
            if actual != expected:
                missing = expected - actual
                extra = actual - expected
                outcome.divergences.append(Divergence(
                    engine=engine, kind="mismatch",
                    detail=(f"{sum(missing.values())} row(s) missing, "
                            f"{sum(extra.values())} unexpected"),
                    expected=_bag_repr(expected),
                    actual=_bag_repr(actual),
                ))
                break
    return outcome
