"""The differential oracle: lattice points vs. the row kernel and SQLite.

A *case* is a (database, query) pair.  The oracle runs the query at
:class:`Point`\\ s, each through ``Database.execute_batch`` (a query
sent alone is a batch of one): the baselines ``naive``, ``native`` and
``unnest_join``, and lattice points — a *translation* (``gmdj``,
``gmdj_optimized``, or a Section 4 ablation ``gmdj_coalesce`` /
``gmdj_completion``, built with the translator's ``coalesce=`` /
``completion=`` flags and run pre-translated under ``gmdj``) at one
:class:`~repro.engine.options.QueryOptions` (kernel row / python /
numpy, unfragmented or ``partitions=3`` on 1 or 2 workers, rollup off
or subsume, result cache off or on), sent alone or as a two-member
batch.

Every result is compared against stdlib ``sqlite3`` executing an
independently rendered query (NULL-aware bag equality over *normalized*
rows: ``2`` equals ``2.0``, float noise below 1e-9 is ignored), and
every lattice point is held to :func:`identity_violations`, the one
statement of the physical identity contract; each translation's cold
row-kernel run, unfragmented and alone, is also held to its plan's cost
certificate (:func:`scan_divergence`).  A
:class:`~repro.errors.TranslationError` (join unnesting on disjunctions
or non-neighboring correlation) is a skip; any other exception is a
divergence, except as :func:`raise_divergence` rules for a scalar
subquery that meets two rows: SQLite takes the first of them, so where
:data:`REFERENCE` raises :class:`~repro.errors.CardinalityError` every
point must raise it too, and SQLite judges only the cases that do not
raise.
"""

from __future__ import annotations

import functools
import itertools
import sqlite3
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.algebra.expressions import Expression
from repro.algebra.nested import (
    Apply,
    NestedSelect,
    ScalarComparison,
    collect_subquery_predicates,
)
from repro.algebra.operators import Operator
from repro.baselines.native import evaluate_naive
from repro.engine.database import Database
from repro.engine.options import ROLLUP_LEVELS, QueryOptions
from repro.engine.planner import plan_for
from repro.errors import CardinalityError, ReproError, TranslationError
from repro.fuzz.datagen import DatabaseSpec
from repro.lint.cost import certify_plan
from repro.storage import Catalog, collect
from repro.unnesting.translate import subquery_to_gmdj

if TYPE_CHECKING:
    from repro.lint import PlanDiagnostic

#: The Section 4 ablations: ``subquery_to_gmdj(optimize=True, **flags)``.
ABLATIONS = {
    "gmdj_coalesce": dict(coalesce=True, completion=False),
    "gmdj_completion": dict(coalesce=False, completion=True),
}

TRANSLATIONS = ("gmdj", "gmdj_optimized", *ABLATIONS)

KERNELS = ("row", "python", "numpy")

#: ``(partitions, workers)``: fuzz tables hold ~10 rows, so three
#: partitions split nearly every case.
FRAGMENTINGS: tuple[tuple[int | None, int | None], ...] = (
    (None, None), (3, 1), (3, 2))


@dataclass(frozen=True)
class Point:
    """Where a query runs: its translation (or baseline strategy), its
    options, and whether it is sent alone or as a two-member batch."""

    translation: str
    options: QueryOptions
    batched: bool = False

    @property
    def name(self) -> str:
        """The label a divergence carries, e.g. ``gmdj/numpy/p3w2/cache``."""
        if self.translation not in TRANSLATIONS:
            return self.translation
        o = self.options
        flags = {f"p{o.partitions}w{o.workers}": o.partitions is not None,
                 o.rollup: o.rollup != "off", "cache": o.use_cache,
                 "batch": self.batched}
        return "/".join([self.translation, o.backend,
                         *(flag for flag, on in flags.items() if on)])

    def reference(self) -> Point:
        """Its translation on the row kernel at the same ``partitions``,
        sequentially, cold and alone."""
        partitions = self.options.partitions
        return point(self.translation, partitions=partitions,
                     workers=None if partitions is None else 1)

    def unfragmented(self) -> Point:
        return point(self.translation)


def point(translation: str, backend: str = "row", rollup: str = "off",
          use_cache: bool = False, batched: bool = False,
          partitions: int | None = None,
          workers: int | None = None) -> Point:
    """The lattice point of ``translation`` at these options."""
    strategy = "gmdj" if translation in ABLATIONS else translation
    return Point(translation, QueryOptions(
        strategy, backend=backend, partitions=partitions, workers=workers,
        rollup=rollup, use_cache=use_cache), batched)


BASELINES = tuple(Point(name, QueryOptions(name))
                  for name in ("naive", "native", "unnest_join"))

#: Tuple iteration: where it raises, every point must.
REFERENCE = BASELINES[0]

LATTICE = tuple(
    point(translation, backend, rollup, use_cache, batched, *fragmenting)
    for translation, backend, fragmenting, rollup, use_cache, batched
    in itertools.product(TRANSLATIONS, KERNELS, FRAGMENTINGS, ROLLUP_LEVELS,
                         (False, True), (False, True))
)


@dataclass
class Divergence:
    """One point disagreeing with the oracle (or blowing up)."""

    engine: str
    kind: str  # mismatch | identity | error | lint-error | certificate-violation
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
    """Result of one differential case across every point."""

    divergences: list[Divergence] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    engines_run: int = 0
    #: Whether :data:`REFERENCE` raised CardinalityError.
    raised: bool = False

    @property
    def ok(self) -> bool:
        return not self.divergences


def normalize_value(value: object) -> object:
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


def normalize_rows(rows: Iterable[Sequence[object]]) -> Counter:
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


def case_database(dbspec: DatabaseSpec) -> Database:
    """A fresh engine database holding the case's tables."""
    database = Database()
    for name, table_spec in dbspec.tables.items():
        database.create_table(name, list(table_spec.columns), table_spec.rows)
    return database


def lint_findings(database: Database, repro_sql: str,
                  plan: Callable[[str], Operator] | None = None,
                  ) -> list[tuple[str, PlanDiagnostic]]:
    """Error-severity lint diagnostics for a query and its translations.

    Statically verifies the bound query tree plus both GMDJ translations
    (``plan(label)``, :func:`plan_of` by default).  Returns ``(plan_label,
    diagnostic)`` pairs — an oracle-accepted query must produce none, so
    the fuzzer reports each as a divergence of the pseudo-engine ``"lint"``.
    """
    from repro.lint import lint_plan

    findings: list[tuple[str, PlanDiagnostic]] = []
    try:
        query = database.sql(repro_sql)
    except ReproError:
        # The frontend rejected the SQL; every point will report that
        # on its own — there is no plan to verify.
        return findings
    plans = [("query", query)]
    translate = plan or (lambda label: plan_of(label, query, database.catalog))
    for strategy in ("gmdj", "gmdj_optimized"):
        try:
            plans.append((strategy, translate(strategy)))
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


def capability_violations(
        database: Database, repro_sql: str,
        observed: Mapping[Point, Observation] | None = None,
        plan: Callable[[str], Operator] | None = None) -> list[str]:
    """Cross-check capability certificates against actual evaluation.

    Both GMDJ translations of the query are certified
    (:func:`repro.lint.absint.certify_capabilities`), and the rows of
    their plain row, python and numpy points are checked against the
    certified per-column nullability: the rows ``observed`` there, or,
    without ``observed``, those of running each point here through
    ``Database.execute``; ``plan(label)`` is the plan (:func:`plan_of`
    by default).  The certificate's soundness contract is that
    this list is empty for every oracle-accepted query, so the fuzzer
    reports each entry as a divergence of the pseudo-engine
    ``"capability"``.
    """
    from repro.lint.absint import certify_capabilities, check_capabilities

    try:
        query = database.sql(repro_sql)
    except ReproError:
        return []
    problems: list[str] = []
    translate = plan or (lambda label: plan_of(label, query, database.catalog))
    for label in ("gmdj", "gmdj_optimized"):
        try:
            translated = translate(label)
        except TranslationError:
            continue
        certificate = certify_capabilities(translated, database.catalog)
        for kernel in KERNELS:
            try:
                rows = (observed[point(label, kernel)].rows[0]
                        if observed is not None
                        else database.execute(translated, QueryOptions(
                            "gmdj", backend=kernel, use_cache=False)).rows)
            except Exception:
                # Engine failures (a point missing from ``observed``
                # included) are the point loop's findings, not
                # certificate unsoundness.
                continue
            problems.extend(
                f"{label}/{kernel}: {violation}"
                for violation in check_capabilities(rows, certificate)
            )
    return problems


#: The points whose rows :func:`capability_violations` checks; every
#: :func:`run_differential` call runs them.
CAPABILITY_POINTS = tuple(point(translation, kernel)
                          for translation in ("gmdj", "gmdj_optimized")
                          for kernel in KERNELS)


@dataclass
class Observation:
    """One point's column names, each member's rows (one member when sent
    alone) and the cold run's IOStats snapshot; then, where the result
    cache or rollup store keeps state, the warm pass's rows and snapshot
    (which counts the run that primed the store, if any), and whether
    the result cache served every member."""

    columns: tuple
    rows: list[list]
    io: dict
    warm: list[list] | None = None
    warm_io: dict | None = None
    cache_served: bool = False


def observe(point: Point, query: Operator,
            fresh: Callable[[], Database]) -> Observation:
    """Run ``query`` at ``point`` on a database from ``fresh()``: cold,
    then warm if the point turns the result cache or rollup store on.
    For an ablation point ``query`` is its plan (:func:`plan_of`).

    A ``gmdj_optimized`` point with the rollup store on runs warm on a
    second fresh database whose store a plain ``gmdj`` run at the same
    options primed: its pushed-down base selections then meet the
    coarser stored rollups, which only the subsumption matcher answers.
    """
    with ExitStack() as stack:
        database = stack.enter_context(fresh())
        members = [query, query] if point.batched else [query]

        def run(database: Database,
                options: QueryOptions) -> tuple[tuple, list[list]]:
            batch = database.execute_batch(members, options)
            return (tuple(batch[0].schema.names),
                    [result.rows for result in batch])

        with collect() as stats:
            columns, rows = run(database, point.options)
        seen = Observation(columns, rows, stats.snapshot())
        if point.options.use_cache or point.options.rollup != "off":
            with collect() as stats:
                if (point.translation == "gmdj_optimized"
                        and point.options.rollup != "off"):
                    database = stack.enter_context(fresh())
                    run(database, replace(point.options, strategy="gmdj"))
                hits = database.cache.result_hits
                _, seen.warm = run(database, point.options)
            seen.warm_io = stats.snapshot()
            seen.cache_served = (database.cache.result_hits - hits
                                 == len(members))
        return seen


def plan_of(translation: str, query: Operator, catalog: Catalog) -> Operator:
    """The plan ``translation`` runs for ``query``: an ablation's
    translator flags, else :func:`~repro.engine.planner.plan_for`."""
    if translation in ABLATIONS:
        return subquery_to_gmdj(query, catalog, optimize=True,
                                **ABLATIONS[translation])
    return plan_for(query, catalog, translation)


def scan_divergence(point: Point, seen: Observation,
                    plan: Callable[[str], Operator]) -> Divergence | None:
    """At a translation's cold row-kernel point (unfragmented, rollup
    off, alone: one the cost certificate counts), ``detail_scans``
    against the certificate of ``plan(point.translation)``."""
    if point.translation not in TRANSLATIONS or point != point.unfragmented():
        return None
    problems = certify_plan(plan(point.translation)).violations(seen.io)
    return (Divergence(point.name, "certificate-violation",
                       "; ".join(problems)) if problems else None)


def identity_violations(point: Point, seen: Observation,
                        reference: Observation,
                        unfragmented: Observation) -> list[str]:
    """The identity rule every lattice point is held to, given the point's
    observation and those of ``point.reference()`` and
    ``point.unfragmented()``; returns what broke.

    * A cold run gives the reference's columns and rows, in its order,
      and its full IOStats snapshot; its ``tuples_scanned`` equals the
      unfragmented run's (fragments tile the detail).
    * A warm run repeats the cold rows (a ``gmdj_optimized`` one served
      by subsumption from plain ``gmdj``'s rollups included), and scans
      no detail table when the result cache served every member or when
      ``gmdj``'s rollup store did (every node of the plain translation
      is stored, a coalesced batch's merged node too).
    * A batch member returns the rows it returns when run alone.
    """
    problems = []
    if seen.columns != reference.columns or any(
            rows != reference.rows[0] for rows in seen.rows):
        problems.append(f"columns, rows or their order differ from "
                        f"{point.reference().name}")
    if not point.batched:
        differing = {key: (seen.io[key], value)
                     for key, value in reference.io.items()
                     if seen.io[key] != value}
        if differing:
            problems.append(f"IOStats (here, row kernel): {differing}")
        scanned = seen.io["tuples_scanned"], unfragmented.io["tuples_scanned"]
        if scanned[0] != scanned[1]:
            problems.append(f"tuples_scanned (here, unfragmented): {scanned}")
    if seen.warm is not None and seen.warm_io is not None:
        if seen.warm != seen.rows:
            problems.append("the warm run's rows differ from the cold run's")
        served = seen.cache_served or (
            point.translation == "gmdj" and point.options.rollup != "off")
        if served and seen.warm_io["detail_scans"]:
            problems.append(f"the served warm run scanned "
                            f"{seen.warm_io['detail_scans']} detail table(s)")
    return problems


def _divergence(point: Point, seen: Observation, expected: Counter,
                observed: dict[Point, Observation]) -> Divergence | None:
    for rows in seen.rows + (seen.warm or []):
        actual = normalize_rows(rows)
        if actual != expected:
            missing, extra = expected - actual, actual - expected
            return Divergence(
                point.name, "mismatch",
                f"{sum(missing.values())} row(s) missing, "
                f"{sum(extra.values())} unexpected",
                _bag_repr(expected), _bag_repr(actual),
            )
    reference = observed.get(point.reference())
    unfragmented = observed.get(point.unfragmented())
    if point.translation in TRANSLATIONS and reference and unfragmented:
        problems = identity_violations(point, seen, reference, unfragmented)
        if problems:
            return Divergence(point.name, "identity", "; ".join(problems))
    return None


def unreached_single(query: Operator, catalog: Catalog) -> bool:
    """Whether a ``single`` block's holder sits inside a block that
    iterates no row of ``catalog``: only there may a translation raise
    where :data:`REFERENCE` does not, as it evaluates the block over its
    holder's own FROM (Thm 3.2), which tuple iteration never reaches
    (DESIGN.md §5).  A block iterates all of its FROM (nothing is skipped
    in a predicate holding a ``single`` leaf); a SELECT-list item's block
    iterates its Apply's input."""

    def below(predicate: Expression, outer_empty: bool,
              source: Operator) -> bool:
        leaves = collect_subquery_predicates(predicate)
        inner_empty = bool(leaves) and (
            outer_empty or not evaluate_naive(source, catalog).rows)
        return any((outer_empty and isinstance(leaf, ScalarComparison)
                    and leaf.subquery.scalar_aggregate.function == "single")
                   or below(leaf.subquery.predicate, inner_empty,
                            leaf.subquery.source) for leaf in leaves)

    if isinstance(query, NestedSelect) and below(query.predicate, False,
                                                 query.child):
        return True
    if isinstance(query, Apply) and below(
            query.subquery.predicate,
            not evaluate_naive(query.input, catalog).rows,
            query.subquery.source):
        return True
    return any(unreached_single(child, catalog)
               for child in query.children())


def raise_divergence(point: Point, error: BaseException | None,
                     raised: Mapping[Point, type],
                     unreached: Callable[[], bool]) -> Divergence | None:
    """Hold ``point``'s outcome — ``error``, or None when it returned
    rows — to the raise rule, given the classes the points run before it
    ``raised`` (:data:`REFERENCE` and ``point.reference()`` among them).

    * Where the reference raised CardinalityError, the point raises the
      same class.
    * A lattice point raises iff its translation's row kernel raises,
      and the same class.
    * Otherwise an error is a divergence, unless it is CardinalityError
      and ``unreached()`` — a ``single`` block's holder sits under a
      block that iterates no row (:func:`unreached_single`): a case left
      to the translation.
    """
    own = None if error is None else type(error)
    expected = raised.get(REFERENCE)
    if expected is not None and issubclass(expected, CardinalityError):
        if own is expected:
            return None
        return Divergence(point.name, "mismatch" if error is None else "error",
                          f"{own.__name__ if own else 'rows'} where "
                          f"{REFERENCE.name} raised {expected.__name__}")
    if point.translation in TRANSLATIONS:
        row = raised.get(point.reference())
        if own is not row:
            return Divergence(point.name, "identity",
                              f"{own.__name__ if own else 'rows'} where "
                              f"{point.reference().name} gave "
                              f"{row.__name__ if row else 'rows'}")
    if error is None or (isinstance(error, CardinalityError)
                         and unreached()):
        return None
    return Divergence(point.name, "error", f"{type(error).__name__}: {error}")


def _with_references(points: Sequence[Point]) -> list[Point]:
    """:data:`REFERENCE` and :data:`CAPABILITY_POINTS`, then ``points``,
    each once, and each lattice point after the row-kernel points its
    identity rule compares against."""
    ordered: dict[Point, None] = {}
    for each in (REFERENCE, *CAPABILITY_POINTS, *points):
        if each.translation in TRANSLATIONS:
            ordered.setdefault(each.unfragmented())
            ordered.setdefault(each.reference())
        ordered.setdefault(each)
    return list(ordered)


def run_differential(
    dbspec: DatabaseSpec,
    repro_sql: str,
    sqlite_sql: str,
    points: Sequence[Point] = BASELINES + LATTICE,
) -> CaseOutcome:
    """Run one case at :data:`REFERENCE`, ``points``, their references
    and :data:`CAPABILITY_POINTS`: each outcome against the raise rule
    (:func:`raise_divergence`), each result against SQLite, each lattice
    point against the identity rule, each cold row-kernel point against
    its cost certificate (:func:`scan_divergence`), then the query through
    :func:`lint_findings` and the points' rows through
    :func:`capability_violations` (pseudo-engines ``lint`` and
    ``capability``)."""
    expected = sqlite_oracle_rows(dbspec, sqlite_sql)
    outcome = CaseOutcome()
    database = case_database(dbspec)
    observed: dict[Point, Observation] = {}
    raised: dict[Point, type] = {}
    # Bound once; a frontend error is raised again at every point.
    bound = functools.cache(lambda: database.sql(repro_sql))
    unreached = functools.cache(
        lambda: unreached_single(bound(), database.catalog))
    # Each translation once, for the ablation points and both checks.
    plan = functools.cache(
        lambda translation: plan_of(translation, bound(), database.catalog))
    for each in _with_references(points):
        try:
            seen = observe(
                each, plan(each.translation)
                if each.translation in ABLATIONS else bound(),
                lambda: case_database(dbspec))
        except TranslationError:
            outcome.skipped.append(each.name)
            continue
        except (Exception, RecursionError) as error:
            outcome.engines_run += 1
            raised[each] = type(error)
            divergence = raise_divergence(each, error, raised, unreached)
        else:
            outcome.engines_run += 1
            observed[each] = seen
            divergence = (raise_divergence(each, None, raised, unreached)
                          or _divergence(each, seen, expected, observed)
                          or scan_divergence(each, seen, plan))
        if divergence is not None:
            outcome.divergences.append(divergence)
    outcome.raised = REFERENCE in raised and issubclass(
        raised[REFERENCE], CardinalityError)
    static_checks = (
        ("lint", "lint-error", "linter", lambda: [
            f"{label}: {diagnostic.render()}"
            for label, diagnostic in lint_findings(database, repro_sql, plan)]),
        ("capability", "certificate-violation", "certifier",
         lambda: capability_violations(database, repro_sql, observed,
                                       plan)),
    )
    for engine, kind, checker, check in static_checks:
        try:
            details = check()
        except Exception as error:  # a checker itself must never crash
            details = [f"{checker} crashed: {type(error).__name__}: {error}"]
        outcome.divergences += [Divergence(engine, kind, detail)
                                for detail in details]
    return outcome
