"""Fuzz campaigns: generate → differentiate → shrink → persist.

A campaign is fully determined by its seed: iteration *i* derives its
own ``random.Random`` from ``(seed, i)``, so any failing iteration can
be regenerated in isolation.  Failing cases are shrunk and written as
self-contained JSON counterexamples::

    {
      "description": "...",
      "seed": 42, "iteration": 17,
      "sql": "SELECT b.k, ... ",          # repro dialect
      "sqlite_sql": "SELECT b.k, ... ",   # oracle dialect
      "tables": {"B": {"columns": [["k", "integer"], ...], "rows": [...]}},
      "divergences": [{"engine": "...", "kind": "...", "detail": "..."}]
    }

Each case runs :data:`FIXED_POINTS` and :data:`DRAWN_POINTS` lattice
points drawn from a stream of their own per ``(seed, i)``, which leaves
the cases themselves as they were; the shrinker reruns only the points
that failed.  The same format is the regression corpus under
``tests/corpus/``: :func:`replay_case` reruns a case at every point.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.fuzz.datagen import DatabaseSpec, random_database
from repro.fuzz.generator import GrammarConfig, random_query
from repro.fuzz.oracle import (
    BASELINES,
    LATTICE,
    TRANSLATIONS,
    CaseOutcome,
    Point,
    point,
    run_differential,
)
from repro.fuzz.queries import QueryIR, render_repro_sql, render_sqlite_sql
from repro.fuzz.shrinker import shrink_case


@dataclass
class FuzzConfig:
    """Campaign parameters.  Everything downstream is derived from them."""

    seed: int = 0
    iterations: int = 100
    max_rows: int = 10
    shrink: bool = True
    grammar: GrammarConfig = field(default_factory=GrammarConfig)

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {self.iterations}"
            )
        if self.max_rows < 0:
            raise ConfigurationError(
                f"max_rows must be >= 0, got {self.max_rows}"
            )


@dataclass
class Counterexample:
    """A (shrunk) failing case, ready for the regression corpus."""

    seed: int
    iteration: int
    sql: str
    sqlite_sql: str
    dbspec: DatabaseSpec
    outcome: CaseOutcome
    description: str = ""

    def to_json(self) -> dict:
        return {
            "description": self.description or (
                f"fuzz divergence (seed={self.seed}, "
                f"iteration={self.iteration})"
            ),
            "seed": self.seed,
            "iteration": self.iteration,
            "sql": self.sql,
            "sqlite_sql": self.sqlite_sql,
            "tables": self.dbspec.to_json(),
            "divergences": [d.to_json() for d in self.outcome.divergences],
        }


@dataclass
class FuzzReport:
    """What a campaign did: volume, skips, and any counterexamples."""

    config: FuzzConfig
    iterations_run: int = 0
    #: Iterations whose reference raised CardinalityError.
    raised: int = 0
    engines_run: int = 0
    skips: int = 0
    certificate_violations: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        status = ("OK" if self.ok
                  else f"{len(self.counterexamples)} DIVERGENCE(S)")
        return (
            f"fuzz: {self.iterations_run} iteration(s) "
            f"({self.raised} raising), "
            f"{self.engines_run} point run(s), {self.skips} skip(s), "
            f"{self.certificate_violations} certificate violation(s), "
            f"{self.elapsed_seconds:.1f}s — {status}"
        )


def _iteration_rng(seed: int, iteration: int) -> random.Random:
    # A distinct, deterministic stream per iteration so one failing
    # iteration can be regenerated without replaying the whole campaign.
    return random.Random(seed * 1_000_003 + iteration)


def generate_case(
    config: FuzzConfig, iteration: int
) -> tuple[DatabaseSpec, QueryIR]:
    """Regenerate iteration ``iteration`` of a campaign, standalone."""
    rng = _iteration_rng(config.seed, iteration)
    dbspec = random_database(rng, max_rows=config.max_rows)
    ir = random_query(rng, config.grammar)
    return dbspec, ir


#: Lattice points each case draws beyond the fixed ones.
DRAWN_POINTS = 3

#: The points every case runs: the baselines, the row references and
#: the plain python and numpy points of both GMDJ translations.
FIXED_POINTS = BASELINES + tuple(
    point(translation, backend) for translation in TRANSLATIONS
    for backend in ("row", "python", "numpy")
    if backend == "row" or translation in ("gmdj", "gmdj_optimized"))


def case_points(seed: int, iteration: int) -> tuple[Point, ...]:
    """The points iteration ``iteration`` of a campaign runs."""
    rng = random.Random(f"points {seed} {iteration}")
    return FIXED_POINTS + tuple(rng.sample(LATTICE, DRAWN_POINTS))


def _run_ir_case(
    dbspec: DatabaseSpec, ir: QueryIR, points: Sequence[Point]
) -> CaseOutcome:
    return run_differential(
        dbspec, render_repro_sql(ir), render_sqlite_sql(ir), points,
    )


def run_fuzz(
    config: FuzzConfig, log: Callable[[str], None] | None = None
) -> FuzzReport:
    """Run a campaign; returns the report (never raises on divergence)."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    report = FuzzReport(config=config)
    started = time.perf_counter()
    for iteration in range(config.iterations):
        case_started = time.perf_counter()
        dbspec, ir = generate_case(config, iteration)
        points = case_points(config.seed, iteration)
        outcome = _run_ir_case(dbspec, ir, points)
        report.iterations_run += 1
        report.raised += outcome.raised
        report.engines_run += outcome.engines_run
        report.skips += len(outcome.skipped)
        registry.counter("fuzz.iterations").inc()
        registry.counter("fuzz.engine_runs").inc(outcome.engines_run)
        registry.counter("fuzz.skips").inc(len(outcome.skipped))
        registry.histogram("fuzz.case_ms").observe(
            (time.perf_counter() - case_started) * 1000
        )
        if outcome.ok:
            continue
        registry.counter("fuzz.divergences").inc(len(outcome.divergences))
        certified = sum(
            1 for d in outcome.divergences
            if d.kind == "certificate-violation"
        )
        if certified:
            report.certificate_violations += certified
            registry.counter("fuzz.certificate_violations").inc(certified)
        if log:
            log(f"iteration {iteration}: "
                f"{len(outcome.divergences)} divergence(s), shrinking...")
        if config.shrink:
            failing_engines = {d.engine for d in outcome.divergences}
            failing = [each for each in points
                       if each.name in failing_engines]

            def still_fails(
                candidate_db: DatabaseSpec, candidate_ir: QueryIR
            ) -> bool:
                candidate = _run_ir_case(candidate_db, candidate_ir, failing)
                return bool(
                    failing_engines
                    & {d.engine for d in candidate.divergences}
                )

            dbspec, ir = shrink_case(dbspec, ir, still_fails)
            outcome = _run_ir_case(dbspec, ir, points)
        report.counterexamples.append(Counterexample(
            seed=config.seed,
            iteration=iteration,
            sql=render_repro_sql(ir),
            sqlite_sql=render_sqlite_sql(ir),
            dbspec=dbspec,
            outcome=outcome,
        ))
    report.elapsed_seconds = time.perf_counter() - started
    return report


# -- corpus persistence ------------------------------------------------------

def save_counterexample(directory: Path, case: Counterexample) -> Path:
    """Write one counterexample JSON; returns the created path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"seed{case.seed}_iter{case.iteration}.json"
    path.write_text(json.dumps(case.to_json(), indent=2) + "\n")
    return path


def load_corpus(directory: Path) -> list[tuple[Path, dict]]:
    """All ``*.json`` cases in a corpus directory, sorted by name."""
    return [
        (path, json.loads(path.read_text()))
        for path in sorted(Path(directory).glob("*.json"))
    ]


def replay_case(data: dict) -> CaseOutcome:
    """Re-run a persisted case at every point vs. the oracle."""
    dbspec = DatabaseSpec.from_json(data["tables"])
    return run_differential(
        dbspec, data["sql"], data["sqlite_sql"],
    )
