"""Differential SQL fuzzing with a SQLite ground-truth oracle.

The package generates random subquery SQL (all six Table-1 forms, linear
nesting, non-neighboring correlation, coalescing-eligible conjunctions)
over random NULL-heavy databases, executes each query under the
baseline strategies and at points of the GMDJ lattice (translation ×
kernel × fragmenting × rollup × result cache × batch), and compares
every result against stdlib ``sqlite3`` as an external ground truth and
every lattice point against the row kernel's rows and counters.
Failing cases are shrunk to minimal reproducible (query, database) pairs
and saved as JSON for the regression corpus in ``tests/corpus/``.

Entry points: ``repro fuzz`` on the command line, or::

    from repro.fuzz import FuzzConfig, run_fuzz
    report = run_fuzz(FuzzConfig(seed=42, iterations=500))
"""

from repro.fuzz.datagen import DatabaseSpec, TableSpec, random_database
from repro.fuzz.generator import GrammarConfig, random_query
from repro.fuzz.oracle import (
    CaseOutcome,
    Divergence,
    run_differential,
    sqlite_oracle_rows,
)
from repro.fuzz.queries import QueryIR, render_repro_sql, render_sqlite_sql
from repro.fuzz.runner import (
    Counterexample,
    FuzzConfig,
    FuzzReport,
    replay_case,
    run_fuzz,
)
from repro.fuzz.shrinker import shrink_case

__all__ = [
    "CaseOutcome",
    "Counterexample",
    "DatabaseSpec",
    "Divergence",
    "FuzzConfig",
    "FuzzReport",
    "GrammarConfig",
    "QueryIR",
    "TableSpec",
    "random_database",
    "random_query",
    "render_repro_sql",
    "render_sqlite_sql",
    "replay_case",
    "run_differential",
    "run_fuzz",
    "shrink_case",
    "sqlite_oracle_rows",
]
