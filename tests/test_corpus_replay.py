"""Replay the committed fuzz corpus as ordinary regression tests.

Every ``tests/corpus/*.json`` file is a shrunk counterexample from a
past fuzzing campaign (or a hand-distilled NULL pitfall), stored in the
exact format ``repro fuzz`` writes.  Replaying one runs its query
through every engine against the SQLite oracle; a clean outcome means
the bug it once witnessed stays fixed.  Each case's optimized plan must
also return identical rows, in identical order, on every kernel, and so
must the case run cold then warm on the subsumption rollup tier and run
as a coalesced batch.

To add a case: run ``repro fuzz``, take the JSON it writes on a
divergence, fix the bug, confirm the replay is clean, and move the file
here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Database, QueryOptions
from repro.engine import plan_for
from repro.fuzz import replay_case
from repro.fuzz.datagen import DatabaseSpec
from repro.gmdj import evaluate_plan, select_kernel
from repro.sql import compile_sql

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def case_database(data: dict) -> Database:
    database = Database()
    for name, table in DatabaseSpec.from_json(data["tables"]).tables.items():
        database.create_table(name, list(table.columns), table.rows)
    return database


def test_corpus_is_not_empty():
    assert CORPUS_FILES, f"no corpus cases under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda path: path.stem,
)
def test_corpus_case_replays_clean(path):
    data = json.loads(path.read_text())
    outcome = replay_case(data)
    details = "\n".join(
        f"  {d.engine}: {d.kind} ({d.detail})" for d in outcome.divergences
    )
    assert outcome.ok, (
        f"{path.name} regressed — {data.get('description', '')}\n{details}"
    )
    assert outcome.engines_run > 0


@pytest.mark.parametrize("kernel", [
    "python",
    "numpy",
])
@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda path: path.stem,
)
def test_corpus_case_rows_identical_on_every_kernel(path, kernel):
    # The kernel contract is row identity with the row interpreter —
    # values, duplicates, order; python batches of 3 rows put batch
    # boundaries in every case.
    data = json.loads(path.read_text())
    catalog = DatabaseSpec.from_json(data["tables"]).build_catalog()
    plan = plan_for(compile_sql(data["sql"], catalog), catalog,
                    "gmdj_optimized")
    expected = evaluate_plan(plan, catalog, select_kernel("row")).rows
    actual = evaluate_plan(plan, catalog, select_kernel(kernel, 3)).rows
    assert actual == expected


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda path: path.stem,
)
def test_corpus_case_rows_identical_warm_and_batched(path):
    # Cold then warm on the subsumption rollup tier, then twice in one
    # batch (a batch of one never coalesces): each run returns the row
    # interpreter's rows in its order.
    data = json.loads(path.read_text())
    expected = case_database(data).execute_sql(
        data["sql"], QueryOptions(backend="row", use_cache=False)).rows
    database = case_database(data)
    for run in ("cold", "warm"):
        assert database.execute_sql(data["sql"], QueryOptions(
            rollup="subsume", use_cache=False)).rows == expected, run
    batch = case_database(data).execute_sql_batch(
        [data["sql"]] * 2, QueryOptions(use_cache=False))
    assert [result.rows for result in batch] == [expected, expected]
