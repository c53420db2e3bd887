"""Replay the committed fuzz corpus as ordinary regression tests.

Every ``tests/corpus/*.json`` file is a shrunk counterexample from a
past fuzzing campaign (or a hand-distilled NULL pitfall), stored in the
exact format ``repro fuzz`` writes.  Replaying one runs its query at
the baselines and at every lattice point against the SQLite oracle and
the row kernel's rows and counters; a clean outcome means the bug it
once witnessed stays fixed.  Each case's optimized plan must also
return the row kernel's rows on the python kernel in batches of three
rows, a batch size no ``QueryOptions`` point sets.

To add a case: run ``repro fuzz``, take the JSON it writes on a
divergence, fix the bug, confirm the replay is clean, and move the file
here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import plan_for
from repro.fuzz import replay_case
from repro.fuzz.datagen import DatabaseSpec
from repro.gmdj import evaluate_plan, select_kernel
from repro.obs.metrics import metrics_scope
from repro.sql import compile_sql

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, f"no corpus cases under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda path: path.stem,
)
def test_corpus_case_replays_clean(path):
    data = json.loads(path.read_text())
    with metrics_scope() as registry:
        outcome = replay_case(data)
    details = "\n".join(
        f"  {d.engine}: {d.kind} ({d.detail})" for d in outcome.divergences
    )
    assert outcome.ok, (
        f"{path.name} regressed — {data.get('description', '')}\n{details}"
    )
    assert outcome.engines_run > 0
    if path.stem == "rollup_subsumption_reuse":
        # Only subsumption answers its pushed-down b.k < 4 from gmdj's rollups.
        assert registry.counter("rollup.subsume_hits").value > 0


@pytest.mark.parametrize("kernel", ["python"])
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
