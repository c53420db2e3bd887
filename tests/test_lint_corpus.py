"""The linter's soundness contract over real query corpora.

Three angles:

* every checked-in fuzz corpus case — queries the SQLite oracle accepts —
  lints clean at error severity, for the bound query and both GMDJ
  translations;
* the PR 1 translator regression (NULL-unsafe identity links), re-seeded
  via monkeypatch, is caught by its corpus case;
* the differential fuzz runner surfaces lint findings as divergences of
  the pseudo-engine ``"lint"`` and survives a crashing linter.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Database, DataType
from repro.algebra.expressions import Comparison
from repro.fuzz.datagen import DatabaseSpec
from repro.fuzz.oracle import case_database, lint_findings, run_differential
from repro.fuzz.runner import load_corpus, replay_case
from repro.lint import lint_plan
from repro.unnesting import translate
from repro.unnesting.translate import subquery_to_gmdj

CORPUS_DIR = Path(__file__).parent / "corpus"


def _database_of(data: dict) -> Database:
    return case_database(DatabaseSpec.from_json(data["tables"]))


def _corpus_cases():
    return load_corpus(CORPUS_DIR)


@pytest.mark.parametrize(
    "path,data", _corpus_cases(), ids=lambda v: v.name if isinstance(v, Path) else ""
)
def test_corpus_case_lints_clean(path, data):
    database = _database_of(data)
    findings = lint_findings(database, data["sql"])
    rendered = [f"{label}: {d.render()}" for label, d in findings]
    assert findings == [], rendered


def test_corpus_is_not_empty():
    assert len(_corpus_cases()) >= 1


class TestSeededTranslatorBug:
    """The identity-link bug PR 1 fixed: its healthy translation lints
    clean, and re-seeded, the differential catches it."""

    SQL = (
        "SELECT C.CID FROM CUSTOMER C WHERE EXISTS "
        "(SELECT O.OID FROM ORDERS O WHERE O.CID = C.CID AND O.AMT > "
        "(SELECT AVG(P.AMT) FROM PAYMENTS P WHERE P.CID = C.CID))"
    )

    @pytest.fixture
    def orders_db(self) -> Database:
        db = Database()
        db.create_table(
            "CUSTOMER",
            [("CID", DataType.INTEGER), ("GRADE", DataType.INTEGER)],
            [(1, 10), (2, None), (3, 30)],
        )
        db.create_table(
            "ORDERS",
            [("OID", DataType.INTEGER), ("CID", DataType.INTEGER),
             ("AMT", DataType.INTEGER)],
            [(1, 1, 5), (2, 2, 7), (3, 3, 9)],
        )
        db.create_table(
            "PAYMENTS",
            [("PID", DataType.INTEGER), ("CID", DataType.INTEGER),
             ("AMT", DataType.INTEGER)],
            [(1, 1, 4), (2, 2, 6)],
        )
        return db

    def test_healthy_translation_lints_clean(self, orders_db):
        plan = subquery_to_gmdj(orders_db.sql(self.SQL), orders_db.catalog)
        report = lint_plan(plan, orders_db.catalog, advice=False)
        assert report.ok, report.render()

    def test_seeded_bug_caught_by_the_corpus(self, monkeypatch):
        """Plain ``=`` identity links drop base rows holding a NULL; the
        corpus case pinned for that bug reports the missing rows."""
        monkeypatch.setattr(
            translate, "_null_safe_equal",
            lambda left, right: Comparison("=", left, right),
        )
        data = json.loads((CORPUS_DIR / "null_identity_link.json").read_text())
        outcome = replay_case(data)
        assert any(d.kind == "mismatch" for d in outcome.divergences)


class TestFuzzRunnerHook:
    @pytest.fixture
    def case(self):
        cases = _corpus_cases()
        assert cases
        return cases[0][1]

    def test_oracle_accepted_case_has_no_lint_divergence(self, case):
        dbspec = DatabaseSpec.from_json(case["tables"])
        outcome = run_differential(dbspec, case["sql"], case["sqlite_sql"])
        lint_divergences = [
            d for d in outcome.divergences if d.engine == "lint"
        ]
        assert lint_divergences == []

    def test_lint_finding_becomes_divergence(self, case, monkeypatch):
        from repro.fuzz import oracle
        from repro.lint import PlanDiagnostic

        fake = PlanDiagnostic("L003", "seeded for the hook test", "plan")
        monkeypatch.setattr(
            oracle, "lint_findings", lambda db, sql, plan: [("gmdj", fake)]
        )
        dbspec = DatabaseSpec.from_json(case["tables"])
        outcome = run_differential(dbspec, case["sql"], case["sqlite_sql"])
        lint_divergences = [
            d for d in outcome.divergences if d.engine == "lint"
        ]
        assert len(lint_divergences) == 1
        assert lint_divergences[0].kind == "lint-error"
        assert "L003" in lint_divergences[0].detail
        # The pseudo-engine must not count toward engines_run.
        baseline = run_differential(dbspec, case["sql"], case["sqlite_sql"])
        assert outcome.engines_run == baseline.engines_run

    def test_crashing_linter_becomes_divergence(self, case, monkeypatch):
        from repro.fuzz import oracle

        def boom(db, sql, plan):
            raise RuntimeError("deliberately broken linter")

        monkeypatch.setattr(oracle, "lint_findings", boom)
        dbspec = DatabaseSpec.from_json(case["tables"])
        outcome = run_differential(dbspec, case["sql"], case["sqlite_sql"])
        crashed = [
            d for d in outcome.divergences
            if d.engine == "lint" and "linter crashed" in d.detail
        ]
        assert len(crashed) == 1
