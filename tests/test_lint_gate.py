"""The planner's fail-fast lint gate, ``repro lint`` CLI, and tooling config.

``QueryOptions(lint=...)`` threads the static verifier into every
execution path: ``strict`` refuses to run a plan with error-severity
diagnostics (raising :class:`~repro.errors.LintError` *before* any
tuple is touched), ``warn`` downgrades them to :class:`LintWarning`.
The gate re-checks translations served from the plan cache, since the
translation cache key is options-independent.
"""

from __future__ import annotations

import io
import json
import warnings

import pytest

from repro import Database, DataType, LintError, QueryOptions
from repro.algebra.expressions import Comparison
from repro.cli import main
from repro.errors import ConfigurationError
from repro.lint import LintWarning
from repro.storage import Relation, save_csv
from repro.unnesting import translate

CORRELATED_SQL = (
    "SELECT C.CID FROM CUSTOMER C WHERE EXISTS "
    "(SELECT O.OID FROM ORDERS O WHERE O.CID = C.CID AND O.AMT > "
    "(SELECT AVG(P.AMT) FROM PAYMENTS P WHERE P.CID = C.CID))"
)


@pytest.fixture
def typed_db() -> Database:
    db = Database()
    db.create_table(
        "T", [("S", DataType.STRING), ("N", DataType.INTEGER)], []
    )
    return db


@pytest.fixture
def orders_db() -> Database:
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


class TestOptions:
    def test_lint_level_validation(self):
        with pytest.raises(ConfigurationError):
            QueryOptions(lint="loud")
        with pytest.raises(ConfigurationError):
            QueryOptions(lint=None)
        for level in ("off", "warn", "strict"):
            QueryOptions(lint=level)

    def test_off_normalizes_to_none_in_cache_key(self):
        assert (QueryOptions(lint="off").cache_key()
                == QueryOptions().cache_key())

    def test_lint_level_partitions_result_cache(self):
        assert (QueryOptions(lint="strict").cache_key()
                != QueryOptions().cache_key())
        assert (QueryOptions(lint="strict").cache_key()
                != QueryOptions(lint="warn").cache_key())


class TestGate:
    BAD_SQL = "SELECT T.S FROM T WHERE T.S = 1"

    def test_off_executes(self, typed_db):
        # Zero rows: the runtime never evaluates the broken predicate.
        result = typed_db.execute_sql(self.BAD_SQL)
        assert len(result) == 0

    def test_strict_raises_before_execution(self, typed_db):
        with pytest.raises(LintError) as excinfo:
            typed_db.execute_sql(
                self.BAD_SQL, QueryOptions(lint="strict")
            )
        assert any(d.code == "L003" for d in excinfo.value.diagnostics)
        assert "static plan verification failed" in str(excinfo.value)

    def test_warn_warns_and_executes(self, typed_db):
        with pytest.warns(LintWarning):
            result = typed_db.execute_sql(
                self.BAD_SQL, QueryOptions(lint="warn")
            )
        assert len(result) == 0

    def test_clean_query_passes_strict(self, typed_db):
        result = typed_db.execute_sql(
            "SELECT T.N FROM T WHERE T.N > 1", QueryOptions(lint="strict")
        )
        assert len(result) == 0

    def test_gate_covers_baseline_strategies(self, typed_db):
        with pytest.raises(LintError):
            typed_db.execute_sql(
                self.BAD_SQL,
                QueryOptions(strategy="naive", lint="strict"),
            )

    def test_strict_catches_seeded_translation_bug(self, orders_db,
                                                   monkeypatch):
        """The query itself is clean; only the translated plan is broken."""
        monkeypatch.setattr(
            translate, "_null_safe_equal",
            lambda left, right: Comparison("=", left, right),
        )
        with pytest.raises(LintError) as excinfo:
            orders_db.execute_sql(
                CORRELATED_SQL,
                QueryOptions(strategy="gmdj", lint="strict"),
            )
        assert any(d.code == "L007" for d in excinfo.value.diagnostics)

    def test_gate_rechecks_cached_translations(self, orders_db, monkeypatch):
        """A buggy plan cached by an unlinted run cannot sneak past."""
        monkeypatch.setattr(
            translate, "_null_safe_equal",
            lambda left, right: Comparison("=", left, right),
        )
        options = QueryOptions(strategy="gmdj")
        # First run translates (and caches) the buggy plan without lint.
        orders_db.execute_sql(CORRELATED_SQL, options)
        with pytest.raises(LintError):
            orders_db.execute_sql(
                CORRELATED_SQL,
                QueryOptions(strategy="gmdj", lint="strict"),
            )

    def test_healthy_translation_passes_strict(self, orders_db):
        result = orders_db.execute_sql(
            CORRELATED_SQL, QueryOptions(strategy="gmdj", lint="strict")
        )
        baseline = orders_db.execute_sql(
            CORRELATED_SQL, QueryOptions(strategy="naive")
        )
        assert sorted(result.rows) == sorted(baseline.rows)

    def test_warn_mode_emits_no_warning_on_clean_plan(self, orders_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", LintWarning)
            orders_db.execute_sql(
                CORRELATED_SQL, QueryOptions(strategy="gmdj", lint="warn")
            )


@pytest.fixture
def data_dir(tmp_path):
    flow = Relation.from_columns(
        [("SourceIP", DataType.STRING), ("NumBytes", DataType.INTEGER)],
        [("10.0.0.1", 100), ("10.0.0.2", 50)],
    )
    save_csv(flow, tmp_path / "flow.csv")
    return tmp_path


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


class TestLintCLI:
    def test_clean_query_exits_zero(self, data_dir):
        code, out = run_cli([
            "lint", "SELECT SourceIP FROM flow WHERE NumBytes > 30",
            "--data", str(data_dir),
        ])
        assert code == 0
        assert "0 error(s)" in out
        assert "cost certificate" in out

    def test_error_query_exits_one(self, data_dir):
        code, out = run_cli([
            "lint", "SELECT SourceIP FROM flow WHERE SourceIP = 5",
            "--data", str(data_dir),
        ])
        assert code == 1
        assert "[L003]" in out

    def test_json_output(self, data_dir):
        code, out = run_cli([
            "lint", "SELECT SourceIP FROM flow WHERE NumBytes > 30",
            "--data", str(data_dir), "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["lint"]["ok"] is True
        assert "certificate" in payload

    def test_usage_errors_exit_two(self, data_dir):
        code, _ = run_cli(["lint"])
        assert code == 2
        code, _ = run_cli([
            "lint", "SELECT 1", "--corpus", str(data_dir),
        ])
        assert code == 2

    def test_corpus_mode(self):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        code, out = run_cli(["lint", "--corpus", str(corpus)])
        assert code == 0
        assert "0 failing" in out

    def test_corpus_mode_json(self):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        code, out = run_cli(["lint", "--corpus", str(corpus), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failing"] == 0
        assert payload["cases"] == len(payload["results"])

    def test_no_advice_flag(self, data_dir):
        sql = ("SELECT f.SourceIP FROM flow f WHERE f.NumBytes > "
               "(SELECT MAX(g.NumBytes) FROM flow g "
               "WHERE g.SourceIP <> f.SourceIP)")
        code, noisy = run_cli([
            "lint", sql, "--data", str(data_dir), "--strategy", "naive",
        ])
        assert code == 0
        code, quiet = run_cli([
            "lint", sql, "--data", str(data_dir), "--strategy", "naive",
            "--no-advice",
        ])
        assert code == 0
        assert "advisory(ies)" in quiet
        assert "[A" not in quiet
        assert "[A204]" in noisy


class TestToolingConfig:
    """The satellite configs exist and are well-formed (the tools
    themselves run in CI; the image here does not ship them)."""

    @pytest.fixture
    def pyproject(self):
        import pathlib
        import tomllib

        root = pathlib.Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)

    def test_ruff_config(self, pyproject):
        ruff = pyproject["tool"]["ruff"]
        assert ruff["target-version"] == "py310"
        assert "F" in ruff["lint"]["select"]

    def test_mypy_strict_core(self, pyproject):
        overrides = pyproject["tool"]["mypy"]["overrides"]
        strict = [o for o in overrides
                  if "repro.lint.*" in o.get("module", [])]
        assert strict, "repro.lint.* must have a strict override"
        assert strict[0]["disallow_untyped_defs"] is True
        assert "repro.algebra.*" in strict[0]["module"]

    def test_ruff_clean_if_available(self):
        ruff = pytest.importorskip("ruff")  # noqa: F841
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "ruff", "check", "src"],
            cwd=root, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_mypy_strict_core_if_available(self):
        pytest.importorskip("mypy")
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "src/repro/lint",
             "src/repro/algebra"],
            cwd=root, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
