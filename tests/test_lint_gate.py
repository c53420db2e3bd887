"""The ``repro lint`` CLI, ``lint_plan`` on a query, and tooling config.

The verifier is a tool, not an execution gate: ``repro lint``, EXPLAIN's
lint panel and the fuzz oracle's ``lint`` pseudo-engine run it, and a
query runs without it.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import Database, DataType, lint_plan
from repro.cli import main
from repro.storage import Relation, save_csv


def test_lint_plan_flags_a_string_compared_with_a_number():
    db = Database()
    db.create_table("T", [("S", DataType.STRING), ("N", DataType.INTEGER)])
    report = lint_plan(db.sql("SELECT T.S FROM T WHERE T.S = 1"), db.catalog)
    assert [d.code for d in report.errors] == ["L003"]
    # ... and the query still runs: zero rows, the predicate never met.
    assert len(db.execute_sql("SELECT T.S FROM T WHERE T.S = 1")) == 0


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
