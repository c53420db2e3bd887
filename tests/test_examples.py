"""Smoke tests: every shipped example must run cleanly end to end.

Examples are executed in-process (importing their ``main``) with stdout
captured, so failures surface as ordinary test failures with tracebacks
rather than rotting silently.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_expected_examples_present():
    assert {"quickstart", "netflow_analysis", "active_users",
            "tpcr_subqueries", "distributed_gmdj"} <= set(EXAMPLES)


def test_quickstart_shows_figure1_numbers(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    # Figure 1's exact sums must appear in the rendered table.
    assert "12" in out and "84" in out and "96" in out


def test_active_users_consistency(capsys):
    module = _load("active_users")
    module.main()
    out = capsys.readouterr().out
    assert "pushed-down User join" in out
