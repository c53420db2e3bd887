"""Run the doctests embedded in module documentation."""

import doctest
import importlib

import pytest

MODULES = [
    "repro.engine.database",
    "repro.storage.iostats",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, "expected at least one doctest"
