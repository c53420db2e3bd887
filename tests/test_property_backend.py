"""Property-based identity: python batch kernel vs. numpy backend.

The numpy whole-array backend must be invisible everywhere except wall
clock.  ``test_physical_lattice`` already holds it to the **identical
row list** and **identical IOStats snapshot** as the python kernel on
random typed NULL-heavy data at any chunk size; this module adds the two
properties only the backend pair has: both kernels must flip
identically when invariant-block sharing is toggled, and both must
uphold capability certificates.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.nested import NestedSelect
from repro.algebra.operators import ScanTable
from repro.gmdj import evaluate_plan_vectorized
from repro.gmdj.evaluate import invariant_sharing
from repro.lint.absint import certify_capabilities
from repro.storage.iostats import collect
from repro.unnesting import subquery_to_gmdj
from tests.test_physical_lattice import (
    typed_databases as databases,
    typed_predicates as predicates,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_both(plan, catalog):
    """Evaluate on both backends under IOStats collection."""
    with collect() as python_stats:
        python_result = evaluate_plan_vectorized(
            plan, catalog, None, backend="python")
    with collect() as numpy_stats:
        numpy_result = evaluate_plan_vectorized(
            plan, catalog, None, backend="numpy")
    return python_result, python_stats, numpy_result, numpy_stats


class TestBackendIdentity:
    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           sharing=st.booleans())
    def test_identity_without_invariant_sharing(self, catalog, predicate,
                                                sharing):
        # Sharing off turns invariant blocks into scan blocks; both
        # backends must flip identically.
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog)
        with invariant_sharing(sharing):
            python_result, python_stats, numpy_result, numpy_stats = \
                _run_both(plan, catalog)
        assert python_result.rows == numpy_result.rows
        assert python_stats.snapshot() == numpy_stats.snapshot()

    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_certificates_hold_on_both_backends(self, catalog, predicate):
        from repro.obs.invariants import check_capabilities

        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        certificate = certify_capabilities(plan, catalog)
        for backend in ("python", "numpy"):
            result = evaluate_plan_vectorized(
                plan, catalog, None, backend=backend)
            report = check_capabilities(result.rows, certificate)
            assert not report.violations, (backend, report.violations)
