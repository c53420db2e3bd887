"""Static plan verification: schema/type inference, 3VL lints, cost bounds.

:func:`lint_plan` walks a (possibly nested, possibly translated) algebra
tree *without executing it* and returns a
:class:`~repro.lint.diagnostics.LintReport` of typed diagnostics —
scope/type errors, NULL-semantics hazards, and advisory notes about
paper rewrites the plan missed.  :func:`certify_plan` derives the
structural cost bounds (output ≤ |B|, single detail scan) as a
:class:`~repro.lint.cost.CostCertificate` that
:func:`repro.obs.invariants.check_trace` cross-checks against runtime
counters.

>>> from repro import Database, DataType
>>> from repro.lint import lint_plan
>>> db = Database()
>>> _ = db.create_table("T", [("K", DataType.INTEGER)], [(1,)])
>>> lint_plan(db.sql("SELECT K FROM T"), db.catalog).ok
True
"""

from __future__ import annotations

from repro.algebra.operators import Operator
from repro.lint.absint import (
    AggregateCapability,
    CapabilityCertificate,
    ColumnCapability,
    GMDJCapabilityEntry,
    Nullability,
    ThetaFact,
    capability_scope,
    certify_capabilities,
    classify_aggregate,
    classify_condition,
    classify_conjunct,
    current_capabilities,
    decomposable_aggregates,
    expression_nullability,
)
from repro.lint.concurrency import (
    lint_concurrency_paths,
    lint_concurrency_source,
)
from repro.lint.cost import CostCertificate, GMDJCostEntry, certify_batch, certify_plan
from repro.lint.diagnostics import (
    DIAGNOSTIC_CODES,
    LintReport,
    PlanDiagnostic,
    Severity,
    plan_codes,
    severity_of,
)
from repro.lint.infer import PlanTyper
from repro.storage.catalog import Catalog


def lint_plan(
    plan: Operator, catalog: Catalog, *, advice: bool = True
) -> LintReport:
    """Statically verify one plan against the given catalog.

    With ``advice=False`` the advisory (``Axxx``) rules are skipped —
    useful when linting deliberately un-optimized plans, whose missed
    rewrites are the point.
    """
    report = LintReport()
    PlanTyper(catalog, report, advice=advice).infer(plan)
    return report


__all__ = [
    "AggregateCapability",
    "CapabilityCertificate",
    "ColumnCapability",
    "CostCertificate",
    "DIAGNOSTIC_CODES",
    "GMDJCapabilityEntry",
    "GMDJCostEntry",
    "LintReport",
    "Nullability",
    "PlanDiagnostic",
    "PlanTyper",
    "Severity",
    "ThetaFact",
    "capability_scope",
    "certify_batch",
    "certify_capabilities",
    "certify_plan",
    "classify_aggregate",
    "classify_condition",
    "classify_conjunct",
    "current_capabilities",
    "decomposable_aggregates",
    "expression_nullability",
    "lint_concurrency_paths",
    "lint_concurrency_source",
    "lint_plan",
    "plan_codes",
    "severity_of",
]
