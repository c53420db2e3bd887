"""Static plan verification: the engine's own errors, 3VL lints, cost bounds.

:func:`lint_plan` walks a (possibly nested, possibly translated) algebra
tree *without executing it* and returns a
:class:`~repro.lint.diagnostics.LintReport` of typed diagnostics.  What
the engine itself rejects before reading a row — an unknown or
ambiguous name, a set-operation arity, a duplicate output, ``SUM`` over
a string — is obtained from the engine's own schema derivation and
binder and reported as ``L000`` with the engine's message.  The rules
proper are only those the engine does not enforce: a string compared
with a number (``L003``, which the engine hits only on a row), the 3VL
hazards of valid SQL (``W101``/``W102``) and advisory notes about paper
rewrites the plan missed.  DESIGN.md's mutation table is each rule's
justification.  :func:`certify_plan` derives the structural cost bounds
(output ≤ |B|, one detail scan per GMDJ evaluation) as a
:class:`~repro.lint.cost.CostCertificate`, whose
:meth:`~repro.lint.cost.CostCertificate.violations` holds a run's
IOStats counters to them.

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

    The engine's own typed errors come back as ``L000``; with
    ``advice=False`` the advisory (``Axxx``) rules are skipped —
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
