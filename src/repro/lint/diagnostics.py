"""Typed diagnostics for the static plan verifier.

A :class:`PlanDiagnostic` pins one finding to a node *path* inside the
plan tree, carries a stable rule ``code`` (see :data:`DIAGNOSTIC_CODES`),
a :class:`Severity`, a human-readable message, and an optional fix hint.
A :class:`LintReport` aggregates the findings of one
:func:`repro.lint.lint_plan` run.

Severity semantics:

* ``ERROR``   — the plan is wrong: it will raise at run time, or silently
  compute something other than SQL semantics (the 3VL hazards).
* ``WARNING`` — the plan is suspicious under the paper's NULL analysis
  (e.g. ``NOT IN`` over a column that currently holds NULLs).
* ``ADVICE``  — the plan is correct but misses a Section 3/4 rewrite
  (coalescing, base pushdown) or will degrade (no hashable θ conjunct).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    ADVICE = 1
    WARNING = 2
    ERROR = 3

    @property
    def label(self) -> str:
        return self.name.lower()


#: Every rule the linter can emit, keyed by its stable code.  Codes are
#: grouped by severity band: ``Lxxx`` errors, ``Wxxx`` warnings, ``Axxx``
#: advisories, ``Cxxx`` concurrency errors (source-level, emitted by
#: :mod:`repro.lint.concurrency` rather than :func:`lint_plan`).  Tests
#: assert each code has at least one triggering fixture — a plan fixture
#: for plan codes, a source fixture for ``Cxxx`` — so additions here
#: must come with a fixture.
DIAGNOSTIC_CODES: dict[str, str] = {
    "L001": "unknown attribute reference",
    "L002": "ambiguous attribute reference",
    "L003": "type mismatch in expression",
    "L004": "arity mismatch in set operation",
    "L005": "duplicate output attribute",
    "L006": "theta-block reference escapes base and detail scope",
    "L007": "NULL-unsafe identity link in pushed-down correlation",
    "L008": "unknown table",
    "L009": "aggregate over non-numeric argument",
    "L010": "non-predicate expression used as a filter",
    "W101": "ALL/NOT IN quantifier over a column containing NULLs",
    "W102": "comparison against a NULL literal is always UNKNOWN",
    "A201": "stacked GMDJs over the same detail table (Prop 4.1)",
    "A202": "join over a GMDJ base could push down (Thm 3.4)",
    "A203": "theta block has neither an equality to hash nor a range-form shape",
    "A204": "quantifier emulated via MIN/MAX extremum (footnote 2 hazard)",
    "C301": "state mutation under a reader lock",
    "C302": "DDL path reached without the writer lock",
    "C303": "pool submission without ContextVar isolation",
    "C304": "shared mutable captured into a pool submission",
}

_SEVERITY_BY_PREFIX = {
    "L": Severity.ERROR,
    "W": Severity.WARNING,
    "A": Severity.ADVICE,
    "C": Severity.ERROR,
}


def plan_codes() -> set[str]:
    """Codes :func:`repro.lint.lint_plan` can emit (everything but the
    source-level concurrency band)."""
    return {code for code in DIAGNOSTIC_CODES if not code.startswith("C")}


def severity_of(code: str) -> Severity:
    """The severity band a diagnostic code belongs to."""
    try:
        return _SEVERITY_BY_PREFIX[code[0]]
    except (IndexError, KeyError):
        raise ValueError(f"malformed diagnostic code {code!r}") from None


@dataclass(frozen=True)
class PlanDiagnostic:
    """One finding of the static verifier."""

    code: str
    message: str
    path: str
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(
                f"unregistered diagnostic code {self.code!r}; "
                f"add it to DIAGNOSTIC_CODES"
            )

    @property
    def severity(self) -> Severity:
        return severity_of(self.code)

    def render(self) -> str:
        """One-line human rendering: ``[L001] path: message (hint)``."""
        text = f"[{self.code}] {self.path}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "path": self.path,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """All findings of one lint run over one plan."""

    diagnostics: list[PlanDiagnostic] = field(default_factory=list)

    def add(
        self, code: str, message: str, path: str, hint: str | None = None
    ) -> None:
        self.diagnostics.append(PlanDiagnostic(code, message, path, hint))

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def at_severity(self, severity: Severity) -> list[PlanDiagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[PlanDiagnostic]:
        return self.at_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[PlanDiagnostic]:
        return self.at_severity(Severity.WARNING)

    @property
    def advice(self) -> list[PlanDiagnostic]:
        return self.at_severity(Severity.ADVICE)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic fired."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def sorted(self) -> list[PlanDiagnostic]:
        """Diagnostics worst-first, then by code, then by path."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code, d.path),
        )

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.advice)} advisory(ies)"
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(d.render() for d in self.sorted())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "summary": self.summary(),
            "diagnostics": [d.to_json() for d in self.sorted()],
        }
