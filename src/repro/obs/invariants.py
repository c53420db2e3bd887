"""Runtime checking of the paper's cost guarantees over finished traces.

The GMDJ's selling points are checkable statements about a trace:

* **Single scan** (§2.2, Prop. 4.1): every plain or completion-fused
  GMDJ evaluation consumes its detail relation in exactly one scan,
  regardless of how many θ-blocks coalescing packed into it.
* **Output bound** (Def. 2.1): a GMDJ emits at most one tuple per base
  tuple — ``output_rows ≤ base_rows``.
* **Completion is free** (Thms. 4.1/4.2): fusing a completion rule
  never adds detail scans; the span structure of a ``SelectGMDJ`` must
  show the same single scan as the plain operator.
* **Partitioning costs no volume**: partitioned evaluation scans, in
  total, exactly the detail's tuple count — fragments never overlap.
* **Query-level single scan** (Prop. 4.1, caller-supplied): when the
  caller asserts a table is the detail of one coalesced GMDJ (e.g. the
  optimizer merged every subquery over it), that table is detail-scanned
  at most once in the whole trace.  A de-coalesced plan trips this.

:func:`check_trace` runs every check, returning an
:class:`InvariantReport`; ``strict=True`` raises
:class:`~repro.errors.InvariantViolation` instead of recording
warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import CertificateViolation, InvariantViolation
from repro.obs.tracer import Span, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.absint import CapabilityCertificate

#: Span kinds that own the detail scans performed beneath them.
_OWNER_KINDS = frozenset({"gmdj", "gmdj_partitioned"})


@dataclass
class InvariantReport:
    """Outcome of one checking pass over a trace."""

    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"invariants: {self.checked} checked, all hold"
        lines = [f"invariants: {self.checked} checked, "
                 f"{len(self.violations)} VIOLATED"]
        lines.extend(f"  !! {violation}" for violation in self.violations)
        return "\n".join(lines)


def _attribute_scans(trace: Trace) -> dict[int, tuple[Span, list[Span]]]:
    """Map each owner span to the detail scans it is responsible for.

    A ``detail_scan`` span belongs to its *nearest* enclosing owner, so
    a nested GMDJ (a linearly-nested subquery materialized inside the
    outer detail) never pollutes the outer operator's accounting.
    """
    owners: dict[int, tuple[Span, list[Span]]] = {}

    def visit(span_: Span, owner: Span | None) -> None:
        if span_.kind == "detail_scan" and owner is not None:
            owners[id(owner)][1].append(span_)
        next_owner = owner
        if span_.kind in _OWNER_KINDS:
            owners.setdefault(id(span_), (span_, []))
            next_owner = span_
        for child in span_.children:
            visit(child, next_owner)

    for root in trace.roots:
        visit(root, None)
    return owners


def check_trace(
    trace: Trace,
    single_scan_tables: tuple[str, ...] | frozenset[str] = (),
    strict: bool = False,
    certificate=None,
) -> InvariantReport:
    """Check every cost invariant the trace makes claims about.

    ``single_scan_tables`` names stored relations the caller expects to
    be detail-scanned at most once across the whole trace — the
    Prop. 4.1 claim for a fully coalesced plan.  ``certificate`` is an
    optional statically derived
    :class:`~repro.lint.cost.CostCertificate` for the executed plan;
    when it is *complete* (no nested residue) its exact per-table
    detail-scan counts and GMDJ operator count are cross-checked
    against the trace, and its single-scan tables join the caller's.
    With ``strict`` the first report of any violation raises
    :class:`~repro.errors.InvariantViolation`; otherwise violations are
    collected on the report for the caller to surface as warnings.
    """
    report = InvariantReport()
    if certificate is not None:
        single_scan_tables = (
            frozenset(single_scan_tables) | certificate.single_scan_tables
        )

    for owner, scans in _attribute_scans(trace).values():
        if owner.kind == "gmdj":
            report.checked += 1
            if len(scans) != 1:
                claim = ("completion-fused GMDJ"
                         if owner.attrs.get("completion") else "GMDJ")
                report.violations.append(
                    f"single-scan: {claim} over "
                    f"{owner.attrs.get('relation')!r} performed "
                    f"{len(scans)} detail scans (expected exactly 1)"
                )
            report.checked += 1
            base_rows = owner.attrs.get("base_rows")
            output_rows = owner.attrs.get("output_rows")
            if (base_rows is not None and output_rows is not None
                    and output_rows > base_rows):
                report.violations.append(
                    f"|B|-bound: GMDJ over {owner.attrs.get('relation')!r} "
                    f"emitted {output_rows} rows from a "
                    f"{base_rows}-row base"
                )
        elif owner.kind == "gmdj_partitioned":
            report.checked += 1
            detail_rows = owner.attrs.get("detail_rows")
            scanned = sum(scan.attrs.get("rows", 0) for scan in scans)
            if detail_rows is not None and scans and scanned != detail_rows:
                report.violations.append(
                    f"partition-volume: {len(scans)} fragments scanned "
                    f"{scanned} tuples of a {detail_rows}-tuple detail "
                    f"(fragments must tile it exactly)"
                )
            # Def. 2.1 survives the columnwise merge: however many
            # workers computed partials, the merged output still has at
            # most one tuple per base tuple.
            report.checked += 1
            base_rows = owner.attrs.get("base_rows")
            output_rows = owner.attrs.get("output_rows")
            if (base_rows is not None and output_rows is not None
                    and output_rows > base_rows):
                report.violations.append(
                    f"|B|-bound: partitioned GMDJ over "
                    f"{owner.attrs.get('relation')!r} emitted "
                    f"{output_rows} rows from a {base_rows}-row base"
                )

    # Rollup-tier invariants: a hit answers its GMDJ from the stored
    # rollup, so no detail scan may occur beneath it — and a query served
    # entirely from the store (hits, no misses, no live GMDJ evaluation)
    # must perform zero detail scans anywhere.  This is the runtime
    # counterpart of the static cost certificate for rollup-served plans.
    rollup_hits = [s for s in trace.walk() if s.kind == "rollup_hit"]
    for hit in rollup_hits:
        report.checked += 1
        nested = [s for s in hit.walk() if s.kind == "detail_scan"]
        if nested:
            report.violations.append(
                f"rollup-zero-scan: a {hit.attrs.get('tier')}-tier rollup "
                f"hit performed {len(nested)} detail scan(s) "
                f"(a served rollup must not touch the detail relation)"
            )
    if rollup_hits and not any(
        s.kind == "rollup_miss" or s.kind in _OWNER_KINDS
        for s in trace.walk()
    ):
        report.checked += 1
        scans = [s for s in trace.walk() if s.kind == "detail_scan"]
        if scans:
            report.violations.append(
                f"rollup-served: the plan was answered entirely from the "
                f"rollup store yet performed {len(scans)} detail scan(s)"
            )

    for table in sorted(single_scan_tables):
        report.checked += 1
        scans = [
            span_ for span_ in trace.walk()
            if span_.kind == "detail_scan"
            and span_.attrs.get("relation") == table
        ]
        if len(scans) > 1:
            report.violations.append(
                f"coalesced-single-scan: detail relation {table!r} was "
                f"scanned {len(scans)} times; a coalesced plan scans it "
                f"once (Prop. 4.1)"
            )

    if certificate is not None and certificate.complete:
        spans = list(trace.walk())
        report.checked += 1
        gmdj_spans = [s for s in spans if s.kind == "gmdj"]
        if len(gmdj_spans) != len(certificate.entries):
            report.violations.append(
                f"certificate: plan certified {len(certificate.entries)} "
                f"GMDJ operator(s), trace shows {len(gmdj_spans)} "
                f"gmdj span(s)"
            )
        for table, expected in certificate.detail_scan_counts:
            report.checked += 1
            actual = sum(
                1 for s in spans
                if s.kind == "detail_scan"
                and s.attrs.get("relation") == table
            )
            if actual != expected:
                report.violations.append(
                    f"certificate: detail relation {table!r} certified "
                    f"for exactly {expected} scan(s), trace shows {actual}"
                )

    if strict and report.violations:
        raise InvariantViolation(
            "trace violates paper invariants:\n" + "\n".join(
                f"  - {violation}" for violation in report.violations
            )
        )
    return report


def check_capabilities(
    rows: Iterable[Sequence[object]],
    certificate: "CapabilityCertificate",
    strict: bool = False,
) -> InvariantReport:
    """Cross-check a capability certificate against observed result rows.

    The runtime counterpart of
    :func:`repro.lint.absint.certify_capabilities`: the lattice claims
    are sound over-approximations, so observing a NULL in a NEVER-null
    column — or a non-NULL in an ALWAYS-null column — is a hard
    analysis bug.  ``MAYBE`` columns make no checkable claim.  With
    ``strict`` the first violation raises
    :class:`~repro.errors.CertificateViolation`; otherwise violations
    collect on the report like the cost checks above.
    """
    from repro.lint.absint import ALWAYS, NEVER

    report = InvariantReport()
    checkable = [
        (position, column)
        for position, column in enumerate(certificate.columns)
        if column.nullability in (NEVER, ALWAYS)
    ]
    report.checked += len(checkable)
    if not checkable:
        return report
    for row in rows:
        for position, column in checkable:
            value = row[position]
            if column.nullability is NEVER and value is None:
                report.violations.append(
                    f"nullability: column {column.name!r} certified "
                    f"NEVER-null, observed NULL"
                )
            elif column.nullability is ALWAYS and value is not None:
                report.violations.append(
                    f"nullability: column {column.name!r} certified "
                    f"ALWAYS-null, observed {value!r}"
                )
        if report.violations:
            break
    if strict and report.violations:
        raise CertificateViolation(
            "observed rows violate the capability certificate:\n"
            + "\n".join(f"  - {v}" for v in report.violations)
        )
    return report
