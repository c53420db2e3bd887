"""Static cost certification for GMDJ plans.

The paper's cost claims are *structural*: Definition 2.1 bounds a GMDJ's
output by its base cardinality no matter what the θ-blocks say, and the
evaluation algorithm of §2.2 consumes the detail relation in exactly one
scan per evaluation regardless of how many blocks coalescing packed in.
Both facts are visible in the plan tree alone, so a
:class:`CostCertificate` can be derived without executing anything:

* one :class:`GMDJCostEntry` per GMDJ operator, carrying the claims
  ``output_rows ≤ base_rows`` and "one detail scan per evaluation";
* ``detail_scan_counts`` — for every stored table appearing as a GMDJ
  detail, the exact number of ``detail_scan`` spans an unfragmented run of
  the certified plan must produce (one per GMDJ over it);
* ``single_scan_tables`` — the Prop. 4.1 subset scanned exactly once.

The certificate is *complete* only when the tree holds no un-translated
residue (:class:`~repro.algebra.nested.NestedSelect` nodes): those
evaluate their inner plans once per outer row, so per-plan span counts
are no longer predictable from structure.
:func:`repro.obs.invariants.check_trace` only cross-checks exact counts
for complete certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.nested import NestedSelect
from repro.algebra.operators import Operator, ScanTable
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ


@dataclass(frozen=True)
class GMDJCostEntry:
    """The static cost claims of one GMDJ operator in the plan.

    ``relation`` is the stored detail table's name when the detail is a
    plain scan, else ``None`` (a derived detail still obeys both bounds,
    but its scan spans carry no stored-table attribution).
    """

    path: str
    relation: str | None
    blocks: int
    completion: bool

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "relation": self.relation,
            "blocks": self.blocks,
            "completion": self.completion,
            "claims": ["output_rows <= base_rows",
                       "1 detail scan per evaluation"],
        }


@dataclass(frozen=True)
class CostCertificate:
    """Structurally derived cost bounds for one plan.

    ``complete`` is False when the plan still contains nested residue
    (a NestedSelect), in which case only the per-operator bounds
    hold and the whole-trace scan counts are not certified.
    """

    entries: tuple[GMDJCostEntry, ...]
    detail_scan_counts: tuple[tuple[str, int], ...]
    single_scan_tables: frozenset[str]
    complete: bool

    @property
    def scan_counts(self) -> dict[str, int]:
        return dict(self.detail_scan_counts)

    def summary(self) -> str:
        if not self.entries:
            return "cost certificate: no GMDJ operators (no static claims)"
        scans = ", ".join(
            f"{table}×{count}" for table, count in self.detail_scan_counts
        )
        qualifier = "" if self.complete else " (incomplete: nested residue)"
        text = (
            f"cost certificate: {len(self.entries)} GMDJ operator(s), "
            f"output ≤ |B| each"
        )
        if scans:
            text += f"; detail scans: {scans}"
        return text + qualifier

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "entries": [entry.to_json() for entry in self.entries],
            "detail_scan_counts": {
                table: count for table, count in self.detail_scan_counts
            },
            "single_scan_tables": sorted(self.single_scan_tables),
        }


def certify_plan(plan: Operator) -> CostCertificate:
    """Derive the cost certificate of a translated plan structurally."""
    entries: list[GMDJCostEntry] = []
    counts: dict[str, int] = {}
    residue = False

    def visit(node: Operator, path: str, completion: bool) -> None:
        nonlocal residue
        if isinstance(node, SelectGMDJ):
            # The fused operator evaluates its inner GMDJ directly; the
            # pair certifies as one operator with the completion claim
            # (Thms. 4.1/4.2: fusing adds no detail scans).
            visit(node.gmdj, path, True)
            return
        if isinstance(node, NestedSelect):
            residue = True
        if isinstance(node, GMDJ):
            relation = (
                node.detail.table_name
                if isinstance(node.detail, ScanTable) else None
            )
            entries.append(GMDJCostEntry(
                path=path or "plan",
                relation=relation,
                blocks=len(node.blocks),
                completion=completion,
            ))
            if relation is not None:
                counts[relation] = counts.get(relation, 0) + 1
            visit(node.base, f"{path}/base", False)
            visit(node.detail, f"{path}/detail", False)
            return
        for position, child in enumerate(node.children()):
            visit(child, f"{path}/{type(node).__name__.lower()}[{position}]",
                  False)

    visit(plan, "", False)
    single = frozenset(
        table for table, count in counts.items() if count == 1
    )
    return CostCertificate(
        entries=tuple(entries),
        detail_scan_counts=tuple(sorted(counts.items())),
        single_scan_tables=single,
        complete=not residue,
    )


def certify_batch(certificates) -> CostCertificate:
    """Merge per-share-group certificates into one batch-level claim.

    Used by :mod:`repro.engine.mqo`: each coalesced share group carries
    its own single-scan certificate; the batch certificate sums their
    detail-scan counts, so ``single_scan_tables`` names the tables the
    whole batch promises to scan exactly once (Prop. 4.1 at workload
    scale — one detail scan per detail table per batch when every
    group over that table coalesced).
    """
    entries: list[GMDJCostEntry] = []
    counts: dict[str, int] = {}
    complete = True
    for position, certificate in enumerate(certificates):
        for entry in certificate.entries:
            entries.append(GMDJCostEntry(
                path=f"group[{position}]/{entry.path}",
                relation=entry.relation,
                blocks=entry.blocks,
                completion=entry.completion,
            ))
        for table, count in certificate.detail_scan_counts:
            counts[table] = counts.get(table, 0) + count
        complete = complete and certificate.complete
    return CostCertificate(
        entries=tuple(entries),
        detail_scan_counts=tuple(sorted(counts.items())),
        single_scan_tables=frozenset(
            table for table, count in counts.items() if count == 1
        ),
        complete=complete,
    )
