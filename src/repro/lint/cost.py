"""Static cost certification for GMDJ plans.

The paper's cost claims are *structural*: Definition 2.1 bounds a GMDJ's
output by its base cardinality no matter what the θ-blocks say, and the
evaluation algorithm of §2.2 consumes the detail relation in exactly one
scan per evaluation regardless of how many blocks coalescing packed in
(a completion-fused node too, Thms. 4.1/4.2; one scan of a coalesced
detail, Prop. 4.1).  Both facts are visible in the plan tree alone, so a
:class:`CostCertificate` can be derived without executing anything:

* one :class:`GMDJCostEntry` per GMDJ evaluation the plan walk makes —
  a GMDJ that a pushed-down copy repeats runs once
  (:func:`repro.gmdj.physical.served_from` decides which), carrying
  the claims ``output_rows ≤ base_rows`` and "one detail scan per
  evaluation";
* ``detail_scan_counts`` — for every stored table appearing as a GMDJ
  detail, the number of scans an unfragmented run makes of it;
* ``single_scan_tables`` — the Prop. 4.1 subset scanned exactly once.

:meth:`CostCertificate.violations` holds an unfragmented, rollup-free
run's IOStats to the scan claim; :func:`repro.gmdj.physical.
evaluate_node` raises past output ≤ |B| on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import Distinct, Operator, ScanTable
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ
from repro.gmdj.physical import served_from


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
    """Structurally derived cost bounds for one plan."""

    entries: tuple[GMDJCostEntry, ...]
    detail_scan_counts: tuple[tuple[str, int], ...]
    single_scan_tables: frozenset[str]

    @property
    def scan_counts(self) -> dict[str, int]:
        return dict(self.detail_scan_counts)

    def violations(self, counters: dict) -> list[str]:
        """What an unfragmented, rollup-free run's IOStats ``counters``
        contradict: each certified GMDJ evaluation scans its detail
        exactly once, so ``detail_scans`` equals their count."""
        scans = counters.get("detail_scans", 0)
        if scans == len(self.entries):
            return []
        return [f"single-scan: the plan certifies {len(self.entries)} "
                f"GMDJ evaluation(s), one detail scan each (§2.2, "
                f"Prop. 4.1), IOStats counted {scans} detail scan(s)"]

    def summary(self) -> str:
        if not self.entries:
            return "cost certificate: no GMDJ operators (no static claims)"
        scans = ", ".join(
            f"{table}×{count}" for table, count in self.detail_scan_counts
        )
        text = (
            f"cost certificate: {len(self.entries)} GMDJ operator(s), "
            f"output ≤ |B| each"
        )
        if scans:
            text += f"; detail scans: {scans}"
        return text

    def to_json(self) -> dict:
        return {
            "entries": [entry.to_json() for entry in self.entries],
            "detail_scan_counts": {
                table: count for table, count in self.detail_scan_counts
            },
            "single_scan_tables": sorted(self.single_scan_tables),
        }


def certify_plan(plan: Operator) -> CostCertificate:
    """Derive the cost certificate of a translated plan structurally:
    one entry per GMDJ evaluation, in the walk's order."""
    entries: list[GMDJCostEntry] = []
    counts: dict[str, int] = {}
    served: dict[int, Operator] | None = None
    ran: set[int] = set()

    def visit(node: Operator, path: str, copy: bool) -> None:
        nonlocal served
        if isinstance(node, (GMDJ, SelectGMDJ)):
            if copy:
                served = served_from(plan) if served is None else served
                source = served.get(id(node))
                if source is not None and id(source) in ran:
                    return
            # A fused node evaluates its inner GMDJ directly: the pair
            # certifies as one operator with the completion claim
            # (Thms. 4.1/4.2: fusing adds no detail scans).
            gmdj = node.gmdj if isinstance(node, SelectGMDJ) else node
            visit(gmdj.base, f"{path}/base", copy)
            visit(gmdj.detail, f"{path}/detail", copy)
            detail = gmdj.detail
            relation = detail.table_name if isinstance(detail, ScanTable) else None
            entries.append(GMDJCostEntry(path or "plan", relation,
                                         len(gmdj.blocks), gmdj is not node))
            if relation is not None:
                counts[relation] = counts.get(relation, 0) + 1
            ran.add(id(node))
            return
        for position, child in enumerate(node.children()):
            visit(child, f"{path}/{type(node).__name__.lower()}[{position}]",
                  copy or isinstance(node, Distinct))

    visit(plan, "", False)
    return _certificate(entries, counts)


def _certificate(entries: list[GMDJCostEntry],
                 counts: dict[str, int]) -> CostCertificate:
    return CostCertificate(
        entries=tuple(entries),
        detail_scan_counts=tuple(sorted(counts.items())),
        single_scan_tables=frozenset(
            table for table, count in counts.items() if count == 1
        ),
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
    return _certificate(entries, counts)
