"""Memory-bounded GMDJ evaluation (base-values chunking).

Section 2.3 of the paper: "In cases where the base-values table fits
into main-memory, it would be possible to evaluate this query using
GMDJs in a single scan of the detail table.  Even in those cases where
in-memory computation is not possible, simple memory management
techniques allow us to avoid unnecessary buffer thrashing and compute
the GMDJ at a well-defined cost."

The technique (from the MD-join papers the GMDJ builds on) is base
chunking: split B into fragments that fit the memory budget, and scan R
once per fragment.  The cost is *well-defined* —

    scans(R) = ceil(|B| / memory_budget)

— rather than degrading unpredictably as a paging hash table would.
This module is that fragmenter — :class:`BaseChunks`, applied by the one
node evaluator (:func:`repro.gmdj.physical.evaluate_node`) around
whatever kernel it was handed; the accompanying benchmark shows the
stepwise cost curve as B outgrows the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.gmdj.operator import GMDJ
from repro.obs.tracer import span
from repro.storage.relation import Relation
from repro.storage.schema import Schema

@dataclass(frozen=True)
class BaseChunks:
    """Hold at most ``budget`` base tuples; scan R once per base chunk.

    Bag-equivalent to the single-scan evaluation for any positive
    budget; the detail relation is scanned ``ceil(|B| / budget)`` times.
    Every chunk scans the *same* detail relation, so a batch kernel's
    columnar encoding (and its ndarray views) is built once and served
    from the relation's cache for every subsequent chunk.
    """

    budget: int

    span_name = "GMDJ(chunked)"
    span_kind = "gmdj_chunked"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigurationError(
                f"memory budget must be >= 1, got {self.budget}"
            )

    def span_attrs(self) -> dict[str, Any]:
        return {"budget": self.budget}

    def run(
        self, kernel: Callable[..., Relation], base: Relation,
        detail: Relation, gmdj: GMDJ, output_schema: Schema,
        note: Callable[..., object],
    ) -> Relation:
        note(expected_scans=detail_scans_required(len(base), self.budget))
        if len(base) <= self.budget:
            return kernel(base, detail, gmdj, output_schema)
        out_rows: list = []
        for number, start in enumerate(
            range(0, len(base), self.budget), start=1
        ):
            chunk = Relation(
                base.schema, base.rows[start:start + self.budget],
                validate=False,
            )
            with span(f"chunk {number}", kind="chunk",
                      base_rows=len(chunk)):
                partial = kernel(chunk, detail, gmdj, output_schema)
            out_rows.extend(partial.rows)
        return Relation(output_schema, out_rows, validate=False)


def detail_scans_required(base_rows: int, memory_tuples: int) -> int:
    """The well-defined cost formula: scans of R for a given budget."""
    if memory_tuples < 1:
        raise ConfigurationError(
            f"memory budget must be >= 1, got {memory_tuples}"
        )
    if base_rows == 0:
        return 1
    return math.ceil(base_rows / memory_tuples)
