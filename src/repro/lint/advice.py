"""Advisory lints: correct plans that leave paper rewrites on the table.

* **A201** — stacked GMDJs over the same detail table would coalesce
  into a single operator (Proposition 4.1), halving detail scans; the
  plan was built or translated without ``optimize=True``.
* **A202** — a join over a GMDJ whose condition only touches the join's
  other input and the GMDJ's base can push into the base
  (Theorem 3.4), keeping the GMDJ's base-values relation small.
* **A203** — a θ-block carries no equality conjunct linking base and
  detail, and its shape is not one the array kernel's range form
  answers (at most one ``<>`` and one one-sided range between base and
  detail, plus one-sided conjuncts), so evaluation degrades to a
  per-base-tuple scan of the active list (the Figure 4 regime).
* **A204** — a scalar comparison against a MIN/MAX aggregate subquery
  with an inequality looks like the classic extremum shortcut for a
  quantifier; footnote 2 of the paper notes ``x φ MAX(S)`` is *not*
  ``x φ ALL(S)`` on an empty range (ALL is TRUE, MAX is NULL).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.analysis import factor_condition, is_trivially_true
from repro.algebra.nested import ScalarComparison
from repro.algebra.operators import Join, Select
from repro.gmdj.coalesce import merge_stacked, pull_up_base_selection
from repro.gmdj.npkernel import range_shape
from repro.gmdj.operator import GMDJ
from repro.lint.diagnostics import LintReport
from repro.storage.schema import Schema

if TYPE_CHECKING:
    from repro.lint.infer import PlanTyper


def check_missed_coalesce(gmdj: GMDJ, report: LintReport, path: str) -> None:
    """A201: this GMDJ and its base would merge under Prop 4.1."""
    mergeable = merge_stacked(gmdj) is not None
    if not mergeable and isinstance(gmdj.base, Select):
        # The coalescer's pull-up step may expose a merge.
        pulled = pull_up_base_selection(gmdj)
        mergeable = (
            pulled is not None
            and isinstance(pulled.child, GMDJ)
            and merge_stacked(pulled.child) is not None
        )
    if mergeable:
        report.add(
            "A201",
            "stacked GMDJs scan the same detail table and their blocks "
            "are independent; Proposition 4.1 coalesces them into one "
            "operator with a single detail scan",
            path,
            hint="translate with optimize=True or run "
                 "repro.gmdj.coalesce.coalesce_plan",
        )


def check_join_pushdown(
    join: Join, left_schema: Schema, typer: PlanTyper, path: str
) -> None:
    """A202: ``T ⋈_C MD(B, R)`` with C over T ∪ B pushes down (Thm 3.4)."""
    gmdj = join.right
    if not isinstance(gmdj, GMDJ):
        return
    if is_trivially_true(join.condition):
        return
    references = join.condition.references()
    if not references:
        return
    try:
        base_schema = gmdj.base.schema(typer.catalog)
        pushed = left_schema.concat(base_schema)
    except Exception:
        return
    if all(pushed.has(ref) for ref in references):
        typer.report.add(
            "A202",
            "join condition references only the left input and the "
            "GMDJ's base; Theorem 3.4 allows pushing the join into the "
            "base, keeping the base-values relation small",
            path,
            hint="rewrite with repro.gmdj.pushdown.push_join_into_base",
        )


def check_theta_hashability(
    gmdj: GMDJ,
    base_schema: Schema,
    detail_schema: Schema,
    report: LintReport,
    path: str,
) -> None:
    """A203: θ has no equality conjunct to hash, nor a shape the array
    kernel's range form answers by sorted search."""
    for position, block in enumerate(gmdj.blocks):
        condition = block.condition
        if is_trivially_true(condition):
            continue
        references = condition.references()
        if not any(base_schema.has(ref) for ref in references):
            # Base-independent block (an uncorrelated quantifier count):
            # there is no per-base grouping to hash in the first place.
            continue
        try:
            factored = factor_condition(condition, base_schema, detail_schema)
        except Exception:
            continue
        if factored.has_equality:
            continue
        shape = range_shape(condition, base_schema, detail_schema)
        if isinstance(shape, str):
            report.add(
                "A203",
                f"theta block {position} has no base=detail equality "
                f"conjunct and the range form declines it ({shape}); "
                f"evaluation scans every active base tuple per detail "
                f"row (Figure 4 regime)",
                f"{path}:blocks[{position}]:condition",
                hint="correlate on an equality, or keep to at most one "
                     "<> and one one-sided range between base and detail "
                     "columns plus conjuncts over one side: that shape "
                     "is answered by sorted search, not pairs",
            )


def check_extremum_quantifier(
    leaf: ScalarComparison, report: LintReport, path: str
) -> None:
    """A204: ``x φ (SELECT MIN/MAX ...)`` with an ordering comparison."""
    aggregate = leaf.subquery.aggregate
    if aggregate is None or aggregate.function not in ("min", "max"):
        return
    if leaf.op not in ("<", "<=", ">", ">="):
        return
    report.add(
        "A204",
        f"comparison {leaf.op!r} against {aggregate.function}() emulates "
        f"a quantifier only on non-empty ranges: on an empty range ALL "
        f"is TRUE while {aggregate.function}() is NULL (UNKNOWN) — "
        f"footnote 2",
        path,
        hint="if universal/existential semantics are intended, write "
             "ALL/SOME and let the count-pair translation handle the "
             "empty range",
    )
