"""Base-tuple completion (Section 4.2 of the paper).

During GMDJ evaluation a base tuple is *completed* once no further detail
tuple can change whether it appears in the final result:

* **Theorem 4.1** (``σ[|RNG| > 0]`` with aggregates projected away): a base
  tuple is completed-and-kept as soon as every required θ has matched once.
* **Theorem 4.2** (``σ[|RNG| = 0]``): a base tuple is completed-and-dropped
  as soon as a forbidden θ matches once.
* The ALL translation (``σ[cnt1 = cnt2]`` with ``θ_1 = θ_2 ∧ φ``) supports
  a pairwise form: a base tuple is dropped as soon as a detail tuple
  matches the weak block (θ_2) without matching the restrictive block
  (θ_1) — exactly the "smart nested loop" trick the paper observed in its
  target DBMS, generalized to the GMDJ.

:func:`derive_completion_rule` inspects the selection applied on top of a
GMDJ and extracts those atoms; the evaluator uses the rule to doom or
assure base tuples mid-scan and the enclosing fused operator applies the
full selection to whatever remains undecided at the end of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.expressions import (
    Column,
    Comparison,
    Expression,
    Literal,
    conjuncts_of,
)
from repro.gmdj.operator import GMDJ


@dataclass
class CompletionRule:
    """Early-decision atoms extracted from a selection over a GMDJ.

    ``must_be_zero``    block indices whose count(*) must end at 0 — one
                        match dooms the base tuple (Theorem 4.2).
    ``need_positive``   block indices whose count(*) must end > 0 — once
                        all have matched the tuple is assured, provided
                        assurance is allowed (Theorem 4.1).
    ``need_at_least``   ``(block, k)`` pairs for ``cnt >= k`` conjuncts
                        with k > 1 — assured after the k-th match (a
                        straightforward generalization of Theorem 4.1).
    ``pair_equal``      ``(restrictive, weak)`` block index pairs encoding
                        ``cnt_restrictive = cnt_weak``; a weak-only match
                        dooms the tuple (the ALL case).
    ``exhaustive``      True when *every* conjunct of the selection was
                        recognized, so satisfying all atoms is sufficient
                        (not merely necessary) for the tuple to survive.
    ``aggregates_projected``  True when the enclosing projection discards
                        every aggregate output, so a frozen (assured)
                        tuple's partial counts are never observed.
    """

    must_be_zero: list[int] = field(default_factory=list)
    need_positive: list[int] = field(default_factory=list)
    pair_equal: list[tuple[int, int]] = field(default_factory=list)
    need_at_least: list[tuple[int, int]] = field(default_factory=list)
    exhaustive: bool = False
    aggregates_projected: bool = False

    @property
    def can_doom(self) -> bool:
        return bool(self.must_be_zero or self.pair_equal)

    @property
    def can_assure(self) -> bool:
        """Assurance (freeze-and-keep) is sound only under Theorem 4.1.

        All conjuncts must be recognized threshold atoms, there must be
        nothing that a later detail tuple could still violate, and the
        aggregates must be projected away (their values will be partial).
        """
        return (
            self.exhaustive
            and self.aggregates_projected
            and bool(self.need_positive or self.need_at_least)
            and not self.must_be_zero
            and not self.pair_equal
        )

    def thresholds(self) -> dict:
        """All assurance thresholds: ``{block_index: required_matches}``."""
        needed = {index: 1 for index in self.need_positive}
        for index, count in self.need_at_least:
            needed[index] = max(needed.get(index, 0), count)
        return needed

    @property
    def useful(self) -> bool:
        return self.can_doom or self.can_assure

    def summary(self) -> str:
        """Compact one-line rendering used in trace span attributes."""
        parts = []
        if self.must_be_zero:
            parts.append("zero=" + ",".join(map(str, self.must_be_zero)))
        if self.need_positive:
            parts.append("pos=" + ",".join(map(str, self.need_positive)))
        if self.need_at_least:
            parts.append("atleast=" + ",".join(
                f"{index}:{count}" for index, count in self.need_at_least
            ))
        if self.pair_equal:
            parts.append("pair=" + ",".join(
                f"{restrictive}={weak}"
                for restrictive, weak in self.pair_equal
            ))
        parts.append(
            "doom" if self.can_doom else
            "assure" if self.can_assure else "inert"
        )
        if self.can_doom and self.can_assure:
            parts[-1] = "doom+assure"
        return " ".join(parts)


def _count_star_block_index(gmdj: GMDJ, output_name: str) -> int | None:
    """The block index whose single count(*) produces ``output_name``."""
    for index, block in enumerate(gmdj.blocks):
        for spec in block.aggregates:
            if spec.output_name == output_name:
                return index if spec.is_count_star else None
    return None


def _is_zero_literal(expression: Expression) -> bool:
    return isinstance(expression, Literal) and expression.value == 0


def _block_conjunct_keys(gmdj: GMDJ, index: int) -> set[str]:
    return {repr(c) for c in conjuncts_of(gmdj.blocks[index].condition)}


def derive_completion_rule(
    selection: Expression, gmdj: GMDJ, aggregates_projected: bool
) -> CompletionRule:
    """Extract completion atoms from ``σ[selection]`` over ``gmdj``.

    Unrecognized conjuncts are permitted — they simply leave ``exhaustive``
    False, which disables assurance but keeps dooming sound (a tuple that
    falsifies one conjunct of a conjunction fails the whole selection).
    A GMDJ holding ``single`` gets the empty rule: a completed tuple
    would stop short of the second θ-row that raises.
    """
    rule = CompletionRule(aggregates_projected=aggregates_projected)
    if gmdj.holds_single:
        return rule
    exhaustive = True
    for conjunct in conjuncts_of(selection):
        if not _classify_conjunct(conjunct, gmdj, rule):
            exhaustive = False
    rule.exhaustive = exhaustive
    return rule


def _classify_conjunct(
    conjunct: Expression, gmdj: GMDJ, rule: CompletionRule
) -> bool:
    """Try to turn one conjunct into a completion atom.  True on success."""
    if not isinstance(conjunct, Comparison):
        return False
    left, right = conjunct.left, conjunct.right
    op = conjunct.op
    # Normalize literal-first comparisons: 0 < cnt  ->  cnt > 0.
    if isinstance(left, Literal) and isinstance(right, Column):
        left, right = right, left
        op = conjunct.mirrored().op
    if isinstance(left, Column) and isinstance(right, Literal):
        index = _count_star_block_index(gmdj, left.reference)
        if index is None:
            return False
        if op == "=" and _is_zero_literal(right):
            rule.must_be_zero.append(index)
            return True
        if op == ">" and _is_zero_literal(right):
            rule.need_positive.append(index)
            return True
        if op == ">=" and isinstance(right, Literal) and right.value == 1:
            rule.need_positive.append(index)
            return True
        if (op == ">=" and isinstance(right, Literal)
                and isinstance(right.value, int) and right.value > 1):
            rule.need_at_least.append((index, right.value))
            return True
        if (op == ">" and isinstance(right, Literal)
                and isinstance(right.value, int) and right.value > 0):
            rule.need_at_least.append((index, right.value + 1))
            return True
        if op == "<>" and _is_zero_literal(right):
            rule.need_positive.append(index)
            return True
        return False
    if isinstance(left, Column) and isinstance(right, Column) and op == "=":
        index_a = _count_star_block_index(gmdj, left.reference)
        index_b = _count_star_block_index(gmdj, right.reference)
        if index_a is None or index_b is None or index_a == index_b:
            return False
        keys_a = _block_conjunct_keys(gmdj, index_a)
        keys_b = _block_conjunct_keys(gmdj, index_b)
        # cnt_restrictive = cnt_weak with θ_restrictive ⊇ θ_weak (as
        # conjunct sets) guarantees RNG_restrictive ⊆ RNG_weak, which is
        # what makes the pairwise doom sound.
        if keys_b < keys_a:
            rule.pair_equal.append((index_a, index_b))
            return True
        if keys_a < keys_b:
            rule.pair_equal.append((index_b, index_a))
            return True
        return False
    return False
