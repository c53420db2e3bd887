"""Counterexample minimization for failing (query, database) pairs.

Classic greedy delta-debugging, specialized to the fuzzer's IR: a move
either removes table rows (chunks of halving size, then single rows) or
applies a one-step structural simplification to the predicate tree —
take one side of an AND/OR, unwrap a NOT, clear a negation flag, drop a
subquery-local conjunct, or pull an integer literal toward zero — or to
the SELECT list: drop one subquery item, or simplify its block the same
way.  A move is kept only when the shrunk case *still fails* the
differential check, so the output reproduces the original divergence
with as little noise as possible.  Progress is measured by (total rows, predicate node count),
which strictly decreases except for literal moves (bounded separately),
so the loop terminates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from repro.fuzz.datagen import DatabaseSpec, TableSpec
from repro.fuzz.queries import (
    AndP,
    Cmp,
    ExistsP,
    InP,
    Lit,
    NotP,
    OrP,
    QuantCmp,
    QueryIR,
    ScalarCmp,
    Sub,
    predicate_size,
)

#: Re-checks are cheap (tiny cases, only the points that failed); cap
#: the total so pathological cases cannot stall a campaign.
DEFAULT_MAX_CHECKS = 400


def _predicate_candidates(node) -> Iterator:
    """One-step simplifications of a predicate tree, smaller-first."""
    if isinstance(node, (AndP, OrP)):
        yield node.left
        yield node.right
        for left in _predicate_candidates(node.left):
            yield type(node)(left, node.right)
        for right in _predicate_candidates(node.right):
            yield type(node)(node.left, right)
    elif isinstance(node, NotP):
        yield node.operand
        for operand in _predicate_candidates(node.operand):
            yield NotP(operand)
    elif isinstance(node, (ExistsP, InP)):
        if node.negated:
            yield replace(node, negated=False)
        yield from (replace(node, sub=sub)
                    for sub in _sub_candidates(node.sub))
    elif isinstance(node, (QuantCmp, ScalarCmp)):
        yield from (replace(node, sub=sub)
                    for sub in _sub_candidates(node.sub))
    elif isinstance(node, Cmp):
        for operand_name in ("left", "right"):
            operand = getattr(node, operand_name)
            if isinstance(operand, Lit) and isinstance(operand.value, int):
                if operand.value != 0:
                    yield replace(node, **{operand_name: Lit(0)})
                if abs(operand.value) > 1:
                    yield replace(
                        node, **{operand_name: Lit(operand.value // 2)})


def _sub_candidates(sub: Sub) -> Iterator[Sub]:
    if sub.where is None:
        return
    yield replace(sub, where=None)
    for where in _predicate_candidates(sub.where):
        yield replace(sub, where=where)


def _row_removal_candidates(dbspec: DatabaseSpec) -> Iterator[DatabaseSpec]:
    """Databases with one chunk of rows removed from one table."""
    for name, table in dbspec.tables.items():
        count = len(table.rows)
        chunk = count
        while chunk >= 1:
            for start in range(0, count, chunk):
                rows = table.rows[:start] + table.rows[start + chunk:]
                if len(rows) == count:
                    continue
                tables = dict(dbspec.tables)
                tables[name] = TableSpec(table.name, table.columns, rows)
                yield DatabaseSpec(tables)
            chunk //= 2


def _literal_weight(node) -> int:
    """Sum of integer-literal magnitudes — lets ``Lit -> 0`` moves count
    as progress even though they keep the node count unchanged."""
    if isinstance(node, (AndP, OrP)):
        return _literal_weight(node.left) + _literal_weight(node.right)
    if isinstance(node, NotP):
        return _literal_weight(node.operand)
    if isinstance(node, (ExistsP, InP, QuantCmp, ScalarCmp)):
        inner = node.sub.where
        return _literal_weight(inner) if inner is not None else 0
    if isinstance(node, Cmp):
        total = 0
        for operand in (node.left, node.right):
            if isinstance(operand, Lit) and isinstance(operand.value, int):
                total += abs(operand.value)
        return total
    return 0


def _query_candidates(ir: QueryIR) -> Iterator[QueryIR]:
    """One-step simplifications of the whole query, smaller-first."""
    subs = ir.select_subs
    for position in range(len(subs)):
        yield replace(ir, select_subs=subs[:position] + subs[position + 1:])
    if ir.where is not None:
        for where in _predicate_candidates(ir.where):
            yield replace(ir, where=where)
    for position, sub in enumerate(subs):
        for smaller in _sub_candidates(sub):
            yield replace(ir, select_subs=(
                subs[:position] + (smaller,) + subs[position + 1:]))


def _case_size(dbspec: DatabaseSpec, ir: QueryIR) -> tuple[int, int, int]:
    wheres = [ir.where] + [sub.where for sub in ir.select_subs]
    return (
        dbspec.total_rows(),
        sum(map(predicate_size, wheres)) + 2 * len(ir.select_subs),
        sum(_literal_weight(where) for where in wheres if where is not None),
    )


def shrink_case(
    dbspec: DatabaseSpec,
    ir: QueryIR,
    still_fails: Callable[[DatabaseSpec, QueryIR], bool],
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> tuple[DatabaseSpec, QueryIR]:
    """Greedily minimize a failing case; returns the smallest found.

    ``still_fails`` must return True exactly when the candidate case
    reproduces the original divergence.  The input case is assumed to
    fail (callers have just observed it failing).
    """
    checks = 0

    def check(candidate_db: DatabaseSpec, candidate_ir: QueryIR) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        try:
            return still_fails(candidate_db, candidate_ir)
        except Exception:
            # A candidate that crashes the harness itself is not a
            # usable reproduction; skip it.
            return False

    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate_db in _row_removal_candidates(dbspec):
            if check(candidate_db, ir):
                dbspec = candidate_db
                improved = True
                break
        for candidate_ir in _query_candidates(ir):
            before = _case_size(dbspec, ir)
            if (_case_size(dbspec, candidate_ir) < before
                    and check(dbspec, candidate_ir)):
                ir = candidate_ir
                improved = True
                break
    return dbspec, ir
