"""The one physical GMDJ pipeline: fragmenter → kernel → merge → finalize.

The paper defines a single operator — ``MD(B, R, l, θ)`` evaluated in
one scan of R (Def. 2.1), detail-partitioned because per-base-tuple
partials merge (conclusion) — and this module evaluates it in a single
place:

* a **kernel** is any callable with the signature
  :func:`~repro.gmdj.evaluate.run_gmdj` and
  :func:`~repro.gmdj.vectorized.run_gmdj_vectorized` share —
  ``(base, detail, gmdj, output_schema, rule, selection) -> Relation``
  over materialized operands.  :func:`select_kernel` is the one place a
  ``backend`` becomes one (the batch kernel bound once to its name as a
  :class:`BatchKernel`, which pickles for process workers);
* the **fragmenter**, :class:`~repro.gmdj.parallel.DetailPartitions`,
  wraps kernel calls: it scans each detail fragment (sequentially or on
  a pool) and merges the partials columnwise; ``None`` is the plain
  single scan.  :func:`select_fragmenter` is the one place knobs become
  one.  (§2.3's "well-defined cost" when B outgrows memory is the array
  kernel's tiling by candidate pairs, ``TILE_PAIRS``, with output ≤ |B|);
* :func:`evaluate_node` materializes a node's operands, records the
  base scan and opens the owner span exactly once — for ``GMDJ`` and
  fused ``SelectGMDJ`` alike — then applies the fragmenter around the
  kernel;
* :func:`evaluate_plan` walks an operator tree, rebuilding children as
  materialized :class:`~repro.algebra.operators.TableValue` leaves and
  sending every GMDJ through :func:`evaluate_node` — except those
  :func:`served_from` says reuse an earlier node's result.  Its optional
  per-GMDJ hook is how the rollup store probes/stores around a node.
  Every other (flat) operator runs under a ``flat`` span; when the
  kernel is numpy the node's output is a column-backed relation and the
  flat operators above it take their array forms
  (:mod:`repro.algebra.npoperators`) — the row-wise ``evaluate`` is the
  reference and the per-operator fallback, its reason on the span.

Every (kernel × fragmenter) point returns the same rows in the same
order, and the three kernels agree on every IOStats counter — with a
completion rule too: completion is a truncation of each base tuple's
θ-matches at its first completion row, which the array kernel computes
over whole arrays and the row kernel tuple by tuple (the row
interpreter is the tests' reference).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from repro.algebra.expressions import Expression
from repro.algebra.operators import Distinct, Operator, TableValue
from repro.algebra.printer import explain
from repro.algebra.rewrite import map_children
from repro.errors import InvariantViolation
from repro.gmdj.completion import CompletionRule
from repro.gmdj.evaluate import SelectGMDJ, run_gmdj
from repro.gmdj.operator import GMDJ
from repro.gmdj.parallel import DEFAULT_PARTITIONS, DetailPartitions
from repro.gmdj.pool import resolve_workers
from repro.gmdj.vectorized import resolve_chunk_size, run_gmdj_vectorized
from repro.obs.metrics import get_registry
from repro.obs.tracer import span, tracing_enabled
from repro.storage.catalog import Catalog
from repro.storage.columnar import is_encoded
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema

Kernel = Callable[..., Relation]
#: ``hook(node, evaluate)``: called for every GMDJ node of a walked plan
#: with the *original* node and a thunk that evaluates it (children
#: first); returns the node's relation.
NodeHook = Callable[[GMDJ, Callable[[], Relation]], Relation]


@dataclass(frozen=True)
class BatchKernel:
    """:func:`run_gmdj_vectorized` bound to one ``backend`` — the kernel
    says which it is, so the walk around it need not guess.  The python
    kernel scans ``chunk_size`` detail rows per batch."""

    backend: str
    chunk_size: int

    def __call__(
        self, base: Relation, detail: Relation, gmdj: GMDJ,
        output_schema: Schema, rule: CompletionRule | None = None,
        selection: Expression | None = None,
    ) -> Relation:
        return run_gmdj_vectorized(
            base, detail, gmdj, output_schema, rule, selection,
            chunk_size=self.chunk_size, backend=self.backend)


def select_kernel(backend: str = "auto",
                  chunk_size: int | None = None) -> Kernel:
    """The kernel ``backend`` names; ``chunk_size`` sizes the python
    kernel's batches (default :data:`~repro.gmdj.vectorized.
    DEFAULT_CHUNK_SIZE`; tests shrink it to force batch boundaries).

    What ``auto`` picks is :func:`repro.engine.options.resolve_kernel`'s
    decision.
    """
    # Imported here: repro.engine pulls in the planner, which pulls in
    # repro.gmdj — a module-level import would close the cycle.
    from repro.engine.options import resolve_kernel

    name = resolve_kernel(backend)
    if name == "row":
        return run_gmdj
    return BatchKernel(name, resolve_chunk_size(chunk_size))


def select_fragmenter(
    partitions: int | None = None,
    workers: int | None = None,
    executor: str | None = None,
) -> DetailPartitions | None:
    """The fragmenter the knobs name, or None for one scan per GMDJ.

    ``workers`` defaults to 1 (sequential fragments); ``partitions`` to
    :data:`DEFAULT_PARTITIONS`.
    """
    if partitions is not None or workers is not None:
        return DetailPartitions(
            DEFAULT_PARTITIONS if partitions is None else partitions,
            resolve_workers(workers), executor,
        )
    return None


def evaluate_node(
    node: GMDJ | SelectGMDJ,
    catalog: Catalog,
    kernel: Kernel = run_gmdj,
    fragmenter: DetailPartitions | None = None,
) -> Relation:
    """Materialize a GMDJ node's operands and run it through the pipeline.

    Raises :class:`~repro.errors.InvariantViolation` when the result
    holds more rows than the base (Def. 2.1: output ≤ |B|), traced or not.
    """
    if isinstance(node, SelectGMDJ):
        # Completion dooms base tuples by global scan order, so a fused
        # node stays a single scan under any fragmenter.
        gmdj, rule, selection, fragmenter = (
            node.gmdj, node.rule, node.selection, None)
        owner = span("SelectGMDJ", kind="gmdj", blocks=len(gmdj.blocks),
                     completion=rule is not None,
                     rule=rule.summary() if rule is not None else None)
    else:
        gmdj, rule, selection = node, None, None
        if fragmenter is None:
            owner = span("GMDJ", kind="gmdj", blocks=len(gmdj.blocks),
                         completion=False)
        else:
            owner = span(fragmenter.span_name, kind=fragmenter.span_kind,
                         blocks=len(gmdj.blocks),
                         vectorized=kernel is not run_gmdj,
                         **fragmenter.span_attrs())
    with owner as sp:
        with span("base", kind="materialize"):
            base = gmdj.base.evaluate(catalog)
        with span("detail", kind="materialize"):
            detail = gmdj.detail.evaluate(catalog)
        relation = getattr(detail, "name", None) or "<derived>"
        sp.set(base_rows=len(base), detail_rows=len(detail), relation=relation)
        IOStats.ambient().record_scan(len(base))
        output_schema = gmdj.schema(catalog)
        if fragmenter is None:
            result = kernel(base, detail, gmdj, output_schema, rule,
                            selection)
        else:
            result = fragmenter.run(kernel, base, detail, gmdj,
                                    output_schema, sp.set)
        sp.set(output_rows=len(result))
        if len(result) > len(base):
            raise InvariantViolation(
                f"|B|-bound (Def. 2.1): a GMDJ over {relation!r} emitted "
                f"{len(result)} rows from a {len(base)}-row base")
        return result


#: The flat operators' array forms by operator type, and the exception
#: one raises when it has no exact answer (``.reason`` says why).
ArrayForms = tuple[dict[type, Callable[..., Relation]], type[Exception]]


def array_forms(kernel: Kernel) -> ArrayForms | None:
    """The array forms the flat operators around ``kernel`` take: those
    of :mod:`repro.algebra.npoperators` when it names itself the numpy
    kernel (``kernel.backend``: its output is column-backed), none for
    any other — and the module is not imported then."""
    if getattr(kernel, "backend", None) != "numpy":
        return None
    from repro.algebra.npcompile import NpUnsupported
    from repro.algebra.npoperators import ARRAY_FORMS

    return ARRAY_FORMS, NpUnsupported


def evaluate_flat(node: Operator, catalog: Catalog,
                  forms: ArrayForms | None = None) -> Relation:
    """One flat operator over materialized children, under a ``flat`` span.

    ``forms`` — given exactly when the kernel is numpy — maps operator
    types to their array forms and names the exception a form raises
    (nothing counted yet) when it has no exact answer: the row-wise
    ``evaluate`` then runs, with the reason on the span (``fallback``)
    and a ``flat.fallbacks`` count; an array-form run counts in
    ``flat.columnar``.  An operator type without an array form (a view —
    scan, rename, table value — or one that reads ``rows`` by design:
    join, group-by, order-by, ...) just evaluates: neither counter, no
    ``fallback``.  ``columnar`` says the result carries columns.
    """
    with span(type(node).__name__, kind="flat") as flat:
        result = reason = None
        if forms is not None and type(node) in forms[0]:
            by_type, unsupported = forms
            try:
                result = by_type[type(node)](node, catalog)
            except unsupported as exc:
                reason = str(exc)
            get_registry().counter(
                "flat.fallbacks" if result is None else "flat.columnar"
            ).inc()
        if result is None:
            result = node.evaluate(catalog)
        if tracing_enabled():
            flat.set(rows_in=sum(len(child.relation)
                                 for child in node.children()
                                 if isinstance(child, TableValue)),
                     rows_out=len(result),
                     columnar=forms is not None and is_encoded(result))
            if reason is not None:
                flat.set(fallback=reason)
        return result


def evaluate_plan(
    plan: Operator,
    catalog: Catalog,
    kernel: Kernel = run_gmdj,
    fragmenter: DetailPartitions | None = None,
    node_hook: NodeHook | None = None,
) -> Relation:
    """Evaluate ``plan`` with every GMDJ node run by :func:`evaluate_node`.

    Children are materialized first and re-wrapped as
    :class:`TableValue` (their evaluated schemas keep every qualifier, so
    conditions above them bind unchanged); the rebuilt single-level node
    then evaluates normally.  ``node_hook`` sees each *original* GMDJ —
    whose subtrees still render deterministically — before its children
    are walked, and decides whether to call the evaluation thunk at all.
    Fused ``SelectGMDJ`` nodes bypass the hook (their completion output
    carries partial aggregates), though GMDJs nested in their inputs
    still reach it.  A GMDJ :func:`served_from` names is served its
    source's result once the source has one.
    """

    forms = array_forms(kernel)
    results: dict[int, Relation] = {}
    served: dict[int, Operator] | None = None

    def materialized(child: Operator, copy: bool = False) -> TableValue:
        return TableValue(walk(child, copy))

    def walk(node: Operator, copy: bool = False) -> Relation:
        nonlocal served
        if copy and isinstance(node, (GMDJ, SelectGMDJ)):
            served = served_from(plan) if served is None else served
            source = served.get(id(node))
            if source is not None and id(source) in results:
                return results[id(source)]
        descend = partial(materialized,
                          copy=copy or isinstance(node, Distinct))
        if isinstance(node, SelectGMDJ):
            # Rebuild the inner GMDJ's operands, not the GMDJ itself:
            # the fused node owns that scan.
            inner = map_children(node.gmdj, descend)
            result = evaluate_node(dataclasses.replace(node, gmdj=inner),
                                   catalog, kernel, fragmenter)
        elif isinstance(node, GMDJ):
            gmdj = node

            def run() -> Relation:
                return evaluate_node(map_children(gmdj, descend),
                                     catalog, kernel, fragmenter)

            result = run() if node_hook is None else node_hook(gmdj, run)
        else:
            return evaluate_flat(map_children(node, descend), catalog,
                                 forms)
        results[id(node)] = result
        return result

    return walk(plan)


def served_from(plan: Operator) -> dict[int, Operator]:
    """The GMDJ nodes of ``plan`` that reuse a result instead of running,
    by ``id``, each mapped to the node it reuses: a GMDJ (fused or not)
    below a ``Distinct`` — the pushed-down copy of an outer block's input
    (Thms 3.3/3.4) repeats that input's GMDJs — that renders like one the
    walk evaluates before it (children first).  A node may sit in the tree
    twice, and the rollup store answers a node without walking its
    children, so a caller reuses a source only once it has run.  Renders
    only below a ``Distinct``.  :func:`evaluate_plan` and
    :func:`repro.lint.cost.certify_plan` both read it."""
    served: dict[int, Operator] = {}
    evaluated: list[tuple[Callable[[], str], Operator]] = []

    def visit(node: Operator, copy: bool) -> None:
        is_gmdj = isinstance(node, (GMDJ, SelectGMDJ))
        if is_gmdj and copy and not _holds_value(node):
            key = explain(node)
            for rendered, source in evaluated:
                if rendered() == key:
                    served[id(node)] = source
                    return
        inner = node.gmdj if isinstance(node, SelectGMDJ) else node
        for child in inner.children():
            visit(child, copy or isinstance(node, Distinct))
        if is_gmdj:
            evaluated.append((cache(partial(explain, node)), node))

    visit(plan, False)
    return served


def _holds_value(node: Operator) -> bool:
    """A materialized leaf renders its size only: no key to share by."""
    return isinstance(node, TableValue) or any(
        map(_holds_value, node.children()))


# -- named entries into the pipeline -------------------------------------------


def evaluate_plan_vectorized(
    plan: Operator, catalog: Catalog, chunk_size: int | None = None,
    backend: str = "auto",
) -> Relation:
    """Evaluate ``plan`` with every GMDJ on the kernel ``backend`` names
    (see :func:`select_kernel`)."""
    return evaluate_plan(plan, catalog, select_kernel(backend, chunk_size))


def evaluate_gmdj_partitioned(
    gmdj: GMDJ, catalog: Catalog, partitions: int = DEFAULT_PARTITIONS,
    workers: int | None = None, executor: str | None = None,
    kernel: Kernel = run_gmdj,
) -> Relation:
    """Evaluate one GMDJ over a horizontally partitioned detail relation."""
    return evaluate_node(
        gmdj, catalog, kernel,
        select_fragmenter(partitions=partitions, workers=workers,
                          executor=executor),
    )
