"""Batch multi-query optimization: share groups, shared execution.

:func:`execute_batch` is the body of
:meth:`repro.engine.database.Database.execute_batch`, and so of every
unprofiled query (``Database.execute`` is a batch of one).  It:

1. answers each member the result cache holds, under ``use_cache``; a
   member repeating an earlier miss's key is answered once that miss is
   stored, unless the two run in one group;
2. plans each miss (:func:`repro.engine.planner.plan_for`),
   fingerprints the plan (:func:`repro.gmdj.share.fingerprint_plan`),
   partitions share-compatible plans into groups and fuses each group
   into one multi-consumer GMDJ (:func:`repro.gmdj.share.merge_group`),
   certified once (:func:`repro.lint.cost.certify_plan`) —
   :func:`plan_batch`;
3. runs each group's merged GMDJ with a **single detail scan** on the
   options' kernel and fragmenter (:func:`repro.gmdj.physical.
   evaluate_node`) — through the rollup store's node hook, as every
   GMDJ node is — then runs each member through
   :func:`repro.engine.executor.execute`, as a singleton runs, over its
   own plan with the GMDJ replaced by a projection of the shared result
   (:func:`repro.gmdj.share.graft_consumer`: column picks of the numpy
   kernel's result), so a member's tuples are built once, inside its
   own clock;
4. holds the shared scan's ``detail_scans`` counter to the group's
   certificate (:meth:`repro.lint.cost.CostCertificate.violations`);
5. attributes the shared scan's IOStats *fractionally* (1/k per
   consumer), so per-query accounting reconciles with batch totals
   (the serve tier's ``/metrics`` consistency depends on this);
6. stores each miss's result, as soon as it has run, under the catalog
   generation read when the batch started.

No option turns sharing off.  The unshared reference is each member run
alone (a batch of one plans no group);
:func:`repro.obs.explain.explain_batch` renders the groups a batch
would form without executing anything.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence, overload

from repro.algebra.operators import Operator
from repro.engine.cache import PlanCache
from repro.engine.executor import execute
from repro.engine.options import QueryOptions
from repro.engine.planner import plan_for
from repro.gmdj.operator import GMDJ
from repro.gmdj.physical import (
    NodeHook,
    evaluate_node,
    select_fragmenter,
    select_kernel,
)
from repro.gmdj.share import (
    ShareCandidate,
    fingerprint_plan,
    graft_consumer,
    merge_group,
)
from repro.lint.cost import CostCertificate, certify_batch, certify_plan
from repro.obs.tracer import span
from repro.storage.catalog import Catalog
from repro.storage.columnar import is_encoded
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation

if TYPE_CHECKING:
    from repro.engine.database import Database

__all__ = [
    "BatchItem",
    "BatchPlan",
    "BatchReport",
    "BatchResult",
    "PlannedGroup",
    "execute_batch",
    "plan_batch",
]


def _plan_decomposable(plan: Operator) -> bool:
    """True when every GMDJ aggregate in the plan is decomposable."""
    from repro.lint.absint import decomposable_aggregates

    def visit(node: Operator) -> bool:
        if isinstance(node, GMDJ) and not decomposable_aggregates(node):
            return False
        return all(visit(child) for child in node.children())

    return visit(plan)


# -- batch planning -----------------------------------------------------------


@dataclass
class PlannedGroup:
    """One share group: ≥ 2 compatible plans fused into one
    multi-consumer GMDJ, certified once.

    :func:`plan_batch` returns it unexecuted, ``indices`` the members'
    positions in the planned list.  The run report holds it again under
    batch indices, with ``runtime_detail_scans`` — the shared scan's
    ``detail_scans`` count — and ``certified``: whether that count
    matched the certificate; None under a fragmenter, which scans once
    per fragment, and when the rollup store answered the group, which
    scans nothing.
    """

    group_id: int
    indices: list[int]
    candidates: list[ShareCandidate]
    gmdj: GMDJ
    certificate: CostCertificate
    runtime_detail_scans: int | None = None
    certified: bool | None = None

    @property
    def detail_table(self) -> str:
        return self.candidates[0].fingerprint.detail_table

    @property
    def consumer_blocks(self) -> int:
        """θ-blocks the consumers brought in total."""
        return sum(len(candidate.gmdj.blocks)
                   for candidate in self.candidates)

    @property
    def shared_blocks(self) -> int:
        """Distinct θ-blocks after deduplication."""
        return len(self.gmdj.blocks)

    @property
    def scans_saved(self) -> int:
        return len(self.indices) - 1

    def to_json(self) -> dict:
        """The group as EXPLAIN BATCH prints it; once run, with
        ``runtime_detail_scans`` and ``certified``."""
        payload = {
            "group": self.group_id,
            "detail_table": self.detail_table,
            "members": list(self.indices),
            "consumer_blocks": self.consumer_blocks,
            "shared_blocks": self.shared_blocks,
            "scans_saved": self.scans_saved,
            "certificate": self.certificate.to_json(),
        }
        if self.runtime_detail_scans is not None:
            payload["runtime_detail_scans"] = self.runtime_detail_scans
            payload["certified"] = self.certified
        return payload


@dataclass
class BatchPlan:
    """The sharing decision for one batch, before any execution."""

    groups: list[PlannedGroup]
    singletons: list[int]
    #: The tree each member executes, by index — built here once, so a
    #: member that runs alone is not planned again; None where nothing
    #: was planned (a batch of one).
    plans: list[Operator | None]


def plan_batch(
    queries: Sequence[Operator],
    catalog: Catalog,
    options: QueryOptions,
    cache: PlanCache | None = None,
) -> BatchPlan:
    """Translate, fingerprint, and partition a batch into share groups.

    Pure planning — nothing is executed.  A batch of one is a singleton.
    """
    canon = options.canonical()
    indices = list(range(len(queries)))
    if len(queries) < 2:
        return BatchPlan(groups=[], singletons=indices,
                         plans=[None] * len(queries))
    translations = cache if canon.use_cache else None
    plans: list[Operator | None] = []
    candidates: list[ShareCandidate | None] = []
    for query in queries:
        # A plan without exactly one GMDJ (every baseline's, a plain
        # query's) fingerprints to None and stays a singleton.
        plan = plan_for(query, catalog, canon.strategy, translations)
        plans.append(plan)
        if not _plan_decomposable(plan):
            # Certificate gate: coalescing stacks every member's blocks
            # onto one shared scan and merges per-member results, which
            # is only sound for decomposable aggregates.  A holistic
            # spec (DISTINCT) keeps its query a singleton.
            candidates.append(None)
            continue
        candidates.append(fingerprint_plan(plan))
    by_fingerprint: dict = {}
    for index, candidate in zip(indices, candidates):
        if candidate is not None:
            by_fingerprint.setdefault(candidate.fingerprint, []).append(index)
    groups: list[PlannedGroup] = []
    for members in by_fingerprint.values():
        if len(members) < 2:
            continue
        gmdj, routed = merge_group([candidates[index] for index in members])
        groups.append(PlannedGroup(
            group_id=len(groups),
            indices=list(members),
            candidates=routed,
            gmdj=gmdj,
            certificate=certify_plan(gmdj),
        ))
    grouped = {index for group in groups for index in group.indices}
    return BatchPlan(
        groups=groups,
        singletons=[index for index in indices if index not in grouped],
        plans=plans,
    )


# -- reports ------------------------------------------------------------------


@dataclass
class BatchItem:
    """Per-query execution record inside a batch.

    ``io`` is this query's IOStats attribution: its residual/singleton
    work exactly, plus a 1/k share of its group's shared scan — summing
    ``io`` over all items reproduces the batch totals, and
    ``detail_scans`` is its count of detail scans.  ``elapsed_seconds``
    is the same attribution of time: a singleton's own run, or a 1/k
    share of the shared scan plus this member's own run over it.
    """

    index: int
    result: Relation
    elapsed_seconds: float
    group_id: int | None
    shared: bool
    io: dict[str, float]

    @property
    def detail_scans(self) -> float:
        return float(self.io.get("detail_scans", 0))

    def io_json(self) -> dict:
        return {
            key: (round(value, 4) if isinstance(value, float) else value)
            for key, value in sorted(self.io.items()) if value
        }


@dataclass
class BatchReport:
    """The batch-level account: groups, savings, certificates, totals."""

    queries: int
    groups: list[PlannedGroup] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    io_totals: dict[str, int] = field(default_factory=dict)
    certificate: CostCertificate | None = None

    @property
    def scans_saved(self) -> int:
        return sum(group.scans_saved for group in self.groups)

    def summary(self) -> str:
        return (
            f"batch: {self.queries} queries, {len(self.groups)} share "
            f"group(s), {self.scans_saved} detail scan(s) saved"
        )

    def to_json(self) -> dict:
        payload = {
            "queries": self.queries,
            "share_groups": [group.to_json() for group in self.groups],
            "scans_saved": self.scans_saved,
            "elapsed_ms": round(self.elapsed_seconds * 1000, 3),
            "io_totals": {
                key: value
                for key, value in sorted(self.io_totals.items()) if value
            },
        }
        if self.certificate is not None:
            payload["certificate"] = self.certificate.to_json()
        return payload


class BatchResult(Sequence):
    """Per-query results (list-like) plus the batch report.

    ``batch[i]`` is the i-th query's :class:`Relation`, exactly what
    ``execute`` would have returned for it; ``batch.report`` carries the
    share groups, scan savings, and certificates; ``batch.items`` the
    per-query attribution records.
    """

    def __init__(self, items: list[BatchItem], report: BatchReport):
        self.items = items
        self.report = report

    @property
    def results(self) -> list[Relation]:
        return [item.result for item in self.items]

    def __len__(self) -> int:
        return len(self.items)

    @overload
    def __getitem__(self, index: int) -> Relation: ...

    @overload
    def __getitem__(self, index: slice) -> list[Relation]: ...

    def __getitem__(self, index: int | slice) -> Relation | list[Relation]:
        return self.results[index]

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.results)


# -- execution ----------------------------------------------------------------


def _delta(before: dict, after: dict) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if value != before.get(key, 0)}


def _merge_io(target: dict, delta: dict, scale: float = 1.0) -> None:
    for key, value in delta.items():
        target[key] = target.get(key, 0) + value * scale


def _run_group(
    db: Database,
    group: PlannedGroup,
    members: list[int],
    queries: list[Operator],
    options: QueryOptions,
    hook: NodeHook | None,
    items: list[BatchItem | None],
    totals: dict[str, int],
) -> PlannedGroup:
    """Evaluate one share group: its merged GMDJ once — through the
    rollup hook like any other GMDJ node — then each member through
    :func:`execute` over its grafted plan.  ``members`` are the group's
    batch indices; returns the group as run, under them."""
    fragmenter = select_fragmenter(options.partitions, options.workers)
    consumers = len(members)
    ambient = IOStats.ambient()
    scanned = False

    def scan() -> Relation:
        nonlocal scanned
        scanned = True
        return evaluate_node(group.gmdj, db.catalog,
                             select_kernel(options.backend), fragmenter)

    before = ambient.snapshot()
    t0 = time.perf_counter()
    with span("mqo_group", kind="mqo_group", group=group.group_id,
              consumers=consumers, detail=group.detail_table,
              blocks=group.shared_blocks) as group_span:
        shared_result = scan() if hook is None else hook(group.gmdj, scan)
    group_span.set(columnar=is_encoded(shared_result))
    shared_elapsed = time.perf_counter() - t0
    shared_delta = _delta(before, ambient.snapshot())
    _merge_io(totals, shared_delta)
    certified = None if fragmenter is not None or not scanned else (
        not group.certificate.violations(shared_delta))
    base_width = len(group.gmdj.base.schema(db.catalog))
    for index, candidate in zip(members, group.candidates):
        before_member = ambient.snapshot()
        t1 = time.perf_counter()
        with span("mqo_member", kind="mqo_member", index=index,
                  group=group.group_id):
            result = execute(
                queries[index], db.catalog, options,
                plan=graft_consumer(candidate, shared_result, base_width))
        member_elapsed = time.perf_counter() - t1
        member_delta = _delta(before_member, ambient.snapshot())
        _merge_io(totals, member_delta)
        io: dict[str, float] = dict(member_delta)
        _merge_io(io, shared_delta, scale=1.0 / consumers)
        items[index] = BatchItem(
            index=index, result=result,
            elapsed_seconds=shared_elapsed / consumers + member_elapsed,
            group_id=group.group_id, shared=True, io=io,
        )
    return dataclasses.replace(
        group, indices=members,
        runtime_detail_scans=shared_delta.get("detail_scans", 0),
        certified=certified)


def execute_batch(
    db: Database,
    queries: Sequence[Operator],
    options: QueryOptions,
) -> BatchResult:
    """Execute a batch of queries with cross-query scan sharing (the
    module docstring's steps); ``db`` is the
    :class:`~repro.engine.database.Database` whose ``execute_batch``
    this is.  Results are returned per query, row- and order-identical
    to running each query alone."""
    canon = options.canonical()
    hook = (db.rollups.node_hook(db.catalog)
            if canon.rollup == "subsume" else None)
    queries = list(queries)
    started = time.perf_counter()
    generation = db.catalog.generation
    ambient = IOStats.ambient()
    totals: dict[str, int] = {}
    items: list[BatchItem | None] = [None] * len(queries)
    keys: list[tuple | None] = [None] * len(queries)
    report = BatchReport(queries=len(queries))

    def store(index: int) -> None:
        key, item = keys[index], items[index]
        if key is not None and item is not None:
            # Snapshots, kept and handed out: a caller mutating its
            # result cannot corrupt a later hit.
            db.cache.results.put(key, item.result.copy(), db.catalog,
                                 generation)

    def cached(key: tuple | None) -> Relation | None:
        entry = None if key is None else db.cache.results.get(key)
        return None if entry is None else entry.copy()

    misses = []
    # A member whose key an earlier member missed on waits for that
    # member's stored result, as it would running after it.
    repeats: set[int] = set()
    missed: set[tuple] = set()
    for index, query in enumerate(queries):
        t0 = time.perf_counter()
        if canon.use_cache:
            keys[index] = (canon.cache_key(), PlanCache.plan_key(query))
        key = keys[index]
        if key in missed:
            repeats.add(index)
        hit = None if index in repeats else cached(key)
        if hit is None:
            misses.append(index)
            if key is not None:
                missed.add(key)
        else:
            items[index] = BatchItem(index, hit, time.perf_counter() - t0,
                                     group_id=None, shared=False, io={})
    plan = plan_batch([queries[index] for index in misses], db.catalog,
                      canon, cache=db.cache)

    for group in plan.groups:
        members = [misses[index] for index in group.indices]
        report.groups.append(_run_group(
            db, group, members, queries, canon, hook, items, totals))
        for index in members:
            if index not in repeats:
                store(index)

    for position in plan.singletons:
        index = misses[position]
        t0 = time.perf_counter()
        hit = cached(keys[index]) if index in repeats else None
        if hit is not None:
            items[index] = BatchItem(index, hit, time.perf_counter() - t0,
                                     group_id=None, shared=False, io={})
            continue
        before = ambient.snapshot()
        result = execute(queries[index], db.catalog, canon,
                         plan=plan.plans[position], cache=db.cache,
                         rollups=db.rollups)
        elapsed = time.perf_counter() - t0
        delta = _delta(before, ambient.snapshot())
        _merge_io(totals, delta)
        items[index] = BatchItem(
            index=index, result=result, elapsed_seconds=elapsed,
            group_id=None, shared=False, io=dict(delta),
        )
        store(index)

    done = [item for item in items if item is not None]
    if report.groups:
        report.certificate = certify_batch(
            [group.certificate for group in report.groups])
    report.elapsed_seconds = time.perf_counter() - started
    report.io_totals = totals
    return BatchResult(items=done, report=report)
