"""Batch multi-query optimization: share groups, shared execution.

:func:`execute_batch` is the engine behind
:meth:`repro.engine.database.Database.execute_batch`.  Given a list of
queries it:

1. asks the planner for the plan each would execute (cache-aware,
   :func:`repro.engine.planner.plan_for`) and fingerprints it
   (:func:`repro.gmdj.share.fingerprint_plan`);
2. partitions share-compatible plans into groups
   (:func:`plan_batch`);
3. fuses each group into one multi-consumer GMDJ
   (:func:`repro.gmdj.share.merge_group`), executes it with a
   **single detail scan** on the options' kernel and fragmenter
   (:func:`repro.gmdj.physical.evaluate_node`), then splits
   the shared result back per consumer
   (:func:`repro.gmdj.share.split_result`: column picks of the numpy
   kernel's column-backed result) and evaluates each residual plan on
   the walk a single query takes
   (:func:`repro.gmdj.physical.evaluate_plan`: array forms of
   ``Select`` / ``Project`` / ``Limit`` under the numpy kernel, one
   ``flat`` span per operator), building a member's tuples once, inside
   that member's own clock;
4. statically certifies every shared plan
   (:func:`repro.lint.cost.certify_plan` — exactly one detail scan per
   detail table per group) and cross-checks the claim against the
   runtime trace's ``detail_scan`` spans;
5. attributes the shared scan's IOStats *fractionally* (1/k per
   consumer) so per-query accounting still reconciles with batch totals
   (the serve tier's ``/metrics`` consistency depends on this).

MQO levels (``QueryOptions.mqo``): ``"coalesce"`` (the default) runs
steps 1–5, ``"off"`` executes every member independently.
:func:`repro.obs.explain.explain_batch` renders the groups a batch
would form without executing anything.

Shared groups bypass the per-query result cache in both directions: a
cached result would mask a buggy merge from the differential suite, and
split results are cheap to rebuild from the shared scan anyway.
Singleton members run through the ordinary ``Database._run`` path and
keep full cache/rollup tiering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, overload

from repro.algebra.operators import Operator
from repro.engine.options import QueryOptions
from repro.engine.planner import lint_gate, plan_for
from repro.errors import ConfigurationError
from repro.gmdj.operator import GMDJ
from repro.gmdj.physical import (
    evaluate_node,
    evaluate_plan,
    select_fragmenter,
    select_kernel,
)
from repro.gmdj.share import (
    ShareCandidate,
    SharedGMDJPlan,
    fingerprint_plan,
    graft_consumer,
    merge_group,
    split_result,
)
from repro.lint.cost import CostCertificate, certify_batch, certify_plan
from repro.obs.tracer import Tracer, span, tracing, tracing_enabled
from repro.storage.catalog import Catalog
from repro.storage.columnar import is_encoded
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation

if TYPE_CHECKING:
    from repro.engine.cache import PlanCache
    from repro.engine.database import Database

__all__ = [
    "BatchItem",
    "BatchPlan",
    "BatchReport",
    "BatchResult",
    "PlannedGroup",
    "ShareGroupReport",
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
    """One share group (≥ 2 compatible plans) before execution."""

    group_id: int
    indices: list[int]
    candidates: list[ShareCandidate]
    shared: SharedGMDJPlan


@dataclass
class BatchPlan:
    """The sharing decision for one batch, before any execution."""

    level: str
    queries: int
    groups: list[PlannedGroup]
    singletons: list[int]
    #: The tree each member executes, by index — built (and, under
    #: ``lint``, gated) here once, so a member that runs alone is not
    #: planned again; None where nothing was planned (level ``off``, a
    #: batch of one).
    plans: list[Operator | None]

    @property
    def grouped_indices(self) -> set[int]:
        return {index for group in self.groups for index in group.indices}


def plan_batch(
    queries: Sequence[Operator],
    catalog: Catalog,
    options: QueryOptions,
    cache: PlanCache | None = None,
) -> BatchPlan:
    """Translate, fingerprint, and partition a batch into share groups.

    Pure planning — nothing is executed.  At level ``"off"`` (or for a
    batch of one) every query is a singleton.
    """
    canon = options.canonical()
    level = canon.mqo
    indices = list(range(len(queries)))
    if level == "off" or len(queries) < 2:
        return BatchPlan(level=level, queries=len(queries), groups=[],
                         singletons=indices, plans=[None] * len(queries))
    translations = cache if canon.use_cache else None
    plans: list[Operator | None] = []
    candidates: list[ShareCandidate | None] = []
    for query in queries:
        # A plan without exactly one GMDJ (every baseline's, a plain
        # query's) fingerprints to None and stays a singleton.
        plan = plan_for(query, catalog, canon.strategy, translations)
        plans.append(plan)
        if plan is not query and canon.lint != "off":
            # The one gate of a translated plan: group members bypass
            # the executor, and a singleton's run is handed this plan
            # (the executor still gates the query as written).
            lint_gate(plan, catalog, canon.lint)
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
        group_candidates = [candidates[index] for index in members]
        groups.append(PlannedGroup(
            group_id=len(groups),
            indices=list(members),
            candidates=group_candidates,
            shared=merge_group(group_candidates),
        ))
    grouped = {index for group in groups for index in group.indices}
    return BatchPlan(
        level=level,
        queries=len(queries),
        groups=groups,
        singletons=[index for index in indices if index not in grouped],
        plans=plans,
    )


# -- reports ------------------------------------------------------------------


@dataclass
class ShareGroupReport:
    """What one share group did."""

    group_id: int
    detail_table: str
    members: list[int]
    consumer_blocks: int
    shared_blocks: int
    scans_saved: int
    certificate: CostCertificate
    runtime_detail_scans: int
    #: The runtime scan count matches the certificate; None under a
    #: fragmenter, whose fragments multiply the ``detail_scan`` spans.
    certified: bool | None

    def to_json(self) -> dict:
        return {
            "group": self.group_id,
            "detail_table": self.detail_table,
            "members": list(self.members),
            "consumer_blocks": self.consumer_blocks,
            "shared_blocks": self.shared_blocks,
            "scans_saved": self.scans_saved,
            "runtime_detail_scans": self.runtime_detail_scans,
            "certified": self.certified,
            "certificate": self.certificate.to_json(),
        }


@dataclass
class BatchItem:
    """Per-query execution record inside a batch.

    ``io`` is this query's IOStats attribution: its residual/singleton
    work exactly, plus a 1/k share of its group's shared scan — summing
    ``io`` over all items reproduces the batch totals.  ``detail_scans``
    is the analogous fractional share of runtime ``detail_scan`` spans
    (None for singletons run without an ambient tracer, where nothing
    counted them).  ``elapsed_seconds`` is the same attribution of time:
    a singleton's own run, or a 1/k share of the shared scan plus this
    member's split, residual and row build.
    """

    index: int
    result: Relation
    elapsed_seconds: float
    group_id: int | None
    shared: bool
    io: dict[str, float]
    detail_scans: float | None = None

    def io_json(self) -> dict:
        return {
            key: (round(value, 4) if isinstance(value, float) else value)
            for key, value in sorted(self.io.items()) if value
        }


@dataclass
class BatchReport:
    """The batch-level account: groups, savings, certificates, totals."""

    mqo: str
    queries: int
    groups: list[ShareGroupReport] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    io_totals: dict[str, int] = field(default_factory=dict)
    certificate: CostCertificate | None = None

    @property
    def scans_saved(self) -> int:
        return sum(group.scans_saved for group in self.groups)

    @property
    def shared_queries(self) -> int:
        return sum(len(group.members) for group in self.groups)

    def summary(self) -> str:
        return (
            f"batch: {self.queries} queries, {len(self.groups)} share "
            f"group(s), {self.scans_saved} detail scan(s) saved "
            f"(mqo={self.mqo})"
        )

    def to_json(self) -> dict:
        payload = {
            "mqo": self.mqo,
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
        if isinstance(index, slice):
            return [item.result for item in self.items[index]]
        return self.items[index].result

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.results)


# -- execution ----------------------------------------------------------------


def _delta(before: dict, after: dict) -> dict[str, int]:
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in after
        if after.get(key, 0) != before.get(key, 0)
    }


def _merge_io(target: dict, delta: dict, scale: float = 1.0) -> None:
    for key, value in delta.items():
        target[key] = target.get(key, 0) + value * scale


def _run_traced_group(
    runner: Callable[[GMDJ], Relation], group: PlannedGroup
) -> tuple[Relation, int]:
    """Run one shared GMDJ under a tracer; returns (result, scan count).

    With an ambient tracer (the serve tier, EXPLAIN ANALYZE) the group
    span joins the existing trace; otherwise a private tracer is
    installed so the scan count is observable either way.
    """
    attrs = dict(
        group=group.group_id,
        consumers=len(group.indices),
        detail=group.shared.detail_table,
        blocks=group.shared.shared_blocks,
    )
    if tracing_enabled():
        with span("mqo_group", kind="mqo_group", **attrs) as group_span:
            result = runner(group.shared.gmdj)
    else:
        tracer = Tracer()
        with tracing(tracer):
            with span("mqo_group", kind="mqo_group", **attrs) as group_span:
                result = runner(group.shared.gmdj)
    group_span.set(columnar=is_encoded(result))
    scans = sum(
        1 for span_ in group_span.walk() if span_.kind == "detail_scan"
    )
    return result, scans


def execute_batch(
    db: Database,
    queries: Sequence[Operator],
    options: QueryOptions | None = None,
) -> BatchResult:
    """Execute a batch of queries with cross-query scan sharing.

    ``db`` is a :class:`~repro.engine.database.Database`; this function
    is its ``execute_batch`` body (kept here so the engine layer owns
    the MQO logic).  Results are returned per query, row- and
    order-identical to running each query through ``execute`` alone.
    """
    if options is not None and not isinstance(options, QueryOptions):
        raise ConfigurationError(
            "execute_batch takes QueryOptions or None; "
            f"got {options!r}"
        )
    options = options or QueryOptions()
    canon = options.canonical()
    kernel = select_kernel(canon.backend)
    fragmenter = select_fragmenter(canon.partitions, canon.workers)
    queries = list(queries)
    started = time.perf_counter()
    plan = plan_batch(queries, db.catalog, options, cache=db.cache)
    ambient = IOStats.ambient()
    totals: dict[str, int] = {}
    items: list[BatchItem | None] = [None] * len(queries)
    report = BatchReport(mqo=plan.level, queries=len(queries))

    def run_single(index: int) -> None:
        def run() -> Relation:
            return db._run(queries[index], options, profiled=False,
                           plan=plan.plans[index]).result

        before = ambient.snapshot()
        t0 = time.perf_counter()
        scans: float | None = None
        if tracing_enabled():
            # An ambient tracer (the serve tier, EXPLAIN ANALYZE) wants
            # per-member scan attribution; count this member's own
            # detail scans under a marker span.
            with span("mqo_single", kind="mqo_single",
                      index=index) as single_span:
                result = run()
            scans = float(sum(
                1 for span_ in single_span.walk()
                if span_.kind == "detail_scan"
            ))
        else:
            result = run()
        elapsed = time.perf_counter() - t0
        delta = _delta(before, ambient.snapshot())
        _merge_io(totals, delta)
        items[index] = BatchItem(
            index=index, result=result, elapsed_seconds=elapsed,
            group_id=None, shared=False, io=dict(delta),
            detail_scans=scans,
        )

    for group in plan.groups:
        certificate = certify_plan(group.shared.gmdj)
        consumers = len(group.indices)
        before = ambient.snapshot()
        t0 = time.perf_counter()
        shared_result, runtime_scans = _run_traced_group(
            lambda gmdj: evaluate_node(gmdj, db.catalog, kernel, fragmenter),
            group,
        )
        shared_elapsed = time.perf_counter() - t0
        shared_delta = _delta(before, ambient.snapshot())
        _merge_io(totals, shared_delta)
        certified = None if fragmenter is not None else (
            runtime_scans
            == certificate.scan_counts.get(group.shared.detail_table, 0))
        base_width = len(group.shared.gmdj.base.schema(db.catalog))
        for index, slot in zip(group.indices, group.shared.slots):
            before_residual = ambient.snapshot()
            t1 = time.perf_counter()
            with span("mqo_member", kind="mqo_member", index=index,
                      group=group.group_id):
                piece = split_result(
                    shared_result, slot, base_width,
                    slot.candidate.gmdj.schema(db.catalog),
                )
                # The residual is a single query's plan above its node:
                # the same walk, so on the numpy kernel its operators
                # take their array forms over the piece's columns.
                result = evaluate_plan(
                    graft_consumer(slot, piece), db.catalog, kernel
                )
                result.rows  # this member's one transposition
            residual_elapsed = time.perf_counter() - t1
            residual_delta = _delta(
                before_residual, ambient.snapshot()
            )
            _merge_io(totals, residual_delta)
            io: dict[str, float] = dict(residual_delta)
            _merge_io(io, shared_delta, scale=1.0 / consumers)
            items[index] = BatchItem(
                index=index, result=result,
                elapsed_seconds=(
                    shared_elapsed / consumers + residual_elapsed
                ),
                group_id=group.group_id, shared=True, io=io,
                detail_scans=runtime_scans / consumers,
            )
        report.groups.append(ShareGroupReport(
            group_id=group.group_id,
            detail_table=group.shared.detail_table,
            members=list(group.indices),
            consumer_blocks=group.shared.consumer_blocks,
            shared_blocks=group.shared.shared_blocks,
            scans_saved=consumers - 1,
            certificate=certificate,
            runtime_detail_scans=runtime_scans,
            certified=certified,
        ))

    for index in plan.singletons:
        run_single(index)

    if report.groups:
        report.certificate = certify_batch(
            [group.certificate for group in report.groups])
    report.elapsed_seconds = time.perf_counter() - started
    report.io_totals = totals
    return BatchResult(
        items=[item for item in items if item is not None],
        report=report,
    )
