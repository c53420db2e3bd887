"""Sweep execution: run one workload under several strategies and check
that they agree before trusting any timing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.algebra.operators import Operator
from repro.bench.workloads import Workload
from repro.engine.executor import profile
from repro.engine.reports import ExecutionReport
from repro.errors import ReproError
from repro.obs.metrics import get_registry


@dataclass
class ComparisonResult:
    """Reports for one workload point, keyed by strategy."""

    workload: Workload
    reports: dict[str, ExecutionReport] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


def compare_strategies(
    workload: Workload,
    strategies: list[str],
    plans: Mapping[str, Operator] | None = None,
) -> ComparisonResult:
    """Profile the workload under each strategy.

    ``plans`` adds series that are not strategies: each maps a label in
    ``strategies`` to a pre-translated plan, profiled under ``gmdj`` (how
    the coalescing-only / completion-only ablations run).

    Strategies that legitimately cannot handle a workload (e.g. join
    unnesting on a disjunctive predicate) are recorded under ``failures``
    rather than aborting the sweep — matching how the paper reports the
    join baseline as infeasible on Figure 4.

    All successful strategies must return the same bag of rows; a
    mismatch raises immediately because a wrong answer invalidates the
    whole comparison.
    """
    result = ComparisonResult(workload)
    registry = get_registry()
    reference = None
    reference_strategy = None
    plans = plans or {}
    for strategy in strategies:
        try:
            if strategy in plans:
                report = profile(plans[strategy], workload.catalog, "gmdj")
            else:
                report = profile(workload.query, workload.catalog, strategy)
        except ReproError as exc:
            result.failures[strategy] = str(exc)
            registry.counter(f"bench.failures.{strategy}").inc()
            continue
        result.reports[strategy] = report
        registry.counter(f"bench.runs.{strategy}").inc()
        registry.histogram(f"bench.elapsed_ms.{strategy}").observe(
            report.elapsed_seconds * 1000
        )
        if reference is None:
            reference = report.result
            reference_strategy = strategy
        elif not reference.bag_equal(report.result):
            raise AssertionError(
                f"strategy {strategy!r} disagrees with "
                f"{reference_strategy!r} on workload {workload.name} "
                f"{workload.params}: {len(report.result)} vs "
                f"{len(reference)} rows"
            )
    return result
