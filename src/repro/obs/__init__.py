"""Observability: operator-level tracing, EXPLAIN ANALYZE, metrics.

The paper's argument is a *cost* argument — a coalesced GMDJ consumes
the detail relation in a single scan (Prop. 4.1) and its output is
bounded by |B| (Def. 2.1), with base-tuple completion adding no scans
(Thms. 4.1/4.2).  The ambient :class:`~repro.storage.iostats.IOStats`
counters measure total work per query; this package attributes that
work to the operator that did it, and EXPLAIN ANALYZE holds a run's
counters to the plan's cost certificate (:mod:`repro.lint.cost`):

* :mod:`repro.obs.tracer` — a span tree.  Every planner strategy, GMDJ
  evaluation, pushdown copy, coalesce pass, chunk, and partition opens
  a span recording wall-clock plus a delta snapshot of the ambient
  IOStats counters.  Tracing is off by default and the disabled path is
  a single module-global check, so instrumentation costs nothing.
* :mod:`repro.obs.explain` — EXPLAIN ANALYZE rendering: the plan tree
  annotated with per-span counter deltas and times, plus JSON export;
  ``strict`` raises :class:`~repro.errors.InvariantViolation` when the
  counters contradict the certificate.
* :mod:`repro.obs.metrics` — a lightweight registry of counters and
  fixed-bucket histograms fed by the bench and fuzz runners.
"""

from repro.obs.explain import (
    Explain,
    explain_analyze,
    explain_analyze_json,
    explain_batch,
    explain_report,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_scope,
)
from repro.obs.tracer import (
    Span,
    Trace,
    Tracer,
    span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Explain",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
    "explain_analyze",
    "explain_analyze_json",
    "explain_batch",
    "explain_report",
    "get_registry",
    "metrics_scope",
    "span",
    "tracing",
    "tracing_enabled",
]
