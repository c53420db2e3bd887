"""EXPLAIN, unified: one report object behind every explain entry point.

:class:`Explain` is what ``Database.explain`` / ``explain_analyze`` /
the CLI's ``repro explain`` all return now — a ``str`` subclass (so
every caller that printed or compared the old plan text keeps working)
carrying a machine-readable payload behind ``.json()``:

* :func:`explain_report` — the plan the options would execute; with
  ``analyze=True`` it executes **once** under tracing and derives both
  the rendered text and the JSON trace export from that single run
  (the old ``explain_analyze`` / ``explain_analyze_json`` pair executed
  separately; they are thin wrappers now);
* :func:`explain_batch` — the batch variant: the share groups the MQO
  planner (:mod:`repro.engine.mqo`) would form, each group's coalesced
  plan and single-scan certificate, and the singleton plans — without
  executing anything.

``EXPLAIN ANALYZE`` shows what actually happened — per-span wall-clock
and IOStats counter deltas — then holds the run's counters to the
plan's :class:`~repro.lint.cost.CostCertificate`
(:meth:`~repro.lint.cost.CostCertificate.violations`: one detail scan
per GMDJ evaluation, §2.2 and Prop. 4.1) wherever the certificate
counts them: unfragmented, rollup off.  Output ≤ |B| needs no check
here: :func:`repro.gmdj.physical.evaluate_node` raises on every run.
Multi-worker runs' span subtrees are grafted back into the coordinator
trace.  Every surface here asks :func:`repro.engine.planner.plan_for`
for the tree the options execute — what is rendered, linted and
certified is what runs.
"""

from __future__ import annotations

from repro.errors import InvariantViolation


class Explain(str):
    """An EXPLAIN report: plan text that also carries structured data.

    Being a ``str`` subclass, an ``Explain`` prints, compares, and
    JSON-serializes exactly like the plain plan text the old entry
    points returned; ``.json()`` exposes the structured payload
    (strategy, lint, certificate, and — for analyzed runs — the full
    trace export) without a second execution.
    """

    payload: dict

    def __new__(cls, text: str, payload: dict) -> "Explain":
        self = super().__new__(cls, text)
        self.payload = payload
        return self

    def text(self) -> str:
        """The rendered report (identical to ``str(self)``)."""
        return str(self)

    def json(self) -> dict:
        """The machine-readable payload behind the text rendering."""
        return self.payload


def _coerce(options):
    from repro.engine.options import QueryOptions

    return QueryOptions.of(options)


def _label(options) -> str:
    """The human-facing ``strategy=... [kernel=...] [fragmenter=...]``
    header fragment (the row reference kernel and the single scan are
    implied)."""
    from repro.engine.options import GMDJ_STRATEGIES

    label = f"strategy={options.strategy}"
    canonical = options.canonical()
    if canonical.strategy in GMDJ_STRATEGIES:
        kernel, fragmenter = canonical.kernel(), canonical.fragmenter()
        if kernel != "row":
            label += f" kernel={kernel}"
        if fragmenter is not None:
            label += f" fragmenter={fragmenter}"
    if canonical.rollup != "off":
        label += f" rollup={canonical.rollup}"
    return label


def executed_summary(trace) -> dict:
    """What actually ran, read off the finished trace.

    Returns a dict with the executed ``strategy``, ``kernel`` and
    ``fragmenter`` (from the planner's ``query`` span — ``plain`` when a
    GMDJ strategy had nothing to translate, and the kernel is what
    ``auto`` resolved to), plus, for python-batch-kernel scans, the
    total batch ``chunks`` processed and the ``chunk_size`` in effect.  When the numpy kernel
    ran, the summary names the ``backend`` and the detail-row ``tiles``
    its scans walked, says per hash block how its detail keys were
    resolved (``key_lookup``: ``direct`` addressing or ``sorted``
    search), how many blocks share its key structure (``shared_keys``)
    and whether the scan ``built`` that structure or ``reused`` the join
    index a scan over the same two tables left (``join_index``), how
    many detail rows θ admitted before any pair was built
    (``rows_admitted``) and how many pairs the walk built from them
    (``pairs_built``), says
    per block whether it walked ``pairs`` or took the ``range`` form
    (``forms``), per range-form block whether its sorted index was
    ``built`` or ``reused`` (``range_index``) and why each other scan
    block was declined (``range_declined``), lists
    every per-operator ``fallbacks`` reason the scans recorded (a block
    or aggregate the numpy kernel handed back to the python kernel),
    and — ``flat_fallbacks`` — every flat operator around the GMDJ that
    ran its row-wise method instead of its array form, with the reason.
    """
    summary: dict = {}
    hashed: dict[str, list] = {
        "key_lookup": [], "shared_keys": [], "join_index": [],
        "rows_admitted": [], "pairs_built": []}
    ranges: dict[str, list[str]] = {
        "forms": [], "range_index": [], "range_declined": []}
    fallbacks: list[str] = []
    flat_fallbacks: list[str] = []
    for span_ in trace.walk():
        if span_.kind == "query":
            summary["strategy"] = span_.attrs.get("strategy")
            for key in ("kernel", "fragmenter"):
                if key in span_.attrs:
                    summary[key] = span_.attrs[key]
        elif span_.kind == "detail_scan" and span_.attrs.get("vectorized"):
            for count in ("chunks", "tiles"):
                if count in span_.attrs:
                    summary[count] = (
                        summary.get(count, 0) + span_.attrs[count])
            if "chunk_size" in span_.attrs:
                summary["chunk_size"] = span_.attrs["chunk_size"]
            backend = span_.attrs.get("backend")
            if backend and backend != "python":
                summary["backend"] = backend
                for key, values in (*hashed.items(), *ranges.items()):
                    values.extend(span_.attrs.get(key, ()))
                fallbacks.extend(span_.attrs.get("fallbacks", ()))
        elif span_.kind == "flat" and "fallback" in span_.attrs:
            flat_fallbacks.append(
                f"{span_.name}: {span_.attrs['fallback']}")
        elif span_.kind == "rollup_hit":
            tier = span_.attrs.get("tier")
            key = ("rollup_exact_hits" if tier == "exact"
                   else "rollup_subsume_hits")
            summary[key] = summary.get(key, 0) + 1
        elif span_.kind == "rollup_miss":
            summary["rollup_misses"] = summary.get("rollup_misses", 0) + 1
    if hashed["key_lookup"]:
        summary.update(hashed)
    summary.update((key, values) for key, values in ranges.items() if values)
    if fallbacks:
        summary["fallbacks"] = fallbacks
    if flat_fallbacks:
        summary["flat_fallbacks"] = flat_fallbacks
    return summary


def rollup_summary(trace) -> str | None:
    """A one-line account of which serving tier answered, or None.

    ``None`` when the rollup tier was not active (no rollup spans in the
    trace); otherwise hit/miss counts plus a verdict: fully served from
    the store, partially served, or computed by detail scan.
    """
    executed = executed_summary(trace)
    exact = executed.get("rollup_exact_hits", 0)
    subsume = executed.get("rollup_subsume_hits", 0)
    misses = executed.get("rollup_misses", 0)
    if not (exact or subsume or misses):
        return None
    if misses == 0:
        if subsume and exact:
            tier = "served from rollup store (exact + subsumption)"
        elif subsume:
            tier = "served from rollup store (subsumption)"
        else:
            tier = "served from rollup store (exact)"
    elif exact or subsume:
        tier = "partially served from rollup store"
    else:
        tier = "computed by detail scan (rollups stored)"
    return (f"rollup: exact={exact} subsume={subsume} miss={misses}"
            f" — {tier}")


def _plan(db, query, options):
    """The tree the options execute (:func:`repro.engine.planner.plan_for`)."""
    from repro.engine.planner import plan_for

    return plan_for(query, db.catalog, _coerce(options).canonical().strategy)


def static_report(db, query, options=None):
    """Lint + cost-certify the plan the given options would execute.

    Returns ``(lint_report, certificate)`` — the
    :class:`~repro.lint.diagnostics.LintReport` and
    :class:`~repro.lint.cost.CostCertificate` of the same plan
    ``db.explain`` renders for these options.
    """
    from repro.lint import certify_plan, lint_plan

    plan = _plan(db, query, options)
    return lint_plan(plan, db.catalog), certify_plan(plan)


def _certifiable(canonical) -> bool:
    """True when the run's IOStats must match the static cost certificate.

    Every kernel's single-scan run does; partitioning scans a detail
    once per fragment.  A run with the rollup tier active is never
    certifiable: a rollup hit answers a GMDJ with *zero* detail scans
    (the fuzz identity rule holds a served warm run to zero instead).
    """
    return canonical.rollup == "off" and canonical.fragmenter() is None


def analyze(db, query, options=None, strict: bool = False):
    """Execute ``query`` under tracing and check its scans.

    Returns ``(report, violations)``: the traced
    :class:`~repro.engine.reports.ExecutionReport` and what its counters
    contradict in the :class:`~repro.lint.cost.CostCertificate` of the
    tree the options execute — ``None`` where :func:`_certifiable`
    says the certificate does not count the run's scans.
    """
    from repro.lint import certify_plan

    options = _coerce(options)
    return _run_checked(db, query, options,
                        certify_plan(_plan(db, query, options)), strict)


def _run_checked(db, query, options, certificate, strict: bool):
    """:func:`analyze` given the executed plan's cost certificate;
    ``strict`` raises :class:`~repro.errors.InvariantViolation` on a
    violation."""
    report = db.profile(query, options.with_trace(True))
    if not _certifiable(options.canonical()):
        return report, None
    violations = certificate.violations(report.counters)
    if strict and violations:
        raise InvariantViolation(
            "counters violate the cost certificate:\n" + "\n".join(
                f"  - {violation}" for violation in violations))
    return report, violations


def _invariants(violations: list[str] | None) -> tuple[int, str]:
    """``(checked, summary line)`` for :func:`_run_checked`'s outcome: a
    run that returned held output ≤ |B| (every GMDJ evaluation raises
    past it), and its scan count where certified."""
    checked = 1 if violations is None else 2
    if violations:
        return checked, "\n".join([
            f"invariants: {checked} checked, {len(violations)} VIOLATED",
            *(f"  !! {v}" for v in violations)])
    scans = ("detail_scans as certified" if violations is not None else
             "a fragmented or rollup run's detail scans are not certified")
    return checked, f"invariants: {checked} checked, all hold (output ≤ |B|; {scans})"


def _capability_check(result, capabilities) -> dict | None:
    """Observed-vs-certified nullability per output column, or None.

    ``None`` when the certificate carries no columns or its arity does
    not match the result (e.g. the plan resolved to a shape the
    interpreter could not fully type) — there is nothing meaningful to
    compare then.
    """
    from repro.lint.absint import check_capabilities, stored_nullability

    columns = capabilities.columns
    if not columns or len(result.schema.fields) != len(columns):
        return None
    observed = stored_nullability(result.rows, len(columns))
    violations = check_capabilities(result.rows, capabilities)
    return {
        "ok": not violations,
        "violations": violations,
        "columns": [
            {
                "name": column.name,
                "certified": column.nullability.value,
                "observed": verdict.value,
                "ok": not any(column.name in violation
                              for violation in violations),
            }
            for column, verdict in zip(columns, observed)
        ],
    }


def explain_report(db, query, options=None, *, analyze: bool = False,
                   strict: bool = False) -> Explain:
    """The unified EXPLAIN entry point behind ``Database.explain`` /
    ``explain_analyze`` and the CLI.

    Without ``analyze``, nothing executes: the text is exactly the plan
    rendering the old ``Database.explain`` returned, and the payload
    carries the static lint report and cost certificate.  With
    ``analyze=True`` the query executes **once** under tracing and both
    the text and the payload are derived from that single run.
    """
    from repro.algebra.printer import explain as render_plan
    from repro.lint import certify_capabilities, certify_plan, lint_plan

    options = _coerce(options)
    plan = _plan(db, query, options)
    plan_text = render_plan(plan)
    lint, certificate = lint_plan(plan, db.catalog), certify_plan(plan)
    capabilities = certify_capabilities(plan, db.catalog)
    canonical = options.canonical()
    payload: dict = {
        "strategy": options.strategy,
        "kernel": canonical.kernel(),
        "fragmenter": canonical.fragmenter(),
        "rollup": canonical.rollup,
        "plan": plan_text,
        "lint": lint.to_json(),
        "certificate": certificate.to_json(),
        "capabilities": capabilities.to_json(),
    }
    if not analyze:
        return Explain(plan_text, payload)

    report, violations = _run_checked(
        db, query, options, certificate, strict
    )
    expectations = (certificate.single_scan_tables
                    if violations is not None else frozenset())
    counters = ", ".join(
        f"{key}={value}"
        for key, value in sorted(report.counters.items())
        if value
    )
    executed = executed_summary(report.trace)
    lines = [
        plan_text,
        "",
        f"-- EXPLAIN ANALYZE ({_label(options)})",
        report.trace.render(),
        f"-- rows: {report.row_count}  "
        f"time: {report.elapsed_seconds * 1000:.2f} ms",
        f"-- {counters}",
    ]
    if executed:
        lines.append(
            "-- executed: "
            + " ".join(f"{key}={value}"
                       for key, value in executed.items())
        )
    rollup = rollup_summary(report.trace)
    if rollup is not None:
        lines.append(f"-- {rollup}")
    if expectations:
        lines.append(
            "-- single-scan expectation: "
            + ", ".join(sorted(expectations))
        )
    lines.append(f"-- lint: {lint.summary()}")
    lines.extend(f"--   {d.render()}" for d in lint.sorted())
    lines.append(f"-- {certificate.summary()}")
    lines.append(f"-- {capabilities.summary()}")
    capability_check = _capability_check(report.result, capabilities)
    if capability_check is not None:
        for column in capability_check["columns"]:
            verdict = "ok" if column["ok"] else "VIOLATED"
            lines.append(
                f"--   nullability {column['name']}: "
                f"certified={column['certified']} "
                f"observed={column['observed']} — {verdict}"
            )
        payload["capability_check"] = capability_check
    checked, summary = _invariants(violations)
    lines.append(f"-- {summary}")
    payload.update({
        "executed": executed,
        "rows": report.row_count,
        "elapsed_ms": round(report.elapsed_seconds * 1000, 3),
        "counters": {
            key: value for key, value in sorted(report.counters.items())
            if value
        },
        "single_scan_expectation": sorted(expectations),
        "invariants": {
            "checked": checked,
            "violations": violations or [],
        },
        "trace": report.trace.to_json(),
    })
    return Explain("\n".join(lines), payload)


def explain_batch(db, queries, options=None) -> Explain:
    """EXPLAIN for a batch: share groups and coalesced plans, unexecuted.

    Runs the MQO planner (:func:`repro.engine.mqo.plan_batch`) over the
    batch and renders, per share group, its record
    (:meth:`~repro.engine.mqo.PlannedGroup.to_json`: members, the
    certificate of the single multi-consumer GMDJ it would execute) and
    that GMDJ's plan text; singleton members get their ordinary
    per-query plan text.
    """
    from repro.algebra.printer import explain as render_plan
    from repro.engine.mqo import plan_batch

    options = _coerce(options)
    plan = plan_batch(queries, db.catalog, options, cache=db.cache)
    lines = [f"-- EXPLAIN BATCH ({len(queries)} queries, {_label(options)})"]
    groups_payload = []
    for group in plan.groups:
        coalesced = render_plan(group.gmdj)
        lines.append(
            f"-- share group {group.group_id}: queries "
            f"{group.indices} on {group.detail_table} "
            f"({group.consumer_blocks} consumer block(s) -> "
            f"{group.shared_blocks} shared, "
            f"{group.scans_saved} scan(s) saved)"
        )
        lines.append(coalesced)
        lines.append(f"-- {group.certificate.summary()}")
        groups_payload.append({**group.to_json(), "plan": coalesced})
    singles_payload = []
    for index in plan.singletons:
        text = render_plan(plan.plans[index]
                           or _plan(db, queries[index], options))
        lines.append(f"-- query {index} (no sharing)")
        lines.append(text)
        singles_payload.append({"index": index, "plan": text})
    payload = {
        "queries": len(queries),
        "strategy": options.strategy,
        "share_groups": groups_payload,
        "singletons": singles_payload,
        "scans_saved": sum(g["scans_saved"] for g in groups_payload),
    }
    return Explain("\n".join(lines), payload)


def explain_analyze(db, query, options=None, strict: bool = False) -> str:
    """The full EXPLAIN ANALYZE text: plan, trace, counters, checks.

    Thin wrapper over :func:`explain_report` (one execution; the same
    :class:`Explain` also carries the JSON payload).
    """
    return explain_report(db, query, options, analyze=True, strict=strict)


def explain_analyze_json(db, query, options=None,
                         strict: bool = False) -> dict:
    """Machine-readable EXPLAIN ANALYZE (the ``--json`` trace export)."""
    return explain_report(
        db, query, options, analyze=True, strict=strict
    ).json()


__all__ = [
    "Explain",
    "analyze",
    "executed_summary",
    "explain_analyze",
    "explain_analyze_json",
    "explain_batch",
    "explain_report",
    "rollup_summary",
    "static_report",
]
