"""Tests for the runtime invariant checker (repro.obs.invariants)."""

import pytest

from repro.bench.workloads import (
    build_fig5,
    build_table1_catalog,
    table1_queries,
)
from repro.engine import QueryOptions, execute
from repro.errors import InvariantViolation
from repro.obs.invariants import check_trace
from repro.obs.tracer import span, tracing
from repro.unnesting import subquery_to_gmdj


@pytest.fixture(scope="module")
def table1_catalog():
    return build_table1_catalog(outer=40, inner=200)


class TestTable1Invariants:
    """Every Table 1 rewrite holds the paper's cost claims at runtime."""

    @pytest.mark.parametrize("form", sorted(table1_queries()))
    def test_single_scan_and_output_bound(self, table1_catalog, form):
        query = table1_queries()[form]
        with tracing() as tracer:
            execute(query, table1_catalog, "gmdj_optimized")
        report = check_trace(
            tracer.trace(), single_scan_tables={"R"}, strict=True
        )
        assert report.ok
        assert report.checked >= 3  # single-scan, |B|-bound, Prop. 4.1

    def test_partitioned_run_holds(self, table1_catalog):
        query = table1_queries()["exists"]
        with tracing() as tracer:
            execute(query, table1_catalog,
                    QueryOptions(strategy="gmdj", partitions=4))
        report = check_trace(tracer.trace(), strict=True)
        assert report.ok


class TestDecoalescedPlanTripsProp41:
    """A de-coalesced plan scans the shared detail twice — Prop. 4.1."""

    def run_trace(self):
        workload = build_fig5(120, outer_size=20)
        plan = subquery_to_gmdj(
            workload.query, workload.catalog, optimize=False
        )
        with tracing() as tracer:
            plan.evaluate(workload.catalog)
        return tracer.trace()

    def test_non_strict_records_violation(self):
        trace = self.run_trace()
        report = check_trace(trace, single_scan_tables={"orders"})
        assert not report.ok
        assert any("coalesced-single-scan" in violation
                   and "'orders'" in violation
                   for violation in report.violations)
        assert "VIOLATED" in report.summary()

    def test_strict_raises(self):
        trace = self.run_trace()
        with pytest.raises(InvariantViolation, match="Prop. 4.1"):
            check_trace(trace, single_scan_tables={"orders"}, strict=True)

    def test_per_gmdj_single_scan_still_holds(self):
        # Each *individual* GMDJ in the stacked plan is still single-scan;
        # only the query-level Prop. 4.1 claim fails.
        report = check_trace(self.run_trace())
        assert report.ok


def fabricate(builder):
    """Run ``builder`` under a fresh tracer; return the finished trace."""
    with tracing() as tracer:
        builder()
    return tracer.trace()


class TestFabricatedViolations:
    """Synthetic span trees exercising each violation message."""

    def test_multi_scan_gmdj(self):
        def build():
            with span("GMDJ", kind="gmdj", relation="R", completion=False):
                with span("scan", kind="detail_scan", relation="R", rows=5):
                    pass
                with span("scan", kind="detail_scan", relation="R", rows=5):
                    pass

        report = check_trace(fabricate(build))
        assert any(v.startswith("single-scan:") and "2 detail scans" in v
                   for v in report.violations)

    def test_completion_fused_label(self):
        def build():
            with span("GMDJ", kind="gmdj", relation="R", completion=True):
                pass

        report = check_trace(fabricate(build))
        assert any("completion-fused GMDJ" in v for v in report.violations)

    def test_output_bound(self):
        def build():
            with span("GMDJ", kind="gmdj", relation="R") as sp:
                with span("scan", kind="detail_scan", relation="R"):
                    pass
                sp.set(base_rows=3, output_rows=7)

        report = check_trace(fabricate(build))
        assert any(v.startswith("|B|-bound:") and "7 rows" in v
                   for v in report.violations)

    def test_partition_volume(self):
        def build():
            with span("GMDJ(partitioned)", kind="gmdj_partitioned",
                      detail_rows=10):
                with span("scan", kind="detail_scan", rows=4):
                    pass
                with span("scan", kind="detail_scan", rows=5):
                    pass

        report = check_trace(fabricate(build))
        assert any(v.startswith("partition-volume:")
                   and "9 tuples" in v for v in report.violations)

    def test_nested_gmdj_scans_attributed_to_nearest_owner(self):
        # The inner GMDJ's scan must not count against the outer one.
        def build():
            with span("outer", kind="gmdj", relation="R"):
                with span("scan", kind="detail_scan", relation="R"):
                    pass
                with span("inner", kind="gmdj", relation="S"):
                    with span("scan", kind="detail_scan", relation="S"):
                        pass

        report = check_trace(fabricate(build))
        assert report.ok

    def test_strict_message_lists_every_violation(self):
        def build():
            with span("GMDJ", kind="gmdj", relation="R") as sp:
                sp.set(base_rows=1, output_rows=2)

        with pytest.raises(InvariantViolation) as excinfo:
            check_trace(fabricate(build), strict=True)
        assert "single-scan" in str(excinfo.value)
        assert "|B|-bound" in str(excinfo.value)
