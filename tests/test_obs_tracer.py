"""Unit tests for the span tracer (repro.obs.tracer)."""

from repro.engine import Database, QueryOptions, profile
from repro.obs.tracer import (
    _NOOP_SPAN,
    Span,
    Tracer,
    current_tracer,
    span,
    tracing,
    tracing_enabled,
)
from repro.storage import DataType
from repro.storage.iostats import IOStats, collect


def make_db() -> Database:
    db = Database()
    db.create_table(
        "Flow", [("SourceIP", DataType.STRING),
                 ("NumBytes", DataType.INTEGER)],
        [("10.0.0.1", 100), ("10.0.0.2", 50), ("10.0.0.1", 25)],
    )
    return db


class TestDisabled:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        assert current_tracer() is None

    def test_span_is_shared_noop_when_disabled(self):
        first = span("a", kind="op")
        second = span("b", kind="op", x=1)
        assert first is _NOOP_SPAN
        assert second is _NOOP_SPAN

    def test_noop_span_is_inert(self):
        with span("a") as sp:
            assert sp.set(rows=3) is sp


class TestSpanTree:
    def test_nesting_builds_tree(self):
        with tracing() as tracer:
            with span("outer", kind="query"):
                with span("inner", kind="gmdj", blocks=2):
                    pass
                with span("sibling", kind="op"):
                    pass
        trace = tracer.trace()
        assert len(trace.roots) == 1
        outer = trace.roots[0]
        assert [child.name for child in outer.children] == [
            "inner", "sibling"]
        assert outer.children[0].attrs == {"blocks": 2}

    def test_set_updates_attrs_mid_span(self):
        with tracing() as tracer:
            with span("g", kind="gmdj") as sp:
                sp.set(output_rows=7)
        assert tracer.trace().roots[0].attrs["output_rows"] == 7

    def test_counters_are_ambient_deltas(self):
        with collect():
            with tracing() as tracer:
                with span("s", kind="op"):
                    IOStats.ambient().record_scan(10)
        counters = tracer.trace().roots[0].counters
        assert counters["tuples_scanned"] == 10
        assert counters["relation_scans"] == 1
        # Zero deltas are dropped.
        assert "index_probes" not in counters

    def test_counters_inclusive_and_self_counters_exclusive(self):
        with collect():
            with tracing() as tracer:
                with span("parent", kind="op"):
                    IOStats.ambient().predicate_evals += 3
                    with span("child", kind="op"):
                        IOStats.ambient().predicate_evals += 5
        parent = tracer.trace().roots[0]
        assert parent.counters["predicate_evals"] == 8
        assert parent.self_counters() == {"predicate_evals": 3}

    def test_collect_swap_inside_span_does_not_corrupt_delta(self):
        # The span diffs the stats object that was ambient at entry, so
        # a collect() installed mid-span hides the inner work instead of
        # poisoning the delta with an unrelated baseline.
        with collect():
            with tracing() as tracer:
                with span("s", kind="op"):
                    IOStats.ambient().predicate_evals += 2
                    with collect():
                        IOStats.ambient().predicate_evals += 100
                    IOStats.ambient().predicate_evals += 1
        assert tracer.trace().roots[0].counters == {"predicate_evals": 3}

    def test_elapsed_is_recorded(self):
        with tracing() as tracer:
            with span("s"):
                pass
        assert tracer.trace().roots[0].elapsed_seconds >= 0.0


class TestTraceHelpers:
    def build(self) -> Tracer:
        with tracing() as tracer:
            with span("q", kind="query"):
                with span("GMDJ", kind="gmdj", relation="R"):
                    with span("scan", kind="detail_scan", rows=4):
                        pass
        return tracer

    def test_walk_is_depth_first(self):
        trace = self.build().trace()
        assert [sp.name for sp in trace.walk()] == ["q", "GMDJ", "scan"]

    def test_find_by_kind_and_name(self):
        trace = self.build().trace()
        assert len(trace.find(kind="detail_scan")) == 1
        assert trace.find(name="GMDJ")[0].attrs == {"relation": "R"}
        assert trace.find(kind="nope") == []

    def test_to_json_shape(self):
        payload = self.build().trace().to_json()
        root = payload["spans"][0]
        assert root["name"] == "q"
        assert root["children"][0]["children"][0]["attrs"] == {"rows": 4}
        assert "elapsed_ms" in root and "counters" in root

    def test_render_shows_names_attrs_and_counters(self):
        with collect():
            with tracing() as tracer:
                with span("GMDJ", kind="gmdj", relation="R"):
                    IOStats.ambient().record_scan(5)
        text = tracer.trace().render()
        assert "GMDJ [relation=R]" in text
        assert "tuples_scanned=5" in text
        assert "ms)" in text

    def test_render_can_hide_counters(self):
        with collect():
            with tracing() as tracer:
                with span("s"):
                    IOStats.ambient().record_scan(5)
        assert "tuples_scanned" not in tracer.trace().render(counters=False)


class TestTracingContext:
    def test_installs_and_removes(self):
        with tracing() as tracer:
            assert tracing_enabled()
            assert current_tracer() is tracer
        assert not tracing_enabled()

    def test_restores_previous_tracer(self):
        with tracing() as outer:
            with tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_accepts_existing_tracer(self):
        mine = Tracer()
        with tracing(mine) as tracer:
            assert tracer is mine

    def test_abandoned_child_span_tolerated(self):
        # A span exited out of order (e.g. a generator abandoned
        # mid-iteration) must not corrupt the stack.
        with tracing() as tracer:
            outer = span("outer")
            outer.__enter__()
            inner = span("inner")
            inner.__enter__()
            outer.__exit__(None, None, None)  # inner never closed
            with span("next"):
                pass
        names = [sp.name for sp in tracer.trace().roots]
        assert names == ["outer", "next"]


class TestProfileIntegration:
    SQL = ("SELECT f.SourceIP FROM Flow f WHERE EXISTS "
           "(SELECT * FROM Flow g WHERE g.NumBytes > f.NumBytes)")

    def test_profile_without_trace_has_none(self):
        db = make_db()
        report = profile(db.sql(self.SQL), db.catalog, "gmdj_optimized")
        assert report.trace is None

    def test_profile_with_trace_attaches_query_span(self):
        db = make_db()
        report = profile(db.sql(self.SQL), db.catalog,
                         QueryOptions(trace=True))
        assert report.trace is not None
        queries = report.trace.find(kind="query")
        assert len(queries) == 1
        assert queries[0].attrs["strategy"] == "gmdj_optimized"
        assert report.trace.find(kind="detail_scan")

    def test_tracing_not_leaked_after_profile(self):
        db = make_db()
        profile(db.sql(self.SQL), db.catalog, QueryOptions(trace=True))
        assert not tracing_enabled()


class TestSpanRepr:
    def test_repr_mentions_name_and_children(self):
        with tracing() as tracer:
            with span("x"):
                with span("y"):
                    pass
        root = tracer.trace().roots[0]
        assert repr(root) == "Span('x', kind='op', children=1)"
        assert isinstance(root, Span)
