"""Unit tests for repro.storage.iostats."""

from repro.storage.iostats import IOStats, TUPLES_PER_PAGE, collect


class TestRecordScan:
    def test_exact_page_boundary(self):
        stats = IOStats()
        stats.record_scan(TUPLES_PER_PAGE * 3)
        assert stats.pages_read == 3
        assert stats.relation_scans == 1
        assert stats.tuples_scanned == TUPLES_PER_PAGE * 3

    def test_partial_page_rounds_up(self):
        stats = IOStats()
        stats.record_scan(1)
        assert stats.pages_read == 1

    def test_empty_scan_reads_nothing(self):
        stats = IOStats()
        stats.record_scan(0)
        assert stats.pages_read == 0
        assert stats.relation_scans == 1


class TestAmbient:
    def test_ambient_is_singleton(self):
        assert IOStats.ambient() is IOStats.ambient()

    def test_collect_swaps_and_restores(self):
        outer = IOStats.ambient()
        with collect() as inner:
            assert IOStats.ambient() is inner
            IOStats.ambient().predicate_evals += 5
        assert IOStats.ambient() is outer
        assert inner.predicate_evals == 5

    def test_collect_nests(self):
        with collect() as first:
            IOStats.ambient().index_probes += 1
            with collect() as second:
                IOStats.ambient().index_probes += 2
            IOStats.ambient().index_probes += 4
        assert first.index_probes == 5
        assert second.index_probes == 2

    def test_single_instance_reentry_restores_correctly(self):
        # Regression: a single collect instance entered while already
        # active used to clobber its saved previous object, so the
        # outermost exit restored the wrong ambient.
        outer = IOStats.ambient()
        cm = collect()
        with cm as stats:
            with cm as again:
                assert again is stats
                assert IOStats.ambient() is stats
            assert IOStats.ambient() is stats
        assert IOStats.ambient() is outer

    def test_single_instance_sequential_reuse(self):
        outer = IOStats.ambient()
        cm = collect()
        with cm as stats:
            IOStats.ambient().predicate_evals += 1
        with cm:
            IOStats.ambient().predicate_evals += 2
        assert IOStats.ambient() is outer
        assert stats.predicate_evals == 3  # same stats object both times

    def test_unbalanced_exit_is_an_error(self):
        cm = collect()
        try:
            cm.__exit__(None, None, None)
        except AssertionError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected AssertionError on bare __exit__")


class TestReset:
    def test_reset_zeroes_counters(self):
        stats = IOStats()
        stats.record_scan(500)
        stats.predicate_evals = 7
        stats.reset()
        assert stats.pages_read == 0
        assert stats.predicate_evals == 0

    def test_snapshot_contains_integer_counters(self):
        stats = IOStats()
        stats.record_scan(50)
        snapshot = stats.snapshot()
        assert snapshot["tuples_scanned"] == 50
        assert "extra" not in snapshot

    def test_total_work_weighs_pages(self):
        stats = IOStats()
        stats.pages_read = 2
        stats.predicate_evals = 10
        assert stats.total_work() == 2010
