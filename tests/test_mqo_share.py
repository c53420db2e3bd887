"""Unit tests for cross-query GMDJ scan sharing (repro.gmdj.share)
and the batch MQO planner/report plumbing (repro.engine.mqo), and a
seeded over-merge that the batch-against-alone comparison catches."""

from __future__ import annotations

import pytest

import repro.gmdj.share as share
from repro import Database, DataType, QueryOptions
from repro.algebra.expressions import col, conjuncts_of, lit
from repro.algebra.nested import Exists, NestedSelect, Subquery
from repro.algebra.operators import ScanTable
from repro.engine.mqo import plan_batch
from repro.errors import ConfigurationError
from repro.gmdj.share import (
    block_key,
    fingerprint_plan,
    merge_group,
)
from repro.unnesting import subquery_to_gmdj

NO_CACHE = QueryOptions(use_cache=False)


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(1, 10), (2, 20), (3, 30), (None, 40)],
    )
    database.create_table(
        "R", [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
        [(1, 5), (1, 7), (2, 2), (3, None), (None, 1)],
    )
    database.create_table(
        "S", [("K", DataType.INTEGER), ("Z", DataType.INTEGER)],
        [(1, 1), (2, 2)],
    )
    return database


def translated(db, sql):
    return subquery_to_gmdj(db.sql(sql), db.catalog, optimize=True)


EXISTS_R = ("SELECT K FROM B WHERE EXISTS "
            "(SELECT 1 FROM R WHERE R.K = B.K)")
EXISTS_R_THETA = ("SELECT K FROM B WHERE EXISTS "
                  "(SELECT 1 FROM R WHERE R.K = B.K AND R.Y > 4)")
EXISTS_S = ("SELECT K FROM B WHERE EXISTS "
            "(SELECT 1 FROM S WHERE S.K = B.K)")
SELECT_LIST_COUNT = ("SELECT b.K, (SELECT COUNT(*) FROM R r "
                     "WHERE r.K = b.K) AS n FROM B b")
SELECT_LIST_SUM = ("SELECT b.K, (SELECT SUM(r.Y) FROM R r "
                   "WHERE r.K = b.K AND r.Y > 4) AS total FROM B b")


class TestFingerprint:
    def test_shareable_plan_fingerprints(self, db):
        candidate = fingerprint_plan(translated(db, EXISTS_R))
        assert candidate is not None
        assert candidate.fingerprint.detail_table == "R"
        assert candidate.detail_alias

    def test_same_base_same_fingerprint(self, db):
        a = fingerprint_plan(translated(db, EXISTS_R))
        b = fingerprint_plan(translated(db, EXISTS_R_THETA))
        assert a.fingerprint == b.fingerprint

    def test_different_detail_tables_differ(self, db):
        a = fingerprint_plan(translated(db, EXISTS_R))
        b = fingerprint_plan(translated(db, EXISTS_S))
        assert a.fingerprint != b.fingerprint

    def test_flat_plan_is_unshareable(self, db):
        assert fingerprint_plan(db.sql("SELECT K FROM B")) is None

    def test_multi_gmdj_plan_is_unshareable(self, db):
        sql = ("SELECT K FROM B b WHERE EXISTS "
               "(SELECT 1 FROM R r WHERE r.K = b.K) "
               "AND EXISTS (SELECT 1 FROM S s WHERE s.K = b.K)")
        plan = subquery_to_gmdj(db.sql(sql), db.catalog, optimize=False)
        assert fingerprint_plan(plan) is None


class TestMergeGroup:
    def group(self, db, *sqls):
        return [fingerprint_plan(translated(db, sql)) for sql in sqls]

    @staticmethod
    def planned(db, *sqls):
        (group,) = plan_batch([db.sql(sql) for sql in sqls], db.catalog,
                              QueryOptions()).groups
        return group

    def test_identical_blocks_deduplicate(self, db):
        group = self.planned(db, EXISTS_R, EXISTS_R)
        assert group.consumer_blocks == 2
        assert group.shared_blocks == 1
        assert len(group.gmdj.blocks) == 1

    def test_distinct_thetas_stay_separate(self, db):
        group = self.planned(db, EXISTS_R, EXISTS_R_THETA)
        assert group.consumer_blocks == 2
        assert group.shared_blocks == 2

    def test_candidates_route_every_consumer_output(self, db):
        gmdj, routed = merge_group(self.group(db, EXISTS_R, EXISTS_R_THETA))
        names = set(gmdj.output_names())
        for candidate in routed:
            assert len(candidate.outputs) == sum(
                len(b.aggregates) for b in candidate.gmdj.blocks
            )
            for shared_name, original in candidate.outputs:
                assert shared_name in names
                assert original in candidate.gmdj.output_names()

    def test_fresh_alias_avoids_collision(self, db):
        sql = ("SELECT K FROM B WHERE EXISTS "
               "(SELECT 1 FROM R mqo_r WHERE mqo_r.K = B.K)")
        gmdj, _ = merge_group(self.group(db, sql, sql))
        alias = gmdj.detail.alias
        assert alias != "mqo_r"
        # The requalified condition must reference the fresh alias.
        assert any(
            alias == ref.rpartition(".")[0]
            for block in gmdj.blocks
            for ref in block.condition.references()
        )

    def test_block_key_is_whole_condition(self, db):
        a, b = (c.gmdj.blocks[0] for c in
                self.group(db, EXISTS_R, EXISTS_R_THETA))
        assert block_key(a) != block_key(b)


class TestPlanBatch:
    def test_groups_compatible_queries(self, db):
        queries = [db.sql(EXISTS_R), db.sql(EXISTS_R_THETA),
                   db.sql(EXISTS_S)]
        plan = plan_batch(queries, db.catalog, QueryOptions())
        assert len(plan.groups) == 1
        assert plan.groups[0].indices == [0, 1]
        assert plan.singletons == [2]

    def test_batch_of_one_never_groups(self, db):
        plan = plan_batch([db.sql(EXISTS_R)], db.catalog, QueryOptions())
        assert plan.groups == []

    def test_baseline_strategy_never_shares(self, db):
        queries = [db.sql(EXISTS_R), db.sql(EXISTS_R)]
        plan = plan_batch(
            queries, db.catalog, QueryOptions(strategy="naive")
        )
        assert plan.groups == []


class TestMqoOption:
    """There is no MQO level: a batch always coalesces, and the unshared
    reference is each member run alone."""

    def test_levels(self, capsys):
        from repro.cli import build_explain_parser, build_parser

        for parser in (build_parser(), build_explain_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args(["SELECT 1", "--mqo", "off"])
        assert "--mqo" in capsys.readouterr().err

    def test_invalid_level_raises(self):
        for level in ("off", "coalesce"):
            with pytest.raises(TypeError, match="mqo"):
                QueryOptions(mqo=level)

    def test_default_is_coalesce(self, db):
        queries = [db.sql(EXISTS_R), db.sql(EXISTS_R)]
        plan = plan_batch(queries, db.catalog, QueryOptions())
        assert [group.indices for group in plan.groups] == [[0, 1]]
        assert not hasattr(plan, "level")


class TestExecuteBatchSurface:
    def test_coalesce_level_saves_scans(self, db):
        batch = db.execute_sql_batch([EXISTS_R, EXISTS_R_THETA])
        assert "mqo" not in batch.report.to_json()
        group = batch.report.groups[0]
        assert group.scans_saved == 1
        assert group.runtime_detail_scans == 1
        assert group.certified is True
        assert batch.report.certificate is not None
        assert "R" in batch.report.certificate.single_scan_tables

    def test_select_list_members_share_under_default_options(self, db):
        # SELECT-list subqueries (APPLY) reach the GMDJ by default, so
        # two of them over one detail table are one share group.
        members = [SELECT_LIST_COUNT, SELECT_LIST_SUM]
        batch = db.execute_sql_batch(members)
        (group,) = batch.report.groups
        assert group.detail_table == "R"
        assert group.indices == [0, 1]
        assert batch.report.scans_saved >= 1
        assert group.runtime_detail_scans == 1
        alone = QueryOptions(use_cache=False)
        assert [r.rows for r in batch] == [
            db.execute_sql(sql, alone).rows for sql in members
        ]

    def test_sequence_protocol(self, db):
        batch = db.execute_sql_batch([EXISTS_R, EXISTS_R_THETA, EXISTS_S])
        assert len(batch) == 3
        assert batch[0].rows == batch.results[0].rows
        assert [r.rows for r in batch[1:]] == [
            r.rows for r in batch.results[1:]
        ]
        assert len(list(iter(batch))) == 3

    def test_io_attribution_reconciles(self, db):
        batch = db.execute_sql_batch(
            [EXISTS_R, EXISTS_R_THETA, EXISTS_S],
            QueryOptions(use_cache=False),
        )
        summed: dict[str, float] = {}
        for item in batch.items:
            for key, value in item.io.items():
                summed[key] = summed.get(key, 0) + value
        for key, total in batch.report.io_totals.items():
            assert summed.get(key, 0) == pytest.approx(total)

    def test_untraced_members_count_their_detail_scans(self, db):
        # No tracer is installed: the counts come from IOStats.
        batch = db.execute_sql_batch(
            [EXISTS_R, EXISTS_R_THETA, EXISTS_S],
            QueryOptions(use_cache=False),
        )
        shared = [item for item in batch.items if item.shared]
        (single,) = [item for item in batch.items if not item.shared]
        assert [item.detail_scans for item in shared] == [0.5, 0.5]
        assert single.detail_scans == 1.0
        total = sum(item.detail_scans for item in batch.items)
        assert total == batch.report.io_totals["detail_scans"] == 2

    def test_each_member_runs_through_execute(self, db):
        # A grouped member is one ``query`` span, as a singleton is: its
        # plan, GMDJ replaced by a projection of the shared result, runs
        # through executor.execute.
        from repro.obs.tracer import tracing

        with tracing() as tracer:
            batch = db.execute_sql_batch([EXISTS_R, EXISTS_R_THETA,
                                          SELECT_LIST_COUNT, SELECT_LIST_SUM],
                                         NO_CACHE)
        assert [item.shared for item in batch.items] == [True] * 4
        members = tracer.trace().find(kind="mqo_member")
        assert len(members) == 4
        for member in members:
            assert [span.kind for span in member.walk()].count("query") == 1

    def test_string_options_rejected(self, db):
        with pytest.raises(ConfigurationError):
            db.execute_sql_batch([EXISTS_R], "gmdj")

    def test_summary_mentions_savings(self, db):
        batch = db.execute_sql_batch([EXISTS_R, EXISTS_R])
        text = batch.report.summary()
        assert "1 share group" in text
        assert "1 detail scan(s) saved" in text


class TestExplainBatch:
    def test_renders_groups_and_singletons_without_executing(self, db):
        from repro.storage.iostats import collect

        # COUNT(DISTINCT) is holistic: that member cannot join the group.
        distinct = ("SELECT K FROM B b WHERE 1 <= (SELECT COUNT(DISTINCT "
                    "r.Y) FROM R r WHERE r.K = b.K)")
        queries = [db.sql(sql) for sql in (EXISTS_R, EXISTS_R_THETA,
                                           distinct)]
        with collect() as stats:
            explained = db.explain_batch(queries, QueryOptions())
        assert stats.detail_scans == 0
        assert explained.startswith("-- EXPLAIN BATCH (3 queries, ")
        assert "mqo=" not in explained
        assert "-- share group 0: queries [0, 1] on R" in explained
        assert "1 scan(s) saved" in explained
        assert "-- query 2 (no sharing)" in explained
        payload = explained.json()
        assert "mqo" not in payload
        (group,) = payload["share_groups"]
        assert group["members"] == [0, 1]
        assert group["scans_saved"] == 1
        assert group["certificate"]["detail_scan_counts"] == {"R": 1}
        assert [single["index"] for single in payload["singletons"]] == [2]
        assert payload["scans_saved"] == 1

    def test_explained_group_is_the_run_reports_group(self, db):
        # One record per group: EXPLAIN BATCH prints it with the plan
        # text, the run report with what the run measured.
        queries = [db.sql(sql) for sql in (EXISTS_R, EXISTS_R_THETA,
                                           EXISTS_S, EXISTS_S)]
        explained = db.explain_batch(queries, NO_CACHE).json()
        batch = db.execute_batch(queries, NO_CACHE)
        assert len(explained["share_groups"]) == len(batch.report.groups) == 2
        for planned, group in zip(explained["share_groups"],
                                  batch.report.groups):
            assert planned.pop("plan")
            ran = group.to_json()
            assert (ran.pop("runtime_detail_scans"), ran.pop("certified")) \
                == (1, True)
            assert planned == ran


class TestABatchPlansEachMemberOnce:
    """``plan_batch`` translates every member to find the share groups;
    a member that then runs alone is handed that plan instead of being
    planned again."""

    #: Seven shareable members and one COUNT(DISTINCT) singleton.
    MEMBERS = [
        f"SELECT K FROM B WHERE EXISTS (SELECT 1 FROM R "
        f"WHERE R.K = B.K AND R.Y > {bound})" for bound in range(7)
    ] + ["SELECT K FROM B WHERE 1 <= "
         "(SELECT COUNT(DISTINCT R.Y) FROM R WHERE R.K = B.K)"]

    @staticmethod
    def counted(monkeypatch, module, name, calls):
        real = getattr(module, name)

        def counting(first, *args, **kwargs):
            calls.append(first)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def test_one_translation_per_member(self, db, monkeypatch):
        import repro.engine.planner as planner

        expected = [db.execute_sql(sql, QueryOptions("naive")).rows
                    for sql in self.MEMBERS]
        calls: list = []
        self.counted(monkeypatch, planner, "subquery_to_gmdj", calls)
        batch = db.execute_sql_batch(self.MEMBERS,
                                     QueryOptions(use_cache=False))
        assert [item.shared for item in batch.items] == [True] * 7 + [False]
        assert len(calls) == len(self.MEMBERS)
        assert [sorted(result.rows) for result in batch] \
            == [sorted(rows) for rows in expected]


class TestSeededOverMerge:
    """An MQO merge keyed only on detail-referencing θ conjuncts merges
    blocks that differ in base-only conjuncts — routing one consumer's
    aggregates through another consumer's θ.  Comparing the batch with
    its members run alone must catch it."""

    @staticmethod
    def buggy_block_key(block):
        def touches_detail(conjunct):
            return any(
                ref.rpartition(".")[0].startswith("mqo_")
                for ref in conjunct.references()
            )

        kept = [c for c in conjuncts_of(block.condition)
                if touches_detail(c)]
        return repr([repr(c) for c in kept])

    def queries(self):
        # Same detail θ; the *base-only* conjunct (b.X > bound) differs.
        def query(bound):
            theta = ((col("r.K") == col("b.K"))
                     & (col("b.X") > lit(bound)))
            return NestedSelect(ScanTable("B", "b"),
                                Exists(Subquery(ScanTable("R", "r"), theta)))

        return [query(5), query(35)]

    def test_blocks_do_merge_under_the_bug(self, db, monkeypatch):
        monkeypatch.setattr(share, "block_key", self.buggy_block_key)
        plan = plan_batch(self.queries(), db.catalog, NO_CACHE)
        assert len(plan.groups) == 1
        assert plan.groups[0].shared_blocks == 1  # over-merged

    def test_differential_catches_the_over_merge(self, db, monkeypatch):
        monkeypatch.setattr(share, "block_key", self.buggy_block_key)
        queries = self.queries()
        batch = db.execute_batch(queries, NO_CACHE)
        diverged = any(
            batch[i].rows != db.execute(queries[i], NO_CACHE).rows
            for i in range(len(queries))
        )
        assert diverged, (
            "the seeded over-merge produced identical results; the "
            "batch-against-alone comparison would not catch this bug class"
        )

    def test_correct_key_passes_the_same_comparison(self, db):
        queries = self.queries()
        batch = db.execute_batch(queries, NO_CACHE)
        for query, result in zip(queries, batch):
            assert result.rows == db.execute(query, NO_CACHE).rows
