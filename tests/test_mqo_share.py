"""Unit tests for cross-query GMDJ scan sharing (repro.gmdj.share)
and the batch MQO planner/report plumbing (repro.engine.mqo)."""

from __future__ import annotations

import pytest

from repro import Database, DataType, QueryOptions
from repro.engine.mqo import plan_batch
from repro.engine.options import MQO_LEVELS
from repro.errors import ConfigurationError
from repro.gmdj.share import (
    block_key,
    fingerprint_plan,
    merge_group,
)
from repro.unnesting import subquery_to_gmdj


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

    def test_identical_blocks_deduplicate(self, db):
        shared = merge_group(self.group(db, EXISTS_R, EXISTS_R))
        assert shared.consumer_blocks == 2
        assert shared.shared_blocks == 1
        assert len(shared.gmdj.blocks) == 1

    def test_distinct_thetas_stay_separate(self, db):
        shared = merge_group(self.group(db, EXISTS_R, EXISTS_R_THETA))
        assert shared.consumer_blocks == 2
        assert shared.shared_blocks == 2

    def test_slots_route_every_consumer_output(self, db):
        candidates = self.group(db, EXISTS_R, EXISTS_R_THETA)
        shared = merge_group(candidates)
        names = set(shared.gmdj.output_names())
        for slot, candidate in zip(shared.slots, candidates):
            assert len(slot.outputs) == sum(
                len(b.aggregates) for b in candidate.gmdj.blocks
            )
            for shared_name, original in slot.outputs:
                assert shared_name in names
                assert original in candidate.gmdj.output_names()

    def test_fresh_alias_avoids_collision(self, db):
        sql = ("SELECT K FROM B WHERE EXISTS "
               "(SELECT 1 FROM R mqo_r WHERE mqo_r.K = B.K)")
        shared = merge_group(self.group(db, sql, sql))
        alias = shared.gmdj.detail.alias
        assert alias != "mqo_r"
        # The requalified condition must reference the fresh alias.
        assert any(
            alias == ref.rpartition(".")[0]
            for block in shared.gmdj.blocks
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

    def test_off_level_disables_grouping(self, db):
        queries = [db.sql(EXISTS_R), db.sql(EXISTS_R)]
        plan = plan_batch(queries, db.catalog, QueryOptions(mqo="off"))
        assert plan.groups == []
        assert plan.singletons == [0, 1]

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
    def test_levels(self):
        assert MQO_LEVELS == ("off", "coalesce")

    def test_invalid_level_raises(self):
        with pytest.raises(ConfigurationError, match="mqo"):
            QueryOptions(mqo="always")

    def test_default_is_coalesce(self, db):
        assert QueryOptions().mqo == "coalesce"
        queries = [db.sql(EXISTS_R), db.sql(EXISTS_R)]
        assert plan_batch(queries, db.catalog, QueryOptions()).level \
            == "coalesce"

    def test_cache_key_ignores_mqo(self, db):
        # Shared groups bypass the result cache and a singleton runs the
        # plan it would run alone: the level never splits an entry.
        assert len({QueryOptions(mqo=level).cache_key()
                    for level in MQO_LEVELS}) == 1
        db.execute_sql(EXISTS_R, QueryOptions(mqo="coalesce"))
        hits = db.cache.result_hits
        db.execute_sql(EXISTS_R, QueryOptions())
        assert db.cache.result_hits == hits + 1


class TestExecuteBatchSurface:
    def test_coalesce_level_saves_scans(self, db):
        batch = db.execute_sql_batch([EXISTS_R, EXISTS_R_THETA])
        assert batch.report.mqo == "coalesce"
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
        assert group.members == [0, 1]
        assert batch.report.scans_saved >= 1
        assert group.runtime_detail_scans == 1
        off = QueryOptions(mqo="off", use_cache=False)
        assert [r.rows for r in batch] == [
            db.execute_sql(sql, off).rows for sql in members
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

    def test_string_options_rejected(self, db):
        with pytest.raises(ConfigurationError):
            db.execute_sql_batch([EXISTS_R], "gmdj")

    def test_summary_mentions_savings(self, db):
        batch = db.execute_sql_batch([EXISTS_R, EXISTS_R])
        text = batch.report.summary()
        assert "1 share group" in text
        assert "1 detail scan(s) saved" in text


class TestABatchPlansEachMemberOnce:
    """``plan_batch`` translates (and, under ``lint``, gates) every
    member to find the share groups; a member that then runs alone is
    handed that plan instead of being planned again."""

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

    def test_strict_lint_gates_the_singleton_once(self, db, monkeypatch):
        import repro.engine.mqo as mqo
        import repro.engine.planner as planner
        from repro.engine.planner import _holds_gmdj

        gated: list = []
        self.counted(monkeypatch, mqo, "lint_gate", gated)
        self.counted(monkeypatch, planner, "lint_gate", gated)
        db.execute_sql_batch(
            self.MEMBERS, QueryOptions(use_cache=False, lint="strict"))
        translated = [plan for plan in gated if _holds_gmdj(plan)]
        # Every member's plan once — the singleton's included — plus the
        # singleton's query as written, at the executor's door.
        assert len(translated) == len(self.MEMBERS)
        assert len({id(plan) for plan in translated}) == len(self.MEMBERS)
        assert len(gated) == len(self.MEMBERS) + 1

    def test_the_gate_still_stops_a_singleton(self, db, monkeypatch):
        # The query is clean; only its translation is broken (a plain
        # '=' identity link).  Two GMDJs: unshareable, so it runs alone
        # on the plan the batch built — which the batch gated.
        from repro.algebra.expressions import Comparison
        from repro.errors import LintError
        from repro.unnesting import translate

        nested = ("SELECT B.K FROM B WHERE EXISTS (SELECT R.K FROM R "
                  "WHERE R.K = B.K AND R.Y > (SELECT AVG(S.Z) FROM S "
                  "WHERE S.K = B.K))")
        options = QueryOptions(strategy="gmdj", use_cache=False,
                               lint="strict")
        assert len(db.execute_sql_batch([nested, EXISTS_R], options)) == 2
        monkeypatch.setattr(
            translate, "_null_safe_equal",
            lambda left, right: Comparison("=", left, right))
        with pytest.raises(LintError):
            db.execute_sql_batch([nested, EXISTS_R], options)
