"""Unit tests for the differential fuzzing subsystem itself.

The fuzzer is trusted infrastructure — when it reports a divergence we
rewrite engine code, so its own pieces (generator determinism, the two
SQL renderers, oracle comparison, the shrinker, campaign plumbing, CLI)
need direct coverage beyond "a campaign came back clean".
"""

from __future__ import annotations

import io
import json
import random
import sqlite3

import pytest

from repro.errors import ConfigurationError
from repro.fuzz import (
    DatabaseSpec,
    FuzzConfig,
    GrammarConfig,
    QueryIR,
    TableSpec,
    random_database,
    random_query,
    render_repro_sql,
    render_sqlite_sql,
    replay_case,
    run_differential,
    run_fuzz,
    shrink_case,
    sqlite_oracle_rows,
)
from repro.fuzz.oracle import normalize_rows, normalize_value
from repro.fuzz.queries import (
    AndP,
    Cmp,
    ColRef,
    Lit,
    QuantCmp,
    Sub,
    predicate_size,
)
from repro.fuzz.runner import (
    Counterexample,
    case_points,
    generate_case,
    load_corpus,
    save_counterexample,
)
from repro.storage import DataType


def tiny_db() -> DatabaseSpec:
    integer, string = DataType.INTEGER, DataType.STRING
    return DatabaseSpec({
        "B": TableSpec("B", (("k", integer), ("x", integer), ("s", string)),
                       [(1, 5, "a"), (2, None, "b"), (1, 0, None)]),
        "R": TableSpec("R", (("k", integer), ("y", integer), ("s", string)),
                       [(1, 3, "a"), (2, None, "b")]),
        "S": TableSpec("S", (("k", integer), ("z", integer)), []),
    })


def exists_query() -> QueryIR:
    from repro.fuzz.queries import ExistsP

    return QueryIR("B", "b", ("k", "x"), ExistsP(
        Sub("R", "r", where=Cmp("=", ColRef("r", "k"), ColRef("b", "k"))),
    ))


class TestGeneratorDeterminism:
    def test_same_seed_same_case(self):
        config = FuzzConfig(seed=99, iterations=1)
        db_a, ir_a = generate_case(config, 17)
        db_b, ir_b = generate_case(config, 17)
        assert db_a.to_json() == db_b.to_json()
        assert ir_a == ir_b
        assert render_repro_sql(ir_a) == render_repro_sql(ir_b)

    def test_different_iterations_differ(self):
        config = FuzzConfig(seed=99, iterations=1)
        cases = {render_repro_sql(generate_case(config, i)[1])
                 for i in range(20)}
        assert len(cases) > 1

    def test_all_table_one_forms_appear(self):
        # Across a modest sample the grammar must exercise every
        # Table-1 subquery form at least once.
        rng = random.Random(3)
        seen = set()
        for _ in range(300):
            sql = render_repro_sql(random_query(rng, GrammarConfig()))
            if " IN (" in sql:
                seen.add("in")
            if "NOT IN (" in sql:
                seen.add("not_in")
            if "EXISTS (" in sql:
                seen.add("exists")
            if "NOT EXISTS (" in sql:
                seen.add("not_exists")
            if " SOME (" in sql:
                seen.add("some")
            if " ALL (" in sql:
                seen.add("all")
            for fn in ("count(", "sum(", "avg(", "min(", "max("):
                if fn in sql:
                    seen.add("agg")
        assert seen == {"in", "not_in", "exists", "not_exists", "some",
                        "all", "agg"}

    def test_queries_parse_in_both_dialects(self):
        rng = random.Random(5)
        dbspec = tiny_db()
        from repro.engine.database import Database

        database = Database()
        for name, spec in dbspec.tables.items():
            database.create_table(name, list(spec.columns), spec.rows)
        connection = sqlite3.connect(":memory:")
        dbspec.to_sqlite(connection)
        try:
            for _ in range(50):
                ir = random_query(rng, GrammarConfig())
                database.sql(render_repro_sql(ir))  # must bind
                connection.execute(render_sqlite_sql(ir))  # must compile
        finally:
            connection.close()


class TestRenderers:
    def test_repro_keeps_native_quantifier(self):
        ir = QueryIR("B", "b", ("k",), QuantCmp(
            ">", "all", ColRef("b", "x"),
            Sub("R", "r", item="y"),
        ))
        assert render_repro_sql(ir) == (
            "SELECT b.k FROM B b "
            "WHERE (b.x > ALL (SELECT r.y FROM R r))"
        )

    def test_sqlite_encodes_quantifier_as_case(self):
        ir = QueryIR("B", "b", ("k",), QuantCmp(
            ">", "all", ColRef("b", "x"),
            Sub("R", "r", item="y"),
        ))
        sql = render_sqlite_sql(ir)
        assert "ALL" not in sql
        assert "CASE WHEN EXISTS" in sql
        assert "IS NULL" in sql

    def test_sqlite_quantifier_encoding_is_three_valued(self):
        # The CASE encoding must reproduce the full truth table on the
        # edge cases: empty set (ALL=TRUE, SOME=FALSE) and NULL-bearing
        # sets (UNKNOWN unless decided).
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE R (y INTEGER)")

            def value(quantifier):
                ir = QueryIR("B", "b", ("k",), QuantCmp(
                    ">=", quantifier, ColRef("b", "x"),
                    Sub("R", "r", item="y"),
                ))
                predicate = render_sqlite_sql(ir).split("WHERE ", 1)[1]
                row = connection.execute(
                    f"SELECT {predicate} FROM (SELECT 1 k, 5 x) b"
                ).fetchone()
                return row[0]

            assert value("all") == 1 and value("some") == 0  # empty set
            connection.execute("INSERT INTO R VALUES (3), (NULL)")
            assert value("all") is None  # no decider, NULL present
            assert value("some") == 1    # 5 >= 3 decides
            connection.execute("INSERT INTO R VALUES (9)")
            assert value("all") == 0     # 5 >= 9 is FALSE: decided
        finally:
            connection.close()

    def test_string_literals_escaped(self):
        ir = QueryIR("B", "b", ("k",),
                     Cmp("=", ColRef("b", "s"), Lit("o'clock")))
        assert "'o''clock'" in render_repro_sql(ir)


class TestOracle:
    def test_normalize_collapses_representations(self):
        assert normalize_value(True) == 1
        assert normalize_value(2.0) == 2
        assert normalize_value(2.0000000000001) == 2
        assert normalize_value(None) is None
        assert normalize_rows([(1, 2.0)]) == normalize_rows([(1.0, 2)])

    def test_sqlite_oracle_runs(self):
        rows = sqlite_oracle_rows(tiny_db(), "SELECT b.k FROM B b")
        assert sum(rows.values()) == 3

    def test_clean_case_has_no_divergence(self):
        ir = exists_query()
        outcome = run_differential(
            tiny_db(), render_repro_sql(ir), render_sqlite_sql(ir))
        assert outcome.ok
        assert outcome.engines_run > 0

    def test_disagreement_is_reported_per_engine(self):
        # Feed the oracle a *different* SQLite query: every engine must
        # now diverge, proving the comparison actually bites.
        ir = exists_query()
        outcome = run_differential(
            tiny_db(), render_repro_sql(ir),
            "SELECT b.k, b.x FROM B b WHERE 0")
        assert not outcome.ok
        assert {d.kind for d in outcome.divergences} == {"mismatch"}
        assert len(outcome.divergences) == outcome.engines_run

    def test_counters_only_kernel_bug_is_caught(self, monkeypatch):
        # Mutant M10 of DESIGN.md §6: the numpy kernel undercounts a scan
        # block's residual evaluations (no ``+ 1`` per base tuple) yet
        # returns the right rows, so SQLite cannot see it; the identity
        # rule against the row kernel's counters does.
        from repro.gmdj import npkernel

        row_evaluations = npkernel._row_evaluations
        monkeypatch.setattr(
            npkernel, "_row_evaluations",
            lambda t, n_base, total: row_evaluations(t, n_base, total)
            - (0 if t is None else len(t)))
        config = FuzzConfig(seed=20260806)
        dbspec, ir = generate_case(config, 170)
        outcome = run_differential(
            dbspec, render_repro_sql(ir), render_sqlite_sql(ir),
            case_points(config.seed, 170))
        failing = {d.engine.split("/")[1] for d in outcome.divergences}
        assert failing == {"numpy"}
        assert {d.kind for d in outcome.divergences} == {"identity"}

    def test_divergence_json_is_self_contained(self):
        ir = exists_query()
        outcome = run_differential(
            tiny_db(), render_repro_sql(ir),
            "SELECT b.k, b.x FROM B b WHERE 0")
        payload = outcome.divergences[0].to_json()
        assert payload["kind"] == "mismatch"
        assert payload["expected"] == []
        assert payload["actual"]  # the engines returned rows


class TestShrinker:
    def test_shrinks_rows_and_predicate(self):
        dbspec = tiny_db()
        ir = QueryIR("B", "b", ("k",), AndP(
            QuantCmp("<", "all", ColRef("b", "x"), Sub("R", "r", item="y")),
            Cmp(">", ColRef("b", "x"), Lit(6)),
        ))

        def still_fails(candidate_db, candidate_ir):
            # Synthetic oracle: "fails" while any ALL quantifier remains
            # and B still has rows.
            return ("ALL" in render_repro_sql(candidate_ir)
                    and len(candidate_db.tables["B"].rows) > 0)

        shrunk_db, shrunk_ir = shrink_case(dbspec, ir, still_fails)
        assert len(shrunk_db.tables["B"].rows) == 1
        assert len(shrunk_db.tables["R"].rows) == 0
        assert predicate_size(shrunk_ir.where) < predicate_size(ir.where)
        assert "ALL" in render_repro_sql(shrunk_ir)

    def test_literals_pulled_toward_zero(self):
        dbspec = tiny_db()
        ir = QueryIR("B", "b", ("k",),
                     Cmp(">", ColRef("b", "x"), Lit(6)))
        shrunk_db, shrunk_ir = shrink_case(
            dbspec, ir, lambda db, q: True)
        assert shrunk_ir.where.right == Lit(0)

    def test_crashing_candidate_is_skipped(self):
        dbspec = tiny_db()
        ir = QueryIR("B", "b", ("k",),
                     Cmp(">", ColRef("b", "x"), Lit(1)))
        calls = {"n": 0}

        def flaky(candidate_db, candidate_ir):
            calls["n"] += 1
            if calls["n"] % 2:
                raise RuntimeError("harness crash")
            return True

        shrunk_db, shrunk_ir = shrink_case(dbspec, ir, flaky)
        # Must terminate and still make some progress despite crashes.
        assert shrunk_db.total_rows() <= dbspec.total_rows()

    def test_check_budget_respected(self):
        dbspec = tiny_db()
        ir = exists_query()
        calls = {"n": 0}

        def count_and_fail(candidate_db, candidate_ir):
            calls["n"] += 1
            return True

        shrink_case(dbspec, ir, count_and_fail, max_checks=5)
        assert calls["n"] <= 5


class TestRunner:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FuzzConfig(iterations=-1)
        with pytest.raises(ConfigurationError):
            FuzzConfig(max_rows=-1)

    def test_small_campaign_is_clean(self):
        report = run_fuzz(FuzzConfig(seed=11, iterations=8))
        assert report.ok
        assert report.iterations_run == 8
        assert report.engines_run > 0
        assert "OK" in report.summary()

    def test_database_spec_json_roundtrip(self):
        dbspec = tiny_db()
        assert DatabaseSpec.from_json(dbspec.to_json()).to_json() \
            == dbspec.to_json()

    def test_counterexample_save_load_replay(self, tmp_path):
        ir = exists_query()
        dbspec = tiny_db()
        case = Counterexample(
            seed=1, iteration=2,
            sql=render_repro_sql(ir),
            sqlite_sql=render_sqlite_sql(ir),
            dbspec=dbspec,
            outcome=run_differential(
                dbspec, render_repro_sql(ir), render_sqlite_sql(ir)),
        )
        path = save_counterexample(tmp_path, case)
        assert path.name == "seed1_iter2.json"
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        outcome = replay_case(loaded[0][1])
        assert outcome.ok

    def test_random_database_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            random_database(random.Random(0), max_rows=-1)


class TestFuzzCli:
    def run_cli(self, argv):
        from repro.cli import main

        buffer = io.StringIO()
        code = main(argv, out=buffer)
        return code, buffer.getvalue()

    def test_campaign_ok(self, tmp_path):
        code, output = self.run_cli([
            "fuzz", "--seed", "3", "--iterations", "5", "--quiet",
            "--out", str(tmp_path / "failures"),
        ])
        assert code == 0
        assert "OK" in output
        assert not (tmp_path / "failures").exists()  # nothing written

    def test_corpus_replay_ok(self, tmp_path):
        ir = exists_query()
        dbspec = tiny_db()
        case = Counterexample(
            seed=0, iteration=0,
            sql=render_repro_sql(ir),
            sqlite_sql=render_sqlite_sql(ir),
            dbspec=dbspec,
            outcome=run_differential(
                dbspec, render_repro_sql(ir), render_sqlite_sql(ir)),
        )
        save_counterexample(tmp_path, case)
        code, output = self.run_cli(["fuzz", "--corpus", str(tmp_path)])
        assert code == 0
        assert "OK" in output

    def test_corpus_replay_flags_divergence(self, tmp_path):
        data = {
            "description": "deliberately wrong oracle query",
            "sql": "SELECT b.k, b.x FROM B b",
            "sqlite_sql": "SELECT b.k, b.x FROM B b WHERE 0",
            "tables": tiny_db().to_json(),
            "divergences": [],
        }
        (tmp_path / "bad.json").write_text(json.dumps(data))
        code, output = self.run_cli(["fuzz", "--corpus", str(tmp_path)])
        assert code == 1
        assert "DIVERGED" in output

    def test_missing_corpus_dir(self, tmp_path):
        code, _ = self.run_cli(
            ["fuzz", "--corpus", str(tmp_path / "nope")])
        assert code == 2
