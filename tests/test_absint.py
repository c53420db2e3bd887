"""Unit coverage for the capability abstract-interpretation pass.

The certificate's three fact families each get direct tests —
nullability lattice transfers, the Gray et al. aggregate taxonomy, and
θ-conjunct classification — plus plan-level tests pinning the ambient
certificate plumbing and the acceptance criterion that every corpus
case certifies.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Database
from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import (
    TRUE,
    And,
    Arithmetic,
    Coalesce,
    Column,
    Comparison,
    IsNull,
    Literal,
    Or,
)
from repro.algebra.operators import Project, ScanTable, Select
from repro.errors import TranslationError
from repro.fuzz.datagen import DatabaseSpec
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.lint.absint import (
    ALWAYS,
    MAYBE,
    NEVER,
    Nullability,
    aggregate_nullability,
    capability_scope,
    certify_capabilities,
    classify_aggregate,
    classify_condition,
    classify_conjunct,
    current_capabilities,
    decomposable_aggregates,
    expression_nullability,
    stored_nullability,
)
from repro.storage import DataType, Relation
from repro.storage.columnar import ColumnarRelation, cached_columnar

CORPUS = Path(__file__).parent / "corpus"


def kv_schema():
    return Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], [],
    ).schema


#: One column of each encoding kind: its type, three non-NULL values,
#: and the kind the encoder gives them (a >64-bit int has no array form).
KINDS = {
    "int": (DataType.INTEGER, [1, 2, 3]),
    "float": (DataType.FLOAT, [1.5, -2.0, 0.0]),
    "dict": (DataType.STRING, ["a", "b", "a"]),
    "bool": (DataType.BOOLEAN, [True, False, True]),
    "object": (DataType.INTEGER, [1, 2, 2 ** 70]),
}
NULLS = {"none": (0, NEVER), "some": (1, MAYBE), "all": (3, ALWAYS)}


class TestStoredNullability:
    def test_empty_relation_is_vacuously_never(self):
        assert stored_nullability([], 3) == [NEVER, NEVER, NEVER]

    def test_mixed_columns(self):
        rows = [(1, None, None), (2, 5, None)]
        assert stored_nullability(rows, 3) == [NEVER, MAYBE, ALWAYS]

    @pytest.mark.parametrize("nulls", NULLS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_stored_table_verdicts(self, kind, nulls):
        # A stored table's verdicts come from its encoding's validity
        # masks; they equal what its rows show.
        dtype, values = KINDS[kind]
        count, expected = NULLS[nulls]
        db = Database()
        db.create_table("T", [("A", dtype), ("K", DataType.INTEGER)], [
            (None if position < count else value, position)
            for position, value in enumerate(values)
        ])
        certificate = certify_capabilities(ScanTable("T"), db.catalog)
        assert [column.nullability for column in certificate.columns] == (
            [expected, NEVER])
        if nulls != "all":
            assert cached_columnar(db.table("T")).columns[0].kind == kind

    def test_empty_table_is_vacuously_never(self):
        db = Database()
        db.create_table("T", [("A", DataType.INTEGER),
                              ("S", DataType.STRING)], [])
        certificate = certify_capabilities(ScanTable("T"), db.catalog)
        assert [column.nullability for column in certificate.columns] == (
            [NEVER, NEVER])

    def test_column_backed_table_is_not_transposed(self):
        db = Database()
        stored = Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.STRING)],
            [(1, "x"), (2, None)])
        db.register("T", Relation.column_backed(
            ColumnarRelation.from_relation(stored), name="T"))
        certificate = certify_capabilities(ScanTable("T"), db.catalog)
        assert [column.nullability for column in certificate.columns] == (
            [NEVER, MAYBE])
        assert db.table("T")._rows is None


class TestExpressionNullability:
    def setup_method(self):
        self.schema = kv_schema()

    def verdict(self, expression, env=(NEVER, MAYBE)):
        return expression_nullability(expression, self.schema, list(env))

    def test_column_reads_environment(self):
        assert self.verdict(Column("K")) is NEVER
        assert self.verdict(Column("Y")) is MAYBE

    def test_literals(self):
        assert self.verdict(Literal(None)) is ALWAYS
        assert self.verdict(Literal(7)) is NEVER

    def test_is_null_is_two_valued(self):
        assert self.verdict(IsNull(Column("Y"))) is NEVER

    def test_coalesce_transfer(self):
        assert self.verdict(Coalesce(Column("Y"), Literal(0))) is NEVER
        assert self.verdict(Coalesce(Column("Y"), Column("Y"))) is MAYBE
        assert self.verdict(Coalesce(Literal(None), Literal(None))) is ALWAYS

    def test_arithmetic_is_null_strict(self):
        plus = Arithmetic("+", Column("K"), Literal(1))
        assert self.verdict(plus) is NEVER
        tainted = Arithmetic("+", Column("K"), Column("Y"))
        assert self.verdict(tainted) is MAYBE

    def test_division_never_certifies(self):
        division = Arithmetic("/", Column("K"), Literal(1))
        assert self.verdict(division) is MAYBE

    def test_comparison_maybe_on_nullable_operand(self):
        assert self.verdict(Comparison("=", Column("K"), Literal(1))) is NEVER
        assert self.verdict(Comparison("=", Column("Y"), Literal(1))) is MAYBE

    def test_join_is_least_upper_bound(self):
        assert Nullability.join(NEVER, NEVER) is NEVER
        assert Nullability.join(NEVER, ALWAYS) is MAYBE
        assert Nullability.join(ALWAYS, ALWAYS) is ALWAYS


class TestAggregateNullability:
    def setup_method(self):
        self.schema = kv_schema()

    def test_count_never_null_even_on_empty_groups(self):
        spec = AggregateSpec("count", None, "cnt")
        verdict = aggregate_nullability(spec, False, self.schema,
                                        [NEVER, NEVER])
        assert verdict is NEVER

    def test_value_aggregate_maybe_over_theta_groups(self):
        # A GMDJ θ-group can be empty, so SUM may be NULL even on a
        # NEVER-null argument.
        spec = AggregateSpec("sum", Column("Y"), "total")
        verdict = aggregate_nullability(spec, False, self.schema,
                                        [NEVER, NEVER])
        assert verdict is MAYBE

    def test_value_aggregate_never_when_keyed_and_argument_never(self):
        spec = AggregateSpec("sum", Column("Y"), "total")
        verdict = aggregate_nullability(spec, True, self.schema,
                                        [NEVER, NEVER])
        assert verdict is NEVER

    def test_all_null_argument_dominates(self):
        spec = AggregateSpec("max", Column("Y"), "top")
        verdict = aggregate_nullability(spec, True, self.schema,
                                        [NEVER, ALWAYS])
        assert verdict is ALWAYS


class TestAggregateClassification:
    @pytest.mark.parametrize("function,merge", [
        ("count", "add"), ("sum", "add"), ("min", "min"), ("max", "max"),
    ])
    def test_distributive(self, function, merge):
        argument = None if function == "count" else Column("Y")
        capability = classify_aggregate(
            AggregateSpec(function, argument, "out")
        )
        assert capability.klass == "distributive"
        assert capability.merge == merge
        assert capability.decomposable

    def test_avg_is_algebraic(self):
        capability = classify_aggregate(AggregateSpec("avg", Column("Y"), "a"))
        assert capability.klass == "algebraic"
        assert "sum" in capability.merge and "count" in capability.merge
        assert capability.decomposable

    def test_distinct_is_holistic(self):
        capability = classify_aggregate(
            AggregateSpec("count", Column("Y"), "c", distinct=True)
        )
        assert capability.klass == "holistic"
        assert capability.merge is None
        assert not capability.decomposable

    def test_decomposable_aggregates_gate(self):
        from repro.algebra.operators import ScanTable

        condition = Comparison("=", Column("B.K"), Column("R.K"))
        plain = GMDJ(ScanTable("B"), ScanTable("R"), [ThetaBlock(
            [AggregateSpec("sum", Column("Y"), "total")], condition,
        )])
        assert decomposable_aggregates(plain)
        holistic = GMDJ(ScanTable("B"), ScanTable("R"), [ThetaBlock(
            [AggregateSpec("count", Column("Y"), "c", distinct=True)],
            condition,
        )])
        assert not decomposable_aggregates(holistic)


class TestThetaClassification:
    def test_conjunct_classes(self):
        cases = [
            (Comparison("=", Column("B.K"), Column("R.K")), "equality"),
            (Comparison("<>", Column("B.K"), Column("R.K")), "inequality"),
            (Comparison(">", Column("R.Y"), Literal(5)), "range"),
            (IsNull(Column("R.Y")), "null-test"),
            # The translator's null-safe identity link (Thms 3.3/3.4).
            (Or(Comparison("=", Column("B.K"), Column("__p1.K")),
                And(IsNull(Column("B.K")), IsNull(Column("__p1.K")))),
             "equality"),
            (TRUE, "constant"),
            (Comparison(">", Arithmetic("+", Column("R.Y"), Literal(1)),
                        Literal(5)), "opaque"),
        ]
        for conjunct, expected in cases:
            klass, _ = classify_conjunct(conjunct)
            assert klass == expected, conjunct

    def test_range_monotone_facts_are_oriented(self):
        klass, facts = classify_conjunct(
            Comparison("<", Literal(5), Column("R.Y"))
        )
        assert klass == "range"
        assert ("R.Y", ">") in facts

    def test_classify_condition_collects_facts(self):
        from repro.storage import Schema

        schema = Schema.of(
            ("K", DataType.INTEGER), ("Y", DataType.INTEGER), qualifier="R",
        )
        condition = Comparison("=", Column("B.K"), Column("R.K")) \
            & Comparison(">", Column("R.Y"), Literal(5))
        fact = classify_condition(0, condition, schema)
        assert fact.classes == ("equality", "range")
        assert fact.monotone == (("R.Y", ">"),)
        assert not fact.opaque


class TestPlanCertification:
    def make_db(self):
        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)], [(1,), (2,), (3,)])
        db.create_table(
            "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(1, 10), (1, None), (2, 30)],
        )
        return db

    def translate(self, db, sql):
        from repro.unnesting.translate import subquery_to_gmdj

        return subquery_to_gmdj(db.sql(sql), db.catalog, optimize=True)

    def test_each_node_is_derived_once(self, monkeypatch):
        # A deep chain asks for the scan's schema once, not once per
        # ancestor; the GMDJ entries reuse the pass's detail verdicts.
        derivations = []
        derive = ScanTable.schema

        def counting(node, catalog):
            derivations.append(node.table_name)
            return derive(node, catalog)

        monkeypatch.setattr(ScanTable, "schema", counting)
        db = self.make_db()
        plan = self.translate(
            db,
            "SELECT b.K FROM B b WHERE EXISTS "
            "(SELECT * FROM R r WHERE r.K = b.K)",
        )
        for _ in range(20):
            plan = Project(
                Select(plan, Comparison(">", Column("b.K"), Literal(0))),
                ["b.K"],
            )
        derivations.clear()
        certificate = certify_capabilities(plan, db.catalog)
        assert certificate.complete
        assert sorted(derivations) == ["B", "R"]

    def test_exists_plan_certifies_never_null_key(self):
        db = self.make_db()
        plan = self.translate(
            db,
            "SELECT b.K FROM B b WHERE EXISTS "
            "(SELECT * FROM R r WHERE r.K = b.K)",
        )
        certificate = certify_capabilities(plan, db.catalog)
        assert certificate.complete
        assert certificate.never_null_columns == {"b.K"}
        assert certificate.decomposable
        assert len(certificate.entries) == 1
        entry = certificate.entries[0]
        assert entry.relation == "R"
        assert "K" in entry.detail_never_null
        assert "V" not in entry.detail_never_null

    def test_certificate_json_round_trips(self):
        db = self.make_db()
        plan = self.translate(
            db,
            "SELECT b.K FROM B b WHERE 1 <= "
            "(SELECT COUNT(*) FROM R r WHERE r.K = b.K)",
        )
        payload = certify_capabilities(plan, db.catalog).to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["complete"] is True
        assert payload["entries"][0]["aggregates"][0]["class"] == (
            "distributive"
        )

    def test_ambient_scope_installs_and_restores(self):
        db = self.make_db()
        plan = self.translate(
            db,
            "SELECT b.K FROM B b WHERE EXISTS "
            "(SELECT * FROM R r WHERE r.K = b.K)",
        )
        certificate = certify_capabilities(plan, db.catalog)
        assert current_capabilities() is None
        with capability_scope(certificate) as installed:
            assert installed is certificate
            assert current_capabilities() is certificate
        assert current_capabilities() is None


class TestCorpusCoverage:
    """Acceptance criterion: every corpus plan receives a certificate."""

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem,
    )
    def test_corpus_case_certifies(self, path):
        data = json.loads(path.read_text())
        spec = DatabaseSpec.from_json(data["tables"])
        db = Database()
        for name, table in spec.tables.items():
            db.create_table(name, list(table.columns), table.rows)
        from repro.unnesting.translate import subquery_to_gmdj

        query = db.sql(data["sql"])
        try:
            plan = subquery_to_gmdj(query, db.catalog, optimize=True)
        except TranslationError:
            plan = query
        certificate = certify_capabilities(plan, db.catalog)
        assert certificate.columns, path.name
        assert all(
            isinstance(column.nullability, Nullability)
            for column in certificate.columns
        )
