"""Soundness of capability certificates against ground truth.

Two layers: a hypothesis property checks certified nullability claims
against both the repro engine and the SQLite oracle on NULL-heavy
random data, and a seeded-bug test breaks the COALESCE lattice
transfer to prove the runtime differential cross-check actually
catches an unsound certificate (rather than vacuously passing).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DataType
from repro.algebra.expressions import Coalesce, col
from repro.algebra.operators import Project, ScanTable
from repro.errors import CertificateViolation
from repro.fuzz.datagen import DatabaseSpec, TableSpec
from repro.fuzz.oracle import capability_violations, sqlite_oracle_rows
from repro.lint.absint import (
    NEVER,
    certify_capabilities,
    check_capabilities,
)
from repro.storage import Catalog, Relation
from repro.unnesting.translate import subquery_to_gmdj

nullable_int = st.one_of(st.none(), st.integers(0, 4))

QUERIES = [
    "SELECT b.K FROM B b WHERE EXISTS "
    "(SELECT * FROM R r WHERE r.K = b.K)",
    "SELECT b.K, b.X FROM B b WHERE NOT EXISTS "
    "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 2)",
    "SELECT b.K FROM B b WHERE 1 <= "
    "(SELECT COUNT(*) FROM R r WHERE r.K = b.K)",
]


def build_database(b_rows, r_rows):
    db = Database()
    db.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)], b_rows
    )
    db.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)], r_rows
    )
    spec = DatabaseSpec({
        "B": TableSpec(
            "B", (("K", DataType.INTEGER), ("X", DataType.INTEGER)), b_rows
        ),
        "R": TableSpec(
            "R", (("K", DataType.INTEGER), ("V", DataType.INTEGER)), r_rows
        ),
    })
    return db, spec


class TestCertificateSoundnessProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        b_rows=st.lists(st.tuples(nullable_int, nullable_int), max_size=8),
        r_rows=st.lists(st.tuples(nullable_int, nullable_int), max_size=12),
    )
    def test_certified_claims_hold_on_both_engines(self, b_rows, r_rows):
        db, spec = build_database(b_rows, r_rows)
        for sql in QUERIES:
            # The engine-side differential cross-check: both kernels,
            # both translations, rows checked against the certificate.
            assert capability_violations(db, sql) == [], sql

            # Oracle-side: a NEVER claim must also hold on SQLite's
            # answer to the same (dialect-shared) query.
            plan = subquery_to_gmdj(db.sql(sql), db.catalog, optimize=True)
            certificate = certify_capabilities(plan, db.catalog)
            oracle_rows = list(sqlite_oracle_rows(spec, sql).elements())
            violations = check_capabilities(oracle_rows, certificate)
            assert not violations, (sql, violations)


def coalesce_catalog():
    detail = Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(1, 10), (2, None), (3, 30)],
        name="R", qualifier="r",
    )
    catalog = Catalog()
    catalog.create_table("R", detail)
    return catalog


def coalesce_plan():
    # COALESCE(V, V) is NULL exactly when V is — with the broken
    # transfer below it gets certified NEVER-null anyway.
    return Project(
        ScanTable("R", "r"),
        [(Coalesce(col("r.V"), col("r.V")), "padded")],
    )


class TestSeededCoalesceBug:
    def test_sound_transfer_makes_no_false_claim(self):
        plan, catalog = coalesce_plan(), coalesce_catalog()
        certificate = certify_capabilities(plan, catalog)
        assert "padded" not in certificate.never_null_columns
        rows = plan.evaluate(catalog).rows
        assert not check_capabilities(rows, certificate)

    def test_broken_transfer_is_caught_by_runtime_check(self, monkeypatch):
        import repro.lint.absint as absint

        monkeypatch.setattr(
            absint, "_coalesce_transfer", lambda first, second: NEVER
        )
        plan, catalog = coalesce_plan(), coalesce_catalog()
        certificate = certify_capabilities(plan, catalog)
        # The broken lattice now makes an unsound claim...
        assert "padded" in certificate.never_null_columns
        rows = plan.evaluate(catalog).rows
        # ...and the differential layer refuses it instead of letting
        # downstream optimizations trust it.
        violations = check_capabilities(rows, certificate)
        assert any("NEVER-null" in violation for violation in violations)
        with pytest.raises(CertificateViolation):
            check_capabilities(rows, certificate, strict=True)
