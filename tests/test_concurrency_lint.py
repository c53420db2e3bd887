"""The serve-tier concurrency lint: one firing and one quiet fixture
per diagnostic code, plus the invariant that the shipped serve/pool
sources stay clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_concurrency_paths, lint_concurrency_source
from repro.lint.diagnostics import DIAGNOSTIC_CODES

SRC = Path(__file__).parent.parent / "src" / "repro"


def codes_of(source: str) -> set[str]:
    report = lint_concurrency_source(source, filename="fixture.py")
    return {diagnostic.code for diagnostic in report.diagnostics}


# -- C301: mutation under a reader lock ---------------------------------------

C301_FIRING = """
def refresh(tenant, lock):
    with lock.read():
        tenant.create_table("t", [], [])
"""

C301_OK = """
def refresh(tenant, lock):
    with lock.write():
        tenant.create_table("t", [], [])
"""


def test_c301_mutation_under_read_region():
    assert "C301" in codes_of(C301_FIRING)


def test_c301_quiet_under_writer_lock():
    assert "C301" not in codes_of(C301_OK)


def test_c301_explicit_acquire_release_pair():
    source = """
def refresh(tenant, lock):
    lock.acquire_read()
    tenant.drop_table("t")
    lock.release_read()
"""
    assert "C301" in codes_of(source)


@pytest.mark.parametrize("call", [
    'db.insert("t", [(1,)])',
    'tenant.db.insert("t", [(1,)])',
    'self.database.insert("t", [(1,)])',
    'db.register("t", relation)',
    'db.load_binary("t", path)',
    'db.table("t").extend(rows)',
    'db.cache.invalidate_results()',
    'db.rollups.invalidate_results()',
])
def test_c301_every_write_entry_point_is_a_mutation(call):
    # Seeded violation: a write slipped into a reader region.  (`insert`,
    # `register`, `load_binary` and `extend` were missing from
    # MUTATING_CALLS, so C301 stayed quiet on exactly these.)
    firing = f"""
def serve(self, db, tenant, lock, relation, rows, path):
    with lock.read():
        {call}
"""
    assert "C301" in codes_of(firing)
    assert "C301" not in codes_of(firing.replace("lock.read()",
                                                 "lock.write()"))


@pytest.mark.parametrize("call", [
    "rows.extend(more)",
    "pending.insert(0, more)",
    "self.rows.extend(more)",
    "report.result.rows.extend(more)",
])
def test_c301_growing_a_list_under_a_reader_lock_is_quiet(call):
    # `insert` / `extend` are also `list` methods: C301 matches them
    # only on a database or a stored table, not on a bare name.
    quiet = f"""
def serve(self, lock, rows, pending, report, more):
    with lock.read():
        {call}
"""
    assert "C301" not in codes_of(quiet)


# -- C302: apply_ddl without the writer lock ----------------------------------

C302_FIRING = """
def run_ddl(tenant, statement):
    apply_ddl(tenant, statement)
"""

C302_OK = """
def run_ddl(tenant, lock, statement):
    lock.acquire_write()
    apply_ddl(tenant, statement)
    lock.release_write()
"""


def test_c302_ddl_without_writer_lock():
    assert "C302" in codes_of(C302_FIRING)


def test_c302_quiet_when_writer_lock_held():
    assert "C302" not in codes_of(C302_OK)


def test_c302_apply_helpers_are_the_lock_free_layer():
    source = """
def apply_statement(tenant, statement):
    apply_ddl(tenant, statement)
"""
    assert "C302" not in codes_of(source)


# -- cross-cutting ------------------------------------------------------------

def test_syntax_error_reports_instead_of_raising():
    report = lint_concurrency_source("def broken(:\n", filename="bad.py")
    assert not report.ok


def test_every_concurrency_code_has_a_firing_fixture():
    fired = codes_of(C301_FIRING) | codes_of(C302_FIRING)
    concurrency_codes = {
        code for code in DIAGNOSTIC_CODES if code.startswith("C3")
    }
    assert concurrency_codes <= fired


@pytest.mark.parametrize("target", ["serve", "gmdj/pool.py"])
def test_shipped_serve_tier_is_clean(target):
    report = lint_concurrency_paths([SRC / target])
    assert report.ok, [d.code for d in report.diagnostics]
    assert not report.diagnostics, [
        (d.code, d.path) for d in report.diagnostics
    ]
