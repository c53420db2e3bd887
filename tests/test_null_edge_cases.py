"""SQL-level NULL regressions: the traps the paper calls out by name.

Two families, both asserted across *every* evaluation strategy so a
rewrite that "simplifies" the counting predicates cannot quietly
reintroduce them:

* **ALL vs MAX (footnote 2).**  ``x >= ALL (SELECT y ...)`` is *not*
  ``x >= (SELECT max(y) ...)``: on an empty subquery ALL is vacuously
  TRUE while MAX yields NULL (comparison UNKNOWN, row dropped), and on
  a NULL-containing subquery ALL can be UNKNOWN while MAX silently
  ignores the NULLs.  The paper's Table 1 counting rewrite exists
  precisely because the MAX shortcut is wrong.
* **Empty-subquery NOT IN.**  ``x NOT IN (empty)`` is TRUE for every
  ``x`` — including ``x IS NULL`` — whereas one NULL in a non-empty
  subquery poisons NOT IN to at-best-UNKNOWN for non-matching rows.
"""

from __future__ import annotations

import pytest
from repro import QueryOptions

from repro.engine import STRATEGIES, Database
from repro.errors import TranslationError
from repro.storage import DataType

ALL_STRATEGIES = STRATEGIES


def run(db: Database, sql: str, strategy: str):
    """Rows as a sorted list, or None when the strategy can't express it."""
    try:
        result = db.execute_sql(sql, QueryOptions(strategy))
    except TranslationError:
        return None
    return sorted(result.rows, key=repr)


def assert_rows(db: Database, sql: str, expected: list[tuple]):
    expected = sorted(expected, key=repr)
    for strategy in ALL_STRATEGIES:
        actual = run(db, sql, strategy)
        if actual is None:
            continue  # legitimately unsupported (e.g. join unnesting)
        assert actual == expected, (
            f"strategy {strategy!r} returned {actual}, wanted {expected}\n"
            f"  for: {sql}"
        )


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(
        "B", [("k", DataType.INTEGER), ("x", DataType.INTEGER)],
        [(1, 5), (2, None), (3, 0)],
    )
    # R is empty for k=3, NULL-bearing for k=2, plain for k=1.
    database.create_table(
        "R", [("k", DataType.INTEGER), ("y", DataType.INTEGER)],
        [(1, 3), (1, 4), (2, None), (2, 1)],
    )
    database.create_table("E", [("k", DataType.INTEGER), ("y", DataType.INTEGER)], [])
    return database


class TestAllVersusMax:
    def test_all_is_vacuously_true_on_empty(self, db):
        # Every B row passes >= ALL over the empty E — even x IS NULL,
        # because there is no comparison to come out UNKNOWN.
        assert_rows(
            db,
            "SELECT b.k FROM B b WHERE b.x >= ALL (SELECT e.y FROM E e)",
            [(1,), (2,), (3,)],
        )

    def test_max_rewrite_drops_rows_on_empty(self, db):
        # The naive MAX "equivalent" keeps nobody: max over empty is
        # NULL, so the comparison is UNKNOWN for every row.
        assert_rows(
            db,
            "SELECT b.k FROM B b "
            "WHERE b.x >= (SELECT max(e.y) FROM E e)",
            [],
        )

    def test_all_goes_unknown_on_inner_null(self, db):
        # Correlated ALL per group: k=1 compares 5 against {3,4} (TRUE),
        # k=2 has x NULL (UNKNOWN), k=3 has an empty group (TRUE).
        assert_rows(
            db,
            "SELECT b.k FROM B b "
            "WHERE b.x >= ALL (SELECT r.y FROM R r WHERE r.k = b.k)",
            [(1,), (3,)],
        )

    def test_null_in_subquery_blocks_all_but_not_max(self, db):
        database = Database()
        database.create_table("B", [("k", DataType.INTEGER), ("x", DataType.INTEGER)],
                              [(1, 9)])
        database.create_table("R", [("y", DataType.INTEGER)], [(3,), (None,)])
        # 9 >= ALL {3, NULL}: the NULL comparison is UNKNOWN and no
        # comparison is FALSE, so the whole quantifier is UNKNOWN.
        assert_rows(
            database,
            "SELECT b.k FROM B b WHERE b.x >= ALL (SELECT r.y FROM R r)",
            [],
        )
        # ...while MAX ignores the NULL and happily keeps the row.
        assert_rows(
            database,
            "SELECT b.k FROM B b "
            "WHERE b.x >= (SELECT max(r.y) FROM R r)",
            [(1,)],
        )

    def test_strict_less_than_all_on_empty(self, db):
        # Same vacuous-truth edge for a different operator, to make sure
        # the counting rewrite isn't special-casing >=.
        assert_rows(
            db,
            "SELECT b.k FROM B b WHERE b.x < ALL (SELECT e.y FROM E e)",
            [(1,), (2,), (3,)],
        )


class TestNotInEdgeCases:
    def test_not_in_empty_subquery_keeps_everything(self, db):
        # NOT IN over the empty set is TRUE — even for x IS NULL.
        assert_rows(
            db,
            "SELECT b.k FROM B b "
            "WHERE b.x NOT IN (SELECT e.y FROM E e)",
            [(1,), (2,), (3,)],
        )

    def test_in_empty_subquery_keeps_nothing(self, db):
        assert_rows(
            db,
            "SELECT b.k FROM B b WHERE b.x IN (SELECT e.y FROM E e)",
            [],
        )

    def test_null_in_subquery_poisons_not_in(self, db):
        database = Database()
        database.create_table("B", [("k", DataType.INTEGER), ("x", DataType.INTEGER)],
                              [(1, 5), (2, 1)])
        database.create_table("R", [("y", DataType.INTEGER)], [(1,), (None,)])
        # x=5: 5 <> 1 is TRUE but 5 <> NULL is UNKNOWN, so NOT IN is
        # UNKNOWN and the row is dropped.  x=1 matches outright (FALSE).
        assert_rows(
            database,
            "SELECT b.k FROM B b WHERE b.x NOT IN (SELECT r.y FROM R r)",
            [],
        )

    def test_correlated_not_in_empty_group(self, db):
        # k=3's group is empty, so its NOT IN is TRUE; k=1's group is
        # {3,4} with x=5 unmatched (TRUE); k=2 has x NULL vs {NULL,1}
        # (UNKNOWN).
        assert_rows(
            db,
            "SELECT b.k FROM B b "
            "WHERE b.x NOT IN (SELECT r.y FROM R r WHERE r.k = b.k)",
            [(1,), (3,)],
        )
