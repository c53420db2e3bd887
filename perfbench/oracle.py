"""Expected answers from stdlib ``sqlite3`` over the same generated rows.

An answer is kept as ``(row_count, digest)`` where the digest is
order-independent, so the benchmark holds a few dozen bytes per query
instead of the rows.  Quantified comparisons, which SQLite lacks, are
written by hand in ``queries.py`` as 3VL-exact ``EXISTS`` forms.
"""

from __future__ import annotations

import hashlib
import sqlite3
from collections.abc import Iterable, Sequence

from perfbench.data import Table

Answer = tuple[int, str]

_SQLITE_TYPES = {"integer": "INTEGER", "float": "REAL", "string": "TEXT"}


def _canonical(value: object) -> str:
    if value is None:
        return "N"
    if isinstance(value, (int, float)):
        # One spelling for 3 and 3.0: SQLite and the engine may disagree
        # on the type of a numeric result while agreeing on its value.
        return format(float(value), ".12g")
    return "s" + str(value)


def digest(rows: Iterable[Sequence[object]]) -> Answer:
    """``(row_count, order-independent sha256)`` of a bag of rows."""
    lines = sorted("\x1f".join(_canonical(v) for v in row) for row in rows)
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\x1e")
    return len(lines), hasher.hexdigest()


class Oracle:
    """An in-memory SQLite database holding the benchmark's tables."""

    def __init__(self, tables: Iterable[Table]):
        self.connection = sqlite3.connect(":memory:")
        for table in tables:
            columns = ", ".join(
                f"{name} {_SQLITE_TYPES[dtype]}"
                for name, dtype in table.columns
            )
            self.connection.execute(f"CREATE TABLE {table.name} ({columns})")
            marks = ", ".join("?" * len(table.columns))
            self.connection.executemany(
                f"INSERT INTO {table.name} VALUES ({marks})", table.rows
            )

    def index(self, table: str, column: str) -> None:
        """Index a correlation key so oracle answers stay cheap."""
        self.connection.execute(
            f"CREATE INDEX ix_{table}_{column} ON {table} ({column})"
        )

    def answer(self, sql: str) -> Answer:
        return digest(self.connection.execute(sql).fetchall())

    def close(self) -> None:
        self.connection.close()
