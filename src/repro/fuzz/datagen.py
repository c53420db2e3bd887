"""Random NULL-heavy databases for differential fuzzing.

The fixed three-table layout mirrors the shapes the paper's rewrites
care about — an outer (base-values) table and two candidate detail
tables, one sharing a string attribute for non-numeric predicates:

* ``B(k INTEGER, x INTEGER, s STRING)`` — the outer block's table;
* ``R(k INTEGER, y INTEGER, s STRING)`` — the usual detail table;
* ``S(k INTEGER, z INTEGER)``          — a second detail table so linear
  nesting can hop across tables.

What varies per case is the *data*: row counts, NULL density, key skew,
and duplicate rate are all drawn from the per-case RNG, because the
interesting rewrite bugs live exactly in empty groups, all-NULL groups,
and duplicated tuples (bag semantics).
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.types import DataType

#: SQLite column affinity per engine type.
_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOLEAN: "INTEGER",
}

#: Tiny string pool — collisions (and therefore duplicates and matching
#: correlations) must be common for the fuzz to bite.
STRING_POOL = ("a", "b", "c", "d")


@dataclass
class TableSpec:
    """One table: typed columns plus plain-Python rows."""

    name: str
    columns: tuple[tuple[str, DataType], ...]
    rows: list[tuple]

    def to_json(self) -> dict:
        return {
            "columns": [[name, dtype.value] for name, dtype in self.columns],
            "rows": [list(row) for row in self.rows],
        }

    @staticmethod
    def from_json(name: str, data: dict) -> "TableSpec":
        columns = tuple(
            (col_name, DataType(type_name))
            for col_name, type_name in data["columns"]
        )
        return TableSpec(name, columns, [tuple(row) for row in data["rows"]])


@dataclass
class DatabaseSpec:
    """A full database instance, portable between repro and sqlite3."""

    tables: dict[str, TableSpec]

    def build_catalog(self) -> Catalog:
        catalog = Catalog()
        for spec in self.tables.values():
            catalog.create_table(
                spec.name,
                Relation.from_columns(list(spec.columns), spec.rows,
                                      name=spec.name),
            )
        return catalog

    def to_sqlite(self, connection: sqlite3.Connection) -> None:
        cursor = connection.cursor()
        for spec in self.tables.values():
            column_ddl = ", ".join(
                f"{name} {_SQLITE_TYPES[dtype]}" for name, dtype in spec.columns
            )
            cursor.execute(f"CREATE TABLE {spec.name} ({column_ddl})")
            if spec.rows:
                placeholders = ", ".join("?" for _ in spec.columns)
                cursor.executemany(
                    f"INSERT INTO {spec.name} VALUES ({placeholders})",
                    spec.rows,
                )
        connection.commit()

    def total_rows(self) -> int:
        return sum(len(spec.rows) for spec in self.tables.values())

    def to_json(self) -> dict:
        return {name: spec.to_json() for name, spec in self.tables.items()}

    @staticmethod
    def from_json(data: dict) -> "DatabaseSpec":
        return DatabaseSpec({
            name: TableSpec.from_json(name, table_data)
            for name, table_data in data.items()
        })


def _skewed_key(rng: random.Random, domain: int) -> int:
    """Zipf-flavoured key draw: key ``i`` has weight ``1/(i+1)``."""
    weights = [1.0 / (i + 1) for i in range(domain)]
    return rng.choices(range(domain), weights=weights)[0]


def _maybe_null(rng: random.Random, value, null_rate: float):
    return None if rng.random() < null_rate else value


def _random_rows(
    rng: random.Random,
    make_row,
    max_rows: int,
    duplicate_rate: float,
) -> list[tuple]:
    rows: list[tuple] = []
    for _ in range(rng.randint(0, max_rows)):
        if rows and rng.random() < duplicate_rate:
            rows.append(rng.choice(rows))  # exact duplicate: bag semantics
        else:
            rows.append(make_row())
    return rows


def random_database(
    rng: random.Random,
    max_rows: int = 10,
    null_rate: float | None = None,
    key_domain: int | None = None,
    duplicate_rate: float | None = None,
) -> DatabaseSpec:
    """Draw a B/R/S instance; unset knobs are themselves randomized."""
    if max_rows < 0:
        raise ConfigurationError(f"max_rows must be >= 0, got {max_rows}")
    if null_rate is None:
        null_rate = rng.choice([0.0, 0.1, 0.25, 0.4])
    if key_domain is None:
        key_domain = rng.choice([2, 3, 5])
    if duplicate_rate is None:
        duplicate_rate = rng.choice([0.0, 0.2, 0.4])
    value_domain = 7

    def base_row():
        return (
            _maybe_null(rng, _skewed_key(rng, key_domain), null_rate),
            _maybe_null(rng, rng.randint(0, value_domain), null_rate),
            _maybe_null(rng, rng.choice(STRING_POOL), null_rate),
        )

    def second_detail_row():
        return (
            _maybe_null(rng, _skewed_key(rng, key_domain), null_rate),
            _maybe_null(rng, rng.randint(0, value_domain), null_rate),
        )

    integer = DataType.INTEGER
    string = DataType.STRING
    return DatabaseSpec({
        "B": TableSpec(
            "B", (("k", integer), ("x", integer), ("s", string)),
            _random_rows(rng, base_row, max_rows, duplicate_rate),
        ),
        "R": TableSpec(
            "R", (("k", integer), ("y", integer), ("s", string)),
            _random_rows(rng, base_row, max_rows, duplicate_rate),
        ),
        "S": TableSpec(
            "S", (("k", integer), ("z", integer)),
            _random_rows(rng, second_detail_row, max_rows, duplicate_rate),
        ),
    })
