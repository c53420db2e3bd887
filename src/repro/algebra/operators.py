"""Flat (non-nested) relational algebra operators.

Every operator is a node with ``schema(catalog)`` and ``evaluate(catalog)``
methods; evaluation materializes the result as a
:class:`~repro.storage.relation.Relation`.  Work is reported into the
ambient :class:`~repro.storage.iostats.IOStats`: reading any operator input
counts as a scan, predicate applications count as ``predicate_evals``, and
join implementations count the pairs they consider.

Bag semantics throughout: ``Union``/``Difference`` come in ALL (bag) and
DISTINCT (set) flavours; ``Project`` optionally deduplicates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.analysis import (
    FactoredCondition,
    factor_condition,
    is_trivially_true,
)
from repro.algebra.expressions import (
    Arithmetic,
    Column,
    Comparison,
    Expression,
    Literal,
)
from repro.errors import ExpressionError, PlanError, SchemaError
from repro.storage.attempt import stored_read
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation, Row
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType


def infer_dtype(expression: Expression, schema: Schema) -> DataType:
    """Best-effort static type of a scalar expression."""
    if isinstance(expression, Column):
        return schema.field_of(expression.reference).dtype
    if isinstance(expression, Literal):
        if expression.value is None:
            return DataType.STRING  # arbitrary; NULL literal carries no type
        return DataType.infer(expression.value)
    if isinstance(expression, Arithmetic):
        if expression.op == "/":
            return DataType.FLOAT
        left = infer_dtype(expression.left, schema)
        right = infer_dtype(expression.right, schema)
        if left is DataType.INTEGER and right is DataType.INTEGER:
            return DataType.INTEGER
        return DataType.FLOAT
    if expression.is_predicate:
        return DataType.BOOLEAN
    return DataType.FLOAT


class Operator:
    """Base class for algebra nodes."""

    def schema(self, catalog: Catalog) -> Schema:
        raise NotImplementedError

    def evaluate(self, catalog: Catalog) -> Relation:
        raise NotImplementedError

    def children(self) -> tuple["Operator", ...]:
        return ()


@dataclass
class ScanTable(Operator):
    """Read a named catalog table, optionally re-qualifying it (``Flow -> F``)."""

    table_name: str
    alias: str | None = None

    def schema(self, catalog: Catalog) -> Schema:
        schema = catalog.table(self.table_name).schema
        qualifier = self.alias or self.table_name
        return schema.rename(qualifier)

    def evaluate(self, catalog: Catalog) -> Relation:
        stored_read()
        relation = catalog.table(self.table_name)
        qualifier = self.alias or self.table_name
        # A scan is a view: it shares the stored row list (nothing is
        # copied per operand per query) and the stored relation's
        # columnar-encoding cache — the typed columns are
        # qualifier-independent, so every query over this table reuses
        # one encoding until the table mutates.  A result that *is* this
        # list is snapshotted where it leaves the engine
        # (:func:`repro.engine.executor.execute`).
        out = Relation(relation.schema.rename(qualifier), relation.rows,
                       name=self.table_name, validate=False)
        out._columnar = relation._columnar
        return out


@dataclass
class TableValue(Operator):
    """Wrap an already-materialized relation (intermediate results)."""

    relation: Relation
    alias: str | None = None

    def schema(self, catalog: Catalog) -> Schema:
        if self.alias is not None:
            return self.relation.schema.rename(self.alias)
        return self.relation.schema

    def evaluate(self, catalog: Catalog) -> Relation:
        if self.alias is not None:
            return self.relation.rename(self.alias)
        return self.relation


@dataclass
class Select(Operator):
    """σ[predicate] with where-clause truncation (keep only TRUE)."""

    child: Operator
    predicate: Expression

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog)

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.child.evaluate(catalog)
        stats = IOStats.ambient()
        if is_trivially_true(self.predicate):
            return source
        test = self.predicate.bind(source.schema)
        rows = []
        for row in source.scan():
            stats.predicate_evals += 1
            if test(row).is_true:
                rows.append(row)
        stats.tuples_output += len(rows)
        return Relation(source.schema, rows, validate=False)


@dataclass
class ProjectItem:
    """One output column of a projection.

    Items built from a bare attribute reference keep the source field's
    qualifier (``preserve=True``); renamed or computed items produce an
    unqualified output attribute.
    """

    expression: Expression
    name: str
    preserve: bool = False

    @staticmethod
    def of(item: "ProjectItem | str | tuple | Expression") -> "ProjectItem":
        if isinstance(item, ProjectItem):
            return item
        if isinstance(item, str):
            return ProjectItem(Column(item), item.rpartition(".")[2], preserve=True)
        if isinstance(item, tuple) and len(item) == 2:
            expression, name = item
            return ProjectItem(expression, name)
        raise ExpressionError(f"bad projection item {item!r}")

    def output_field(self, child_schema: Schema) -> Field:
        if self.preserve and isinstance(self.expression, Column):
            return child_schema.field_of(self.expression.reference)
        return Field(self.name, infer_dtype(self.expression, child_schema))


@dataclass
class Project(Operator):
    """π[items]; ``distinct=True`` gives the set-valued π of the paper."""

    child: Operator
    items: Sequence
    distinct: bool = False

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def _resolved_items(self) -> list[ProjectItem]:
        return [ProjectItem.of(item) for item in self.items]

    def schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.schema(catalog)
        return Schema(item.output_field(child_schema) for item in self._resolved_items())

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.child.evaluate(catalog)
        items = self._resolved_items()
        evaluators = [item.expression.bind(source.schema) for item in items]
        schema = Schema(item.output_field(source.schema) for item in items)
        rows = [tuple(ev(row) for ev in evaluators) for row in source.scan()]
        if self.distinct:
            seen: set[Row] = set()
            unique: list[Row] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        IOStats.ambient().tuples_output += len(rows)
        return Relation(schema, rows, validate=False)


@dataclass
class Rename(Operator):
    """ρ: replace every field's qualifier (``E -> C`` in the paper)."""

    child: Operator
    qualifier: str

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog).rename(self.qualifier)

    def evaluate(self, catalog: Catalog) -> Relation:
        return self.child.evaluate(catalog).rename(self.qualifier)


@dataclass
class Distinct(Operator):
    child: Operator

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog)

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.child.evaluate(catalog)
        IOStats.ambient().record_scan(len(source))
        return source.distinct()


def _check_union_compatible(left: Schema, right: Schema) -> None:
    if len(left) != len(right):
        raise SchemaError(
            f"union arity mismatch: {len(left)} vs {len(right)} columns"
        )


@dataclass
class Union(Operator):
    """UNION ALL by default; ``distinct=True`` gives set union."""

    left: Operator
    right: Operator
    distinct: bool = False

    def children(self) -> tuple["Operator", ...]:
        return (self.left, self.right)

    def schema(self, catalog: Catalog) -> Schema:
        left = self.left.schema(catalog)
        _check_union_compatible(left, self.right.schema(catalog))
        return left

    def evaluate(self, catalog: Catalog) -> Relation:
        left = self.left.evaluate(catalog)
        right = self.right.evaluate(catalog)
        _check_union_compatible(left.schema, right.schema)
        IOStats.ambient().record_scan(len(left))
        IOStats.ambient().record_scan(len(right))
        result = Relation(left.schema, left.rows + right.rows, validate=False)
        if self.distinct:
            result = result.distinct()
        return result


@dataclass
class Difference(Operator):
    """EXCEPT ALL by default (bag difference); ``distinct=True`` = set minus."""

    left: Operator
    right: Operator
    distinct: bool = False

    def children(self) -> tuple["Operator", ...]:
        return (self.left, self.right)

    def schema(self, catalog: Catalog) -> Schema:
        left = self.left.schema(catalog)
        _check_union_compatible(left, self.right.schema(catalog))
        return left

    def evaluate(self, catalog: Catalog) -> Relation:
        left = self.left.evaluate(catalog)
        right = self.right.evaluate(catalog)
        _check_union_compatible(left.schema, right.schema)
        IOStats.ambient().record_scan(len(left))
        IOStats.ambient().record_scan(len(right))
        if self.distinct:
            # SQL EXCEPT: distinct left rows with no occurrence in right.
            exclude = set(right.rows)
            rows = [row for row in left.distinct().rows
                    if row not in exclude]
            return Relation(left.schema, rows, validate=False)
        remaining = Counter(right.rows)
        rows = []
        for row in left.rows:
            if remaining.get(row, 0) > 0:
                remaining[row] -= 1
            else:
                rows.append(row)
        return Relation(left.schema, rows, validate=False)


@dataclass
class Intersect(Operator):
    """INTERSECT ALL by default (bag intersection: minimum multiplicity);
    ``distinct=True`` gives set intersection."""

    left: Operator
    right: Operator
    distinct: bool = False

    def children(self) -> tuple["Operator", ...]:
        return (self.left, self.right)

    def schema(self, catalog: Catalog) -> Schema:
        left = self.left.schema(catalog)
        _check_union_compatible(left, self.right.schema(catalog))
        return left

    def evaluate(self, catalog: Catalog) -> Relation:
        left = self.left.evaluate(catalog)
        right = self.right.evaluate(catalog)
        _check_union_compatible(left.schema, right.schema)
        IOStats.ambient().record_scan(len(left))
        IOStats.ambient().record_scan(len(right))
        remaining = Counter(right.rows)
        rows = []
        for row in left.rows:
            if remaining.get(row, 0) > 0:
                remaining[row] -= 1
                rows.append(row)
        result = Relation(left.schema, rows, validate=False)
        if self.distinct:
            result = result.distinct()
        return result


@dataclass
class Limit(Operator):
    """Keep the first ``count`` rows (after an optional ``offset``)."""

    child: Operator
    count: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.count < 0 or self.offset < 0:
            raise PlanError("LIMIT/OFFSET must be non-negative")

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog)

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.child.evaluate(catalog)
        rows = source.rows[self.offset:self.offset + self.count]
        IOStats.ambient().tuples_output += len(rows)
        return Relation(source.schema, rows, validate=False)


#: Join kinds supported by :class:`Join`.
JOIN_KINDS = ("inner", "left", "semi", "anti")
JOIN_METHODS = ("auto", "nested", "hash", "merge")


@dataclass
class Join(Operator):
    """θ-join of two operators.

    ``kind``:

    * ``inner`` — matching concatenated pairs;
    * ``left``  — inner plus left rows without a match padded with NULLs
      (the outer join the unnesting baselines need for empty groups);
    * ``semi``  — left rows with at least one match (no right columns);
    * ``anti``  — left rows with no match.

    ``method='auto'`` picks a hash join when θ has an equality conjunct
    across the inputs and a nested-loop join otherwise.
    """

    left: Operator
    right: Operator
    condition: Expression
    kind: str = "inner"
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.kind!r}")
        if self.method not in JOIN_METHODS:
            raise PlanError(f"unknown join method {self.method!r}")

    def children(self) -> tuple["Operator", ...]:
        return (self.left, self.right)

    def schema(self, catalog: Catalog) -> Schema:
        left = self.left.schema(catalog)
        if self.kind in ("semi", "anti"):
            return left
        return left.concat(self.right.schema(catalog))

    def evaluate(self, catalog: Catalog) -> Relation:
        left = self.left.evaluate(catalog)
        right = self.right.evaluate(catalog)
        factored = factor_condition(self.condition, left.schema, right.schema)
        method = self.method
        if method == "auto":
            method = "hash" if factored.has_equality else "nested"
        if method in ("hash", "merge") and not factored.has_equality:
            raise PlanError(
                f"{method} join requires an equality conjunct; condition is "
                f"{self.condition!r}"
            )
        if method == "nested":
            matches = _nested_matches(left, right, self.condition)
        elif method == "hash":
            matches = _hash_matches(left, right, factored)
        else:
            matches = _merge_matches(left, right, factored)
        return _emit_join(left, right, matches, self.kind)


def _nested_matches(
    left: Relation, right: Relation, condition: Expression
) -> Iterator[tuple[int, Row]]:
    """Yield (left_index, right_row) matching pairs via nested loops."""
    stats = IOStats.ambient()
    combined = left.schema.concat(right.schema)
    test = condition.bind(combined)
    stats.record_scan(len(left))
    right_rows = right.rows
    for left_index, left_row in enumerate(left.rows):
        stats.record_scan(len(right_rows))
        for right_row in right_rows:
            stats.join_pairs_considered += 1
            stats.predicate_evals += 1
            if test(left_row + right_row).is_true:
                yield left_index, right_row


def _hash_matches(
    left: Relation, right: Relation, factored: FactoredCondition
) -> Iterator[tuple[int, Row]]:
    """Yield matching pairs via a hash table built on the right input."""
    stats = IOStats.ambient()
    right_key_evals = [k.bind(right.schema) for k in factored.right_keys]
    left_key_evals = [k.bind(left.schema) for k in factored.left_keys]
    table: dict[tuple, list[Row]] = {}
    for right_row in right.scan():
        key = tuple(ev(right_row) for ev in right_key_evals)
        if any(part is None for part in key):
            continue
        table.setdefault(key, []).append(right_row)
    stats.index_builds += 1
    residual = factored.residual
    combined = left.schema.concat(right.schema)
    test = residual.bind(combined) if residual is not None else None
    for left_index, left_row in enumerate(left.rows):
        stats.tuples_scanned += 1
        key = tuple(ev(left_row) for ev in left_key_evals)
        if any(part is None for part in key):
            continue
        stats.index_probes += 1
        for right_row in table.get(key, ()):
            stats.join_pairs_considered += 1
            if test is None:
                yield left_index, right_row
            else:
                stats.predicate_evals += 1
                if test(left_row + right_row).is_true:
                    yield left_index, right_row


def _merge_matches(
    left: Relation, right: Relation, factored: FactoredCondition
) -> Iterator[tuple[int, Row]]:
    """Yield matching pairs via sort-merge on the first equality key."""
    stats = IOStats.ambient()
    left_key = factored.left_keys[0].bind(left.schema)
    right_key = factored.right_keys[0].bind(right.schema)
    left_sorted = sorted(
        ((left_key(row), i) for i, row in enumerate(left.rows)
         if left_key(row) is not None),
        key=lambda pair: pair[0],
    )
    right_sorted = sorted(
        ((right_key(row), i) for i, row in enumerate(right.rows)
         if right_key(row) is not None),
        key=lambda pair: pair[0],
    )
    stats.record_scan(len(left))
    stats.record_scan(len(right))
    # Full residual includes the remaining equality keys, if any.
    extra = []
    for lk, rk in zip(factored.left_keys[1:], factored.right_keys[1:]):
        extra.append(Comparison("=", lk, rk))
    residual = factored.residual
    for clause in extra:
        residual = clause if residual is None else (residual & clause)
    combined = left.schema.concat(right.schema)
    test = residual.bind(combined) if residual is not None else None
    left_rows, right_rows = left.rows, right.rows
    i = j = 0
    while i < len(left_sorted) and j < len(right_sorted):
        lkey, _ = left_sorted[i]
        rkey, _ = right_sorted[j]
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            # Collect the equal-key runs on both sides.
            i_end = i
            while i_end < len(left_sorted) and left_sorted[i_end][0] == lkey:
                i_end += 1
            j_end = j
            while j_end < len(right_sorted) and right_sorted[j_end][0] == rkey:
                j_end += 1
            for _, li in left_sorted[i:i_end]:
                left_row = left_rows[li]
                for _, ri in right_sorted[j:j_end]:
                    right_row = right_rows[ri]
                    stats.join_pairs_considered += 1
                    if test is None:
                        yield li, right_row
                    else:
                        stats.predicate_evals += 1
                        if test(left_row + right_row).is_true:
                            yield li, right_row
            i, j = i_end, j_end


def _emit_join(
    left: Relation,
    right: Relation,
    matches: Iterable[tuple[int, Row]],
    kind: str,
) -> Relation:
    stats = IOStats.ambient()
    left_rows = left.rows
    if kind == "inner":
        schema = left.schema.concat(right.schema)
        rows = [left_rows[li] + right_row for li, right_row in matches]
        stats.tuples_output += len(rows)
        return Relation(schema, rows, validate=False)
    if kind == "left":
        schema = left.schema.concat(right.schema)
        rows: list[Row] = []
        matched: set[int] = set()
        for li, right_row in matches:
            matched.add(li)
            rows.append(left_rows[li] + right_row)
        padding = (None,) * len(right.schema)
        for li, left_row in enumerate(left_rows):
            if li not in matched:
                rows.append(left_row + padding)
        stats.tuples_output += len(rows)
        return Relation(schema, rows, validate=False)
    # semi / anti keep only left rows.
    matched_set = {li for li, _ in matches}
    if kind == "semi":
        rows = [row for li, row in enumerate(left_rows) if li in matched_set]
    else:
        rows = [row for li, row in enumerate(left_rows) if li not in matched_set]
    stats.tuples_output += len(rows)
    return Relation(left.schema, rows, validate=False)


@dataclass
class GroupBy(Operator):
    """Grouping and aggregation.

    With an empty key list this is a scalar aggregate: exactly one output
    row even for empty input (``count(*)`` = 0, ``sum`` = NULL), matching
    SQL — the distinction the paper's footnote 2 turns on.
    """

    child: Operator
    keys: Sequence[str]
    aggregates: Sequence[AggregateSpec]

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.schema(catalog)
        fields = [child_schema.field_of(key) for key in self.keys]
        fields.extend(spec.output_field(child_schema) for spec in self.aggregates)
        return Schema(fields)

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.child.evaluate(catalog)
        stats = IOStats.ambient()
        key_positions = [source.schema.index_of(key) for key in self.keys]
        argument_evals = [spec.bind_argument(source.schema) for spec in self.aggregates]
        # Output fields first: a mistyped aggregate fails before any row.
        fields = [source.schema.field_of(key) for key in self.keys]
        fields.extend(spec.output_field(source.schema) for spec in self.aggregates)
        groups: dict[tuple, list] = {}
        order: list[tuple] = []
        for row in source.scan():
            key = tuple(row[p] for p in key_positions)
            state = groups.get(key)
            if state is None:
                state = [spec.make_accumulator() for spec in self.aggregates]
                groups[key] = state
                order.append(key)
            for accumulator, evaluator in zip(state, argument_evals):
                stats.aggregate_updates += 1
                accumulator.add(None if evaluator is None else evaluator(row))
        if not self.keys and not groups:
            groups[()] = [spec.make_accumulator() for spec in self.aggregates]
            order.append(())
        rows = [
            key + tuple(acc.result() for acc in groups[key]) for key in order
        ]
        stats.tuples_output += len(rows)
        return Relation(Schema(fields), rows, validate=False)


@dataclass
class OrderBy(Operator):
    """Sort rows by attribute references; NULLs sort first.

    ``keys`` is a sequence of ``(reference, descending)`` pairs.  Sorting is
    stable, so secondary orderings compose the SQL way.
    """

    child: Operator
    keys: Sequence[tuple[str, bool]]

    def children(self) -> tuple["Operator", ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog)

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.child.evaluate(catalog)
        IOStats.ambient().record_scan(len(source))
        rows = list(source.rows)
        for reference, descending in reversed(list(self.keys)):
            position = source.schema.index_of(reference)
            rows.sort(
                key=lambda row: (row[position] is not None, row[position]),
                reverse=descending,
            )
        return Relation(source.schema, rows, validate=False)


def scan(table_name: str, alias: str | None = None) -> ScanTable:
    """Convenience constructor mirroring the paper's ``Flow -> F``."""
    return ScanTable(table_name, alias)


def select(child: Operator, predicate: Expression) -> Select:
    return Select(child, predicate)


def project(child: Operator, items: Sequence, distinct: bool = False) -> Project:
    return Project(child, items, distinct)
