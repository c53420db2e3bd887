"""Query IR for the fuzzer, with renderers for repro SQL and SQLite SQL.

The fuzzer does not generate SQL text directly: it generates a small
intermediate representation of "outer block + predicate tree whose leaves
may be subqueries" and renders it twice —

* :func:`render_repro_sql` — the dialect of :mod:`repro.sql` (which
  supports ``SOME``/``ALL`` quantified comparisons natively);
* :func:`render_sqlite_sql` — standard SQLite.  SQLite has no quantified
  comparisons, so ``x op SOME/ALL (...)`` is encoded as a three-valued
  ``CASE WHEN EXISTS ... THEN 1/0/NULL`` expression taken straight from
  the quantifier's definition.  Crucially this encoding is *not* the
  paper's counting rewrite: the oracle must not share the machinery under
  test, or a rewrite bug would cancel out in the comparison.

Every composite is fully parenthesized so the two dialects agree on
structure regardless of precedence rules.
"""

from __future__ import annotations

from dataclasses import dataclass


# -- scalar operands ---------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    """An integer, string, or NULL literal."""

    value: object  # int | str | None


@dataclass(frozen=True)
class ColRef:
    """A qualified column reference ``alias.name``."""

    alias: str
    name: str


# -- predicate nodes ---------------------------------------------------------

@dataclass(frozen=True)
class Cmp:
    """A plain comparison between two scalar operands."""

    op: str  # = <> < <= > >=
    left: object
    right: object


@dataclass(frozen=True)
class IsNullP:
    operand: ColRef
    negated: bool = False


@dataclass(frozen=True)
class ExistsP:
    sub: "Sub"
    negated: bool = False


@dataclass(frozen=True)
class InP:
    left: object
    sub: "Sub"
    negated: bool = False


@dataclass(frozen=True)
class QuantCmp:
    """``left op SOME/ALL (SELECT item FROM ...)``."""

    op: str
    quantifier: str  # "some" | "all"
    left: object
    sub: "Sub"


@dataclass(frozen=True)
class ScalarCmp:
    """``left op (SELECT agg(...) | item FROM ...)``: an aggregate, or an
    item that raises where it meets two rows (SQLite takes the first)."""

    op: str
    left: object
    sub: "Sub"


@dataclass(frozen=True)
class AndP:
    left: object
    right: object


@dataclass(frozen=True)
class OrP:
    left: object
    right: object


@dataclass(frozen=True)
class NotP:
    operand: object


@dataclass(frozen=True)
class AggSpecIR:
    """The aggregate of a :class:`ScalarCmp` or SELECT-list subquery."""

    func: str  # count | sum | avg | min | max
    column: str | None  # None => count(*)
    distinct: bool = False


@dataclass(frozen=True)
class Sub:
    """One subquery block: table, alias, optional WHERE, and its role.

    ``item`` names the column produced for IN / quantified comparisons,
    and for a non-aggregate scalar comparison or SELECT-list subquery;
    ``agg`` holds the aggregate of an aggregate one; EXISTS subqueries
    carry neither and render as ``SELECT *``.
    """

    table: str
    alias: str
    where: object | None = None
    item: str | None = None
    agg: AggSpecIR | None = None


@dataclass(frozen=True)
class QueryIR:
    """The outer block: ``SELECT columns, (select_subs...) FROM table
    alias [WHERE where]``.

    ``select_subs`` are scalar subqueries in the SELECT list (each
    carries ``agg`` or ``item``) — the APPLY position; ``where`` is None
    for a block without a WHERE clause.
    """

    table: str
    alias: str
    columns: tuple[str, ...]
    where: object | None
    select_subs: tuple[Sub, ...] = ()


def predicate_size(node) -> int:
    """Node count of a predicate tree — the shrinker's progress metric."""
    if node is None:
        return 0
    if isinstance(node, (AndP, OrP)):
        return 1 + predicate_size(node.left) + predicate_size(node.right)
    if isinstance(node, NotP):
        return 1 + predicate_size(node.operand)
    if isinstance(node, (ExistsP, InP, QuantCmp, ScalarCmp)):
        inner = node.sub.where
        return 2 + (predicate_size(inner) if inner is not None else 0)
    return 1


# -- shared rendering helpers ------------------------------------------------

def _render_operand(operand) -> str:
    if isinstance(operand, ColRef):
        return f"{operand.alias}.{operand.name}"
    if isinstance(operand, Lit):
        value = operand.value
        if value is None:
            return "NULL"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return str(value)
    raise TypeError(f"not a scalar operand: {operand!r}")


def _value_text(sub: Sub) -> str:
    """A scalar subquery's SELECT list: its aggregate or its item."""
    agg = sub.agg
    if agg is None:
        return f"{sub.alias}.{sub.item}"
    if agg.column is None:
        return "count(*)"
    prefix = "DISTINCT " if agg.distinct else ""
    return f"{agg.func}({prefix}{sub.alias}.{agg.column})"


class _Renderer:
    """Common recursive renderer; subclasses override the quantifier."""

    def query(self, ir: QueryIR) -> str:
        items = [f"{ir.alias}.{c}" for c in ir.columns]
        for position, sub in enumerate(ir.select_subs, start=1):
            value = _value_text(sub)
            items.append(f"({self._sub_select(value, sub)}) AS a{position}")
        text = f"SELECT {', '.join(items)} FROM {ir.table} {ir.alias}"
        if ir.where is not None:
            text += f" WHERE {self.predicate(ir.where)}"
        return text

    def predicate(self, node) -> str:
        if isinstance(node, AndP):
            return f"({self.predicate(node.left)} AND {self.predicate(node.right)})"
        if isinstance(node, OrP):
            return f"({self.predicate(node.left)} OR {self.predicate(node.right)})"
        if isinstance(node, NotP):
            return f"(NOT {self.predicate(node.operand)})"
        if isinstance(node, Cmp):
            return (
                f"({_render_operand(node.left)} {node.op} "
                f"{_render_operand(node.right)})"
            )
        if isinstance(node, IsNullP):
            maybe_not = "NOT " if node.negated else ""
            return f"({_render_operand(node.operand)} IS {maybe_not}NULL)"
        if isinstance(node, ExistsP):
            maybe_not = "NOT " if node.negated else ""
            return f"({maybe_not}EXISTS ({self._sub_select('*', node.sub)}))"
        if isinstance(node, InP):
            maybe_not = "NOT " if node.negated else ""
            item = f"{node.sub.alias}.{node.sub.item}"
            return (
                f"({_render_operand(node.left)} {maybe_not}IN "
                f"({self._sub_select(item, node.sub)}))"
            )
        if isinstance(node, ScalarCmp):
            return (
                f"({_render_operand(node.left)} {node.op} "
                f"({self._sub_select(_value_text(node.sub), node.sub)}))"
            )
        if isinstance(node, QuantCmp):
            return self.quantified(node)
        raise TypeError(f"not a predicate node: {node!r}")

    def _sub_select(self, select_list: str, sub: Sub) -> str:
        text = f"SELECT {select_list} FROM {sub.table} {sub.alias}"
        if sub.where is not None:
            text += f" WHERE {self.predicate(sub.where)}"
        return text

    def quantified(self, node: QuantCmp) -> str:
        raise NotImplementedError


class _ReproRenderer(_Renderer):
    def quantified(self, node: QuantCmp) -> str:
        item = f"{node.sub.alias}.{node.sub.item}"
        keyword = node.quantifier.upper()
        return (
            f"({_render_operand(node.left)} {node.op} {keyword} "
            f"({self._sub_select(item, node.sub)}))"
        )


class _SQLiteRenderer(_Renderer):
    def quantified(self, node: QuantCmp) -> str:
        """Three-valued CASE encoding of a quantified comparison.

        ``x op SOME S`` is TRUE iff some element compares true, FALSE iff
        every element compares false, else UNKNOWN; dually for ALL.  The
        subquery is duplicated into two EXISTS probes (one for a deciding
        element, one for an UNKNOWN comparison), which SQLite evaluates
        with its own 3VL machinery.
        """
        left = _render_operand(node.left)
        item = f"{node.sub.alias}.{node.sub.item}"
        compare = f"({left} {node.op} {item})"
        if node.quantifier == "some":
            deciding, on_deciding, otherwise = compare, "1", "0"
        else:
            deciding, on_deciding, otherwise = f"(NOT {compare})", "0", "1"
        probe_true = self._sub_with_extra(node.sub, deciding)
        probe_null = self._sub_with_extra(node.sub, f"({compare} IS NULL)")
        return (
            f"(CASE WHEN EXISTS ({probe_true}) THEN {on_deciding} "
            f"WHEN EXISTS ({probe_null}) THEN NULL "
            f"ELSE {otherwise} END)"
        )

    def _sub_with_extra(self, sub: Sub, extra: str) -> str:
        text = f"SELECT 1 FROM {sub.table} {sub.alias} WHERE "
        if sub.where is not None:
            text += f"({self.predicate(sub.where)}) AND "
        return text + extra


def render_repro_sql(ir: QueryIR) -> str:
    """Render the IR in the dialect of :mod:`repro.sql`."""
    return _ReproRenderer().query(ir)


def render_sqlite_sql(ir: QueryIR) -> str:
    """Render the IR as SQLite SQL (quantifiers become CASE/EXISTS)."""
    return _SQLiteRenderer().query(ir)
