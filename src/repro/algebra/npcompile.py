"""Whole-array expression evaluation for the numpy GMDJ backend.

The batch compiler (:mod:`repro.algebra.compile`) removes per-node
closure dispatch but still executes one generated Python frame *per
row*.  This module removes the per-row frame as well: an expression is
evaluated over an entire column set with one numpy operation per AST
node, amortizing interpreter overhead across the whole detail relation.

Value model
-----------
Scalars travel as :class:`NpValue` — ``(values, null, kind)``:

* ``values`` is an ndarray over the rows in scope, or a plain Python
  scalar (literals, base-row values in pair residuals); numpy
  broadcasting unifies the two.
* ``null`` is the SQL NULL mask: a bool ndarray, or the Python bool
  ``False``/``True`` kept *symbolic* so NULL-free columns
  (``valid is None`` in columnar storage) never materialize or combine
  masks at all.
* ``kind`` is ``"num"`` (ints/floats/bools), ``"str"``
  (dictionary-encoded codes plus the decoded dictionary), or ``"null"``
  (the typeless NULL literal).

Predicates travel as :class:`NpTruth` ``(true, false)`` mask pairs —
UNKNOWN is ``~(true | false)`` — giving Kleene AND/OR/NOT as two
boolean array ops each.

Exactness
---------
The numpy backend must return *bit-identical* rows to the python
kernels, so every operation that could silently diverge from Python
semantics raises :class:`NpUnsupported` instead, and the caller falls
back to the python kernel for that operator:

* object-encoded columns (mixed types, >64-bit ints) have no array form;
* int64 arithmetic that could overflow (Python ints are unbounded), and
  int↔float comparisons/divisions beyond 2**53 (numpy promotes int64 to
  float64; Python compares exactly);
* string ordering across two dictionary columns is supported via a
  shared rank table; anything else stringly-mixed falls back (including
  the string-vs-number comparisons the interpreter rejects with
  :class:`~repro.errors.ExpressionError` — the fallback re-raises them
  with identical messages).
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from repro.algebra.expressions import (
    And,
    Arithmetic,
    Coalesce,
    Column,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Not,
    Or,
    TruthLiteral,
)
from repro.algebra.truth import Truth
from repro.storage.columnar import ColumnarRelation, ColumnData
from repro.storage.types import DataType

#: Magnitudes beyond which int64 arithmetic may overflow (Python ints
#: are arbitrary precision) or float64 conversion loses integer
#: exactness.  Conservative bounds; violations are rare in OLAP data
#: and simply route the operator to the python kernel.
_INT_SAFE = 2 ** 62
_FLOAT_EXACT = 2 ** 53


class NpUnsupported(Exception):
    """This expression (or this data) has no exact whole-array form."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class NpValue:
    """A scalar expression over N rows: values + NULL mask + kind."""

    __slots__ = ("values", "null", "kind", "dictionary")

    def __init__(self, values: Any, null: Any, kind: str,
                 dictionary: list | None = None) -> None:
        self.values = values
        self.null = null
        self.kind = kind  # "num" | "str" | "null"
        self.dictionary = dictionary


class NpTruth:
    """A predicate over N rows as (TRUE mask, FALSE mask)."""

    __slots__ = ("true", "false")

    def __init__(self, true: Any, false: Any) -> None:
        self.true = true
        self.false = false


#: Symbolic boolean algebra over ``bool | ndarray`` — Python bools stay
#: symbolic so mask-free (NULL-free) columns never touch an array mask.
def _and(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    return a & b


def _or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    return a | b


def _not(a: Any) -> Any:
    if a is True:
        return False
    if a is False:
        return True
    return ~a


def mask_of(flag: Any, n: int) -> Any:
    """Materialize a symbolic bool as an ndarray mask of length ``n``."""
    if flag is True:
        return np.ones(n, dtype=bool)
    if flag is False:
        return np.zeros(n, dtype=bool)
    return flag


_COLUMN_KINDS = {"int": "num", "float": "num", "bool": "num"}


def value_of_column(column: ColumnData) -> NpValue:
    """Wrap a (typed, not object) column as an :class:`NpValue`."""
    null = False if column.valid is None else ~column.valid
    if column.kind == "dict":
        return NpValue(column.data, null, "str",
                       dictionary=column.dictionary or [])
    return NpValue(column.data, null, _COLUMN_KINDS[column.kind])


#: Declared dtype → the column kind an all-NULL column of it takes.
_NULL_KINDS = {DataType.INTEGER: ("int", "int64"),
               DataType.FLOAT: ("float", "float64"),
               DataType.BOOLEAN: ("bool", "bool"),
               DataType.STRING: ("dict", "int32")}

_DTYPE_KINDS = {"b": "bool", "i": "int", "f": "float"}


def column_of_value(value: NpValue, n: int,
                    dtype: DataType) -> ColumnData:
    """The inverse of :func:`value_of_column`: an expression's value over
    ``n`` rows as a column an operator can emit.

    Scalars are broadcast; a value that is NULL everywhere (the typeless
    NULL literal, an aggregate nothing was added to) becomes a fully
    masked column of the declared ``dtype``.
    """
    if value.kind == "null" or value.null is True:
        kind, storage = _NULL_KINDS[dtype]
        return ColumnData(kind, np.zeros(n, dtype=storage),
                          np.zeros(n, dtype=bool),
                          [] if kind == "dict" else None)
    values = value.values
    mask = None if value.null is False else ~value.null
    if value.kind == "str":
        if not _is_array(values):  # a string literal: a one-word dictionary
            return ColumnData("dict", np.zeros(n, dtype=np.int32), mask,
                              [values])
        return ColumnData("dict", values, mask, value.dictionary)
    if not _is_array(values):
        values = np.full(n, values)
    kind = _DTYPE_KINDS.get(values.dtype.kind)
    if kind is None or (kind == "int" and values.dtype != np.int64):
        raise NpUnsupported(f"no column form for dtype {values.dtype}")
    return ColumnData(kind, values, mask, None)


class Columns:
    """The columns of one encoded relation as whole-column
    :class:`NpValue` objects, wrapped on first use; ``resolve`` is the
    :data:`Resolver` over its schema."""

    __slots__ = ("columnar", "schema", "_by_position", "_by_ref")

    def __init__(self, columnar: ColumnarRelation) -> None:
        self.columnar = columnar
        self.schema = columnar.schema
        self._by_position: dict[int, NpValue] = {}
        self._by_ref: dict[str, NpValue] = {}

    def by_position(self, position: int) -> NpValue:
        value = self._by_position.get(position)
        if value is None:
            column = self.columnar.columns[position]
            if column.kind == "object":
                field = self.schema.fields[position]
                raise NpUnsupported(
                    f"object-encoded column {field.full_name}")
            value = self._by_position[position] = value_of_column(column)
        return value

    def resolve(self, reference: str) -> NpValue:
        value = self._by_ref.get(reference)
        if value is None:
            position = self.schema.index_of(reference)
            value = self._by_ref[reference] = self.by_position(position)
        return value

    def word_codes(self, expression: Expression,
                   value: NpValue) -> dict[str, int]:
        """``word -> code`` of the string column ``expression`` evaluated
        to: the encoding's cached inverse for a plain column reference."""
        if isinstance(expression, Column):
            return self.columnar.word_codes(
                self.schema.index_of(expression.reference))
        return {word: code
                for code, word in enumerate(value.dictionary or [])}


def value_of_scalar(value: Any) -> NpValue:
    """Wrap a Python scalar (literal or base-row value)."""
    if value is None:
        return NpValue(None, True, "null")
    if isinstance(value, str):
        return NpValue(value, False, "str")
    if isinstance(value, bool) or type(value) is float:
        return NpValue(value, False, "num")
    if type(value) is int:
        if not -_INT_SAFE < value < _INT_SAFE:
            raise NpUnsupported("integer literal beyond int64 range")
        return NpValue(value, False, "num")
    raise NpUnsupported(f"unsupported scalar type {type(value).__name__}")


Resolver = Callable[[str], NpValue]


def _is_array(value: Any) -> bool:
    return isinstance(value, np.ndarray)


def _is_floatish(value: NpValue) -> bool:
    if _is_array(value.values):
        return value.values.dtype.kind == "f"
    return type(value.values) is float


def _is_intish(value: NpValue) -> bool:
    if _is_array(value.values):
        return value.values.dtype.kind in "iub"
    return isinstance(value.values, (bool, int))


def _max_abs(value: NpValue) -> float:
    """Magnitude bound of a numeric operand (0 for empty arrays)."""
    v = value.values
    if _is_array(v):
        if not len(v):
            return 0.0
        if v.dtype.kind == "b":
            return 1.0
        return float(max(-int(v.min()), int(v.max()))) \
            if v.dtype.kind in "iu" else float(np.abs(v).max())
    return float(abs(v))


def _guard_float_exact(left: NpValue, right: NpValue, what: str) -> None:
    """Mixed int/float numpy ops promote int64→float64; Python does not
    lose integer exactness.  Beyond 2**53 the results can differ, so the
    operator falls back."""
    if (_is_floatish(left) or _is_floatish(right)):
        for side in (left, right):
            if _is_intish(side) and not isinstance(side.values, bool) \
                    and _max_abs(side) >= _FLOAT_EXACT:
                raise NpUnsupported(
                    f"int/float {what} beyond exact float range")


_NP_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _string_compare(op: str, left: NpValue, right: NpValue) -> Any:
    """Raw comparison result for two string-kind operands.

    Dictionary codes compare through small per-dictionary tables: a
    code→bool lookup against a scalar, or a code→rank table shared by
    both dictionaries (string order is preserved by ranks in the merged
    sorted dictionary), so the row-wise work stays whole-array.
    """
    cmp = _NP_COMPARE[op]
    left_arr, right_arr = _is_array(left.values), _is_array(right.values)
    if not left_arr and not right_arr:
        return cmp(left.values, right.values)
    if left_arr and not right_arr:
        table = np.fromiter(
            (cmp(word, right.values) for word in left.dictionary or []),
            dtype=bool, count=len(left.dictionary or []))
        return table[left.values] if len(table) else \
            np.zeros(len(left.values), dtype=bool)
    if right_arr and not left_arr:
        table = np.fromiter(
            (cmp(left.values, word) for word in right.dictionary or []),
            dtype=bool, count=len(right.dictionary or []))
        return table[right.values] if len(table) else \
            np.zeros(len(right.values), dtype=bool)
    # dict column vs dict column: compare merged-dictionary ranks.
    merged = sorted(set(left.dictionary or []) | set(right.dictionary or []))
    rank = {word: position for position, word in enumerate(merged)}
    left_ranks = np.fromiter((rank[w] for w in left.dictionary or []),
                              dtype=np.int64,
                              count=len(left.dictionary or []))
    right_ranks = np.fromiter((rank[w] for w in right.dictionary or []),
                               dtype=np.int64,
                               count=len(right.dictionary or []))
    left_vals = left_ranks[left.values] if len(left_ranks) else \
        np.zeros(len(left.values), dtype=np.int64)
    right_vals = right_ranks[right.values] if len(right_ranks) else \
        np.zeros(len(right.values), dtype=np.int64)
    return cmp(left_vals, right_vals)


def _comparison(op: str, left: NpValue, right: NpValue) -> NpTruth:
    if left.kind == "null" or right.kind == "null":
        return NpTruth(False, False)  # everything UNKNOWN
    null = _or(left.null, right.null)
    if left.kind != right.kind:
        # The interpreter raises ExpressionError for non-null string vs
        # non-string pairs; the python fallback reproduces that exactly.
        raise NpUnsupported("string vs non-string comparison")
    if left.kind == "str":
        raw = _string_compare(op, left, right)
    else:
        _guard_float_exact(left, right, "comparison")
        raw = _NP_COMPARE[op](left.values, right.values)
        if raw is NotImplemented:  # pragma: no cover - defensive
            raise NpUnsupported("incomparable operands")
    not_null = _not(null)
    return NpTruth(_and(raw, not_null), _and(_not(raw), not_null))


def _arithmetic(op: str, left: NpValue, right: NpValue) -> NpValue:
    if left.kind == "null" or right.kind == "null":
        return NpValue(None, True, "null")
    if left.kind != "num" or right.kind != "num":
        raise NpUnsupported("non-numeric arithmetic")
    null = _or(left.null, right.null)
    a, b = left.values, right.values
    if op == "/":
        # True division; a zero divisor yields NULL (OLAP-total ratios).
        _guard_float_exact(left, right, "division")
        if _is_intish(left) and _is_intish(right):
            for side in (left, right):
                if _max_abs(side) >= _FLOAT_EXACT:
                    raise NpUnsupported(
                        "integer division beyond exact float range")
        zero = b == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.true_divide(a, b)
        return NpValue(values, _or(null, zero if np.any(zero) else False),
                       "num")
    both_int = _is_intish(left) and _is_intish(right)
    bound_left, bound_right = _max_abs(left), _max_abs(right)
    if both_int:
        # Python ints never overflow; int64 silently wraps.  Bound the
        # result magnitude or hand the operator to the python kernel.
        overflow = (bound_left * bound_right if op == "*"
                    else bound_left + bound_right) >= _INT_SAFE
        if overflow:
            raise NpUnsupported("int64 arithmetic may overflow")
        if isinstance(a, bool) or (_is_array(a) and a.dtype.kind == "b"):
            a = np.asarray(a, dtype=np.int64) if _is_array(a) else int(a)
        if isinstance(b, bool) or (_is_array(b) and b.dtype.kind == "b"):
            b = np.asarray(b, dtype=np.int64) if _is_array(b) else int(b)
    else:
        _guard_float_exact(left, right, "arithmetic")
    func = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    return NpValue(func(a, b), null, "num")


def _num_class(value: NpValue) -> str:
    if _is_array(value.values):
        return {"b": "bool", "i": "int", "u": "int",
                "f": "float"}[value.values.dtype.kind]
    if isinstance(value.values, bool):
        return "bool"
    return "int" if type(value.values) is int else "float"


def _coalesce(first: NpValue, second: NpValue) -> NpValue:
    if first.null is False:
        return first
    if first.kind == "null":
        return second
    if first.kind != "num" or second.kind not in ("num", "null"):
        raise NpUnsupported("non-numeric COALESCE")
    if second.kind == "null":
        return first
    if _num_class(first) != _num_class(second):
        # np.where would promote to one dtype; Python keeps the branch
        # values' own types per row (3 vs 3.0, True vs 1).
        raise NpUnsupported("COALESCE over mixed numeric types")
    take_second = mask_of(first.null, len(first.values)
                          if _is_array(first.values) else 1)
    values = np.where(take_second, second.values, first.values)
    null = _and(first.null, second.null)
    return NpValue(values, null, "num")


def np_value(expression: Expression, resolve: Resolver) -> NpValue:
    """Evaluate a scalar expression to an :class:`NpValue`.

    Raises :class:`NpUnsupported` when no exact whole-array evaluation
    exists; the caller routes that operator to the python kernel.
    """
    if isinstance(expression, Literal):
        return value_of_scalar(expression.value)
    if isinstance(expression, Column):
        return resolve(expression.reference)
    if isinstance(expression, Arithmetic):
        return _arithmetic(expression.op,
                           np_value(expression.left, resolve),
                           np_value(expression.right, resolve))
    if isinstance(expression, Coalesce):
        return _coalesce(np_value(expression.first, resolve),
                         np_value(expression.second, resolve))
    raise NpUnsupported(
        f"no array form for {type(expression).__name__}")


def np_predicate(expression: Expression, resolve: Resolver) -> NpTruth:
    """Evaluate a predicate expression to an :class:`NpTruth`."""
    if isinstance(expression, Comparison):
        return _comparison(expression.op,
                           np_value(expression.left, resolve),
                           np_value(expression.right, resolve))
    if isinstance(expression, And):
        a = np_predicate(expression.left, resolve)
        b = np_predicate(expression.right, resolve)
        return NpTruth(_and(a.true, b.true), _or(a.false, b.false))
    if isinstance(expression, Or):
        a = np_predicate(expression.left, resolve)
        b = np_predicate(expression.right, resolve)
        return NpTruth(_or(a.true, b.true), _and(a.false, b.false))
    if isinstance(expression, Not):
        a = np_predicate(expression.operand, resolve)
        return NpTruth(a.false, a.true)
    if isinstance(expression, IsNull):
        operand = np_value(expression.operand, resolve)
        null = operand.null if operand.kind != "null" else True
        if expression.negated:
            return NpTruth(_not(null), null)
        return NpTruth(null, _not(null))
    if isinstance(expression, TruthLiteral):
        value = expression.value
        return NpTruth(value is Truth.TRUE, value is Truth.FALSE)
    raise NpUnsupported(
        f"no array form for predicate {type(expression).__name__}")


def np_truth_mask(expression: Expression, resolve: Resolver,
                  n: int) -> Any:
    """The rows (as a bool mask of length ``n``) where a predicate is
    TRUE — the only verdict selections and residuals keep."""
    return mask_of(np_predicate(expression, resolve).true, n)
