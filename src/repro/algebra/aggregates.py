"""Aggregate functions with SQL NULL semantics.

An :class:`AggregateSpec` names an aggregate over an input expression (or
``*``) and an output attribute; it manufactures one :class:`Accumulator`
per group/base tuple.  Accumulators are updated incrementally, which is
what lets a GMDJ compute every aggregate list in a single scan of the
detail relation.

SQL rules implemented here and exercised by the paper:

* ``COUNT(*)`` counts tuples; ``COUNT(x)`` counts non-NULL values; both
  return 0 on empty input.  Counting is the paper's central mechanism.
* ``SUM``/``AVG``/``MIN``/``MAX`` ignore NULLs and return NULL on empty (or
  all-NULL) input — this is the footnote-2 pitfall: ``x > MAX(empty)`` is
  UNKNOWN, while ``x >ALL empty`` is TRUE, so ALL cannot be reduced to MAX.
* ``single(y)`` is a non-aggregate scalar subquery's value: NULL on no
  row, the row's ``y`` on one row, :class:`CardinalityError` on a second
  row.  It is holistic (Gray et al.): a partition's state is a row, not
  a value two partitions can merge without seeing both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CardinalityError, ExpressionError, TypeCheckError
from repro.algebra.expressions import Evaluator, Expression
from repro.storage.iostats import IOStats
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType

#: Names accepted by :func:`make_accumulator`.
AGGREGATE_NAMES = ("count", "sum", "avg", "min", "max", "single")


class Accumulator:
    """Incremental state of one aggregate over one group.

    Accumulators are *mergeable*: combining the states of two disjoint
    partitions gives the state of their union.  This is what makes the
    GMDJ evaluable over a partitioned detail relation (the distributed
    evaluation the paper's conclusion points at) — each partition is
    scanned independently and the per-base-tuple states are merged.
    """

    __slots__ = ()

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        """Fold another partition's state of the same aggregate into this."""
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountStar(Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def merge(self, other: "CountStar") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count


class CountValue(Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def merge(self, other: "CountValue") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count


class Sum(Accumulator):
    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total = 0
        self.seen = False

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.seen = True

    def merge(self, other: "Sum") -> None:
        if other.seen:
            self.total += other.total
            self.seen = True

    def result(self) -> Any:
        return self.total if self.seen else None


class Avg(Accumulator):
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.count += 1

    def merge(self, other: "Avg") -> None:
        self.total += other.total
        self.count += other.count

    def result(self) -> Any:
        if self.count == 0:
            return None
        return self.total / self.count


class Min(Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or value < self.best):
            self.best = value

    def merge(self, other: "Min") -> None:
        self.add(other.best)

    def result(self) -> Any:
        return self.best


class Max(Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or value > self.best):
            self.best = value

    def merge(self, other: "Max") -> None:
        self.add(other.best)

    def result(self) -> Any:
        return self.best


class Single(Accumulator):
    """A scalar subquery's one value: raises on a second row.  Holistic,
    so it has no :meth:`merge`: nothing splits its input."""

    __slots__ = ("value", "seen")

    def __init__(self) -> None:
        self.value = None
        self.seen = False

    def add(self, value: Any) -> None:
        if self.seen:
            raise CardinalityError("scalar subquery returned multiple rows")
        self.value = value
        self.seen = True

    def result(self) -> Any:
        return self.value


class DistinctWrapper(Accumulator):
    """DISTINCT modifier: feed each distinct non-NULL value once.

    Wraps any inner accumulator; the value set is kept until
    finalization, so two wrappers merge by set union (unlike finalized
    counts, which is why partitioned evaluation special-cases DISTINCT).
    """

    __slots__ = ("inner", "seen")

    def __init__(self, inner: Accumulator) -> None:
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def merge(self, other: "DistinctWrapper") -> None:
        for value in other.seen:
            if value not in self.seen:
                self.seen.add(value)
                self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_FACTORIES: dict[str, Callable[[], Accumulator]] = {
    "sum": Sum,
    "avg": Avg,
    "min": Min,
    "max": Max,
    "single": Single,
}


@dataclass(frozen=True)
class AggregateSpec:
    """``function([DISTINCT] input) -> output_name``.

    ``argument`` is ``None`` for ``count(*)``; otherwise any scalar
    :class:`Expression` over the detail (or group) schema.  ``distinct``
    applies the SQL DISTINCT modifier (requires an argument).
    """

    function: str
    argument: Expression | None
    output_name: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_NAMES:
            raise ExpressionError(f"unknown aggregate {self.function!r}")
        if self.argument is None and self.function != "count":
            raise ExpressionError(f"{self.function}(*) is not defined")
        if self.distinct and self.argument is None:
            raise ExpressionError("COUNT(DISTINCT *) is not defined")

    @property
    def is_count_star(self) -> bool:
        return (self.function == "count" and self.argument is None
                and not self.distinct)

    def output_field(self, input_schema: Schema) -> Field:
        """The output attribute this aggregate contributes."""
        dtype = self._output_dtype(input_schema)
        return Field(self.output_name, dtype, qualifier=None)

    def _output_dtype(self, input_schema: Schema) -> DataType:
        if self.function == "count":
            return DataType.INTEGER
        if self.function == "single":
            from repro.algebra.operators import infer_dtype

            return infer_dtype(self.argument, input_schema)
        # sum/min/max follow the argument's type when it is a plain column;
        # sum/avg over a STRING column is rejected before any row is read.
        refs = self.argument.references() if self.argument else set()
        dtype = (input_schema.field_of(next(iter(refs))).dtype
                 if len(refs) == 1 else DataType.FLOAT)
        if self.function in ("sum", "avg") and dtype is DataType.STRING:
            raise TypeCheckError(
                f"{self.function}() over STRING argument {self.argument!r}")
        return DataType.FLOAT if self.function == "avg" else dtype

    def make_accumulator(self) -> Accumulator:
        if self.function == "count":
            inner = CountStar() if self.argument is None else CountValue()
        else:
            inner = _FACTORIES[self.function]()
        if self.distinct:
            return DistinctWrapper(inner)
        return inner

    def bind_argument(self, schema: Schema) -> Evaluator | None:
        """Compile the input expression (``None`` for count(*))."""
        if self.argument is None:
            return None
        return self.argument.bind(schema)

    def references(self) -> set[str]:
        return self.argument.references() if self.argument else set()

    def __repr__(self) -> str:
        arg = "*" if self.argument is None else repr(self.argument)
        return f"{self.function}({arg}) -> {self.output_name}"


def count_star(output_name: str = "cnt") -> AggregateSpec:
    """The workhorse of the paper: ``count(*) -> output_name``."""
    return AggregateSpec("count", None, output_name)


def single(argument: Expression, output_name: str = "single") -> AggregateSpec:
    """``single(y) -> output_name``: a non-aggregate scalar subquery."""
    return AggregateSpec("single", argument, output_name)


def agg(function: str, argument: Expression | None, output_name: str) -> AggregateSpec:
    """Shorthand constructor for an aggregate spec."""
    return AggregateSpec(function, argument, output_name)


class AggregateBlock:
    """A list of aggregates updated together (one GMDJ θ's ``l_i``).

    The argument evaluators are bound on the first :meth:`update`: the
    array kernel reads only ``specs``.
    """

    __slots__ = ("specs", "_detail_schema", "_evaluators")

    def __init__(
        self, specs: list[AggregateSpec], detail_schema: Schema
    ) -> None:
        self.specs = specs
        self._detail_schema = detail_schema
        self._evaluators: list[Evaluator | None] | None = None

    def new_state(self) -> list[Accumulator]:
        return [spec.make_accumulator() for spec in self.specs]

    def recompile(
        self, compiler: Callable[[Expression], Evaluator]
    ) -> None:
        """Swap in alternative argument evaluators (e.g. codegen'd ones).

        ``compiler`` must be a drop-in for ``argument.bind(detail_schema)``;
        count(*) specs keep their ``None`` evaluator.
        """
        self._evaluators = [
            None if spec.argument is None else compiler(spec.argument)
            for spec in self.specs
        ]

    def update(self, state: list[Accumulator], detail_row: tuple) -> None:
        evaluators = self._evaluators
        if evaluators is None:
            evaluators = self._evaluators = [
                spec.bind_argument(self._detail_schema) for spec in self.specs]
        stats = IOStats.ambient()
        for accumulator, evaluator in zip(state, evaluators):
            stats.aggregate_updates += 1
            if evaluator is None:
                accumulator.add(None)  # count(*): value is irrelevant
            else:
                accumulator.add(evaluator(detail_row))

    @staticmethod
    def finalize(state: list[Accumulator]) -> tuple:
        return tuple(accumulator.result() for accumulator in state)
