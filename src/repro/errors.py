"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The hierarchy mirrors the major subsystems: storage,
algebra/type checking, SQL parsing and binding, and query planning.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """Schema construction or attribute resolution failed."""


class AmbiguousAttributeError(SchemaError):
    """An attribute reference matched more than one column."""


class UnknownAttributeError(SchemaError):
    """An attribute reference matched no column."""


class TypeCheckError(ReproError):
    """A value or expression does not conform to the expected type."""


class CatalogError(ReproError):
    """A catalog operation referenced a missing or duplicate object."""


class ExpressionError(ReproError):
    """An expression is malformed or cannot be evaluated."""


class CardinalityError(ReproError):
    """A scalar subquery (or comparison subquery) returned more than one row.

    This is the run-time exception the SQL standard mandates for scalar
    subqueries; the paper notes handling it is orthogonal to the rewrite
    (Section 3.1), so we surface it explicitly.
    """


class TranslationError(ReproError):
    """The unnesting algorithm could not translate a nested expression."""


class ConfigurationError(ReproError, ValueError):
    """An evaluation parameter is out of range (memory budget, partition
    count, fuzzer knobs).

    Also a :class:`ValueError` because a bad parameter is an invalid
    argument in the plain Python sense; callers that catch either base
    class keep working.
    """


class WorkerPoolError(ReproError):
    """A pool worker died while evaluating detail partitions.

    Raised by :func:`repro.gmdj.pool.map_partitions` in place of the
    executor's ``BrokenExecutor``: the query produced no rows (never a
    partial merge), and the broken executor has been evicted from its
    :class:`~repro.gmdj.pool.PoolRegistry`, so retrying on the same
    database starts a fresh pool.
    """


class InvariantViolation(ReproError):
    """A run contradicts one of the paper's cost guarantees.

    Raised by :func:`repro.gmdj.physical.evaluate_node` when a GMDJ
    emits more rows than its base has (Def. 2.1), and by strict EXPLAIN
    ANALYZE when a run's ``detail_scans`` differs from its plan's cost
    certificate (one scan per GMDJ evaluation, Prop. 4.1, Thms. 4.1/4.2).
    """


class CertificateViolation(InvariantViolation):
    """Observed data contradicts a static capability certificate.

    Raised when a column the abstract interpreter certified NEVER-null
    (:func:`repro.lint.absint.certify_capabilities`) is observed holding
    a NULL by the strict mode of
    :func:`repro.lint.absint.check_capabilities` over result rows.
    A certificate violation is always an
    analysis bug (or a deliberately seeded one in the fuzz harness),
    never a data error: the lattice is meant to over-approximate.
    """


class SQLSyntaxError(ReproError):
    """The SQL lexer or parser rejected the input text."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BindError(ReproError):
    """The SQL binder could not resolve names against the catalog."""


class PlanError(ReproError):
    """The planner could not produce a physical plan for the request."""
