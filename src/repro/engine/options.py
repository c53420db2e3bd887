"""The unified query-options object.

Every knob that used to be threaded through ``Database.execute`` /
``profile`` / ``explain_analyze`` as an ad-hoc keyword now lives on one
frozen dataclass, :class:`QueryOptions`:

* ``strategy``      — which evaluation strategy runs (see
  :data:`STRATEGIES`; the planner's docstring describes each).
* ``backend``       — the *kernel* every GMDJ detail scan runs on:
  ``"row"`` is the tuple-at-a-time interpreter
  (:mod:`repro.gmdj.evaluate`), ``"python"`` the dependency-free
  columnar batch kernel (:mod:`repro.gmdj.vectorized`), ``"numpy"``
  the whole-array kernel (:mod:`repro.gmdj.npkernel`), ``"auto"``
  numpy when importable, else python.  ``None`` defers to the
  ``REPRO_BACKEND`` environment hook and then to ``"row"``.
* ``chunk_size``    — detail rows per batch for the batch kernels
  (alone it selects the python batch kernel).
* ``chunk_budget``  — the base-chunking *fragmenter* (§2.3): at most
  this many base tuples in memory, one detail scan per chunk.
* ``partitions``    — the detail-partitioning fragmenter: fragment
  count for partition-and-merge evaluation.
* ``workers``       — worker-pool size for the partitioned fragmenter
  (1 = sequential fragments; defaults to ``REPRO_WORKERS``).
* ``trace``         — record an operator span tree during profiling.
* ``use_cache``     — consult the database's plan/result cache.
* ``rollup``        — the semantic rollup tier
  (:mod:`repro.engine.rollup`): ``None``/``"off"`` disables it,
  ``"exact"`` answers GMDJ nodes whose signature was materialized
  verbatim, ``"subsume"`` additionally answers finer queries from
  coarser stored rollups via residual filtering.  Orthogonal to
  ``use_cache`` (which caches whole query results by exact key).
* ``lint``          — run the static plan verifier (:mod:`repro.lint`)
  over the translated plan before executing it: ``None``/``"off"``
  skips it, ``"warn"`` surfaces error diagnostics as Python warnings,
  ``"strict"`` raises :class:`~repro.errors.LintError` fail-fast.
* ``mqo``           — multi-query optimization for batch execution
  (:mod:`repro.engine.mqo`): ``"off"`` runs every batch member
  independently, ``"fingerprint"`` forms share groups and reports them
  but still executes per query, ``"coalesce"`` merges each group into
  one multi-consumer GMDJ over a single detail scan.  ``None`` defers
  to the ``REPRO_MQO`` environment hook and then to the batch default
  (``"coalesce"``).  Only ``Database.execute_batch`` /
  ``execute_sql_batch`` consult it; single-query entry points ignore it.

Kernel and fragmenter compose freely (any kernel under either
fragmenter, or none); :meth:`QueryOptions.kernel` and
:meth:`QueryOptions.fragmenter` are the one place that derives what a
set of options will run, which EXPLAIN, the cache key, the MQO
certificate check and the planner all read.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.errors import ConfigurationError, PlanError

STRATEGIES = (
    "naive",
    "native",
    "native_noindex",
    "unnest_join",
    "unnest_join_noindex",
    "gmdj",
    "gmdj_optimized",
)

#: Strategies that produce a GMDJ plan — the only ones the kernel and
#: fragmenter knobs apply to.
GMDJ_STRATEGIES = frozenset({"gmdj", "gmdj_optimized"})

#: GMDJ scan kernels.  ``None`` defers to the ``REPRO_BACKEND``
#: environment hook and then to ``"row"``; ``"auto"`` picks numpy when
#: importable, else python.
BACKENDS = (None, "row", "python", "numpy", "auto")

#: Environment hook supplying the *default* kernel for GMDJ scans whose
#: options left ``backend`` unset (the CI kernel matrix legs set it).
REPRO_BACKEND_ENV = "REPRO_BACKEND"

LINT_LEVELS = (None, "off", "warn", "strict")

ROLLUP_LEVELS = (None, "off", "exact", "subsume")

MQO_LEVELS = (None, "off", "fingerprint", "coalesce")

#: Environment hook forcing a batch-MQO level (``off`` / ``fingerprint``
#: / ``coalesce``) for batches whose options left ``mqo`` unset — the CI
#: matrix leg's override.  An explicit ``mqo=...`` always wins.
REPRO_MQO_ENV = "REPRO_MQO"

#: Environment hook letting a harness (e.g. the CI rollup leg) force the
#: rollup tier on.  Only consulted for *unprofiled* runs that did not set
#: ``rollup`` explicitly — profiled runs measure real work, and a
#: harness-injected cache hit would measure nothing (mirroring how
#: profiled runs never consult the result cache).  ``rollup="off"``
#: explicitly opts a run out even under the environment override.
REPRO_ROLLUP_ENV = "REPRO_ROLLUP"


def _environment_choice(variable: str, choices: tuple) -> str | None:
    """The value of an environment hook, or None when unset; anything
    outside ``choices`` (whose leading None means "unset") is an error."""
    value = os.environ.get(variable)
    if not value:
        return None
    if value not in choices:
        raise ConfigurationError(
            f"{variable}={value!r} is not valid; "
            f"choose one of {choices[1:]}"
        )
    return value


def resolve_kernel(backend: str | None, chunk_size: int | None = None) -> str:
    """The kernel a ``backend`` / ``chunk_size`` pair runs: ``"row"``,
    ``"python"`` or ``"numpy"``.

    Resolution order: explicit option > ``REPRO_BACKEND`` environment
    variable > the row interpreter.  A ``chunk_size`` only means
    something to the batch kernels, so with one set the row default
    becomes ``"python"``.  ``"auto"`` picks numpy when the optional
    extra is importable; asking for ``"numpy"`` without it is a clean
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.storage.npcolumns import HAVE_NUMPY, require_numpy

    if backend is None:
        backend = QueryOptions.environment_backend()
    if backend is None or backend == "row":
        return "row" if chunk_size is None else "python"
    if backend == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if backend == "numpy":
        require_numpy()
    return backend


@dataclass(frozen=True)
class QueryOptions:
    """Immutable bundle of execution options for one query run."""

    strategy: str = "gmdj_optimized"
    backend: str | None = None
    partitions: int | None = None
    workers: int | None = None
    chunk_budget: int | None = None
    chunk_size: int | None = None
    trace: bool = False
    use_cache: bool = True
    lint: str | None = None
    rollup: str | None = None
    mqo: str | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {self.strategy!r}; "
                f"choose one of {STRATEGIES}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"choose one of {BACKENDS}"
            )
        if self.backend == "numpy":
            # Fail fast with a clean error instead of at kernel dispatch.
            from repro.storage.npcolumns import require_numpy

            require_numpy()
        if self.lint not in LINT_LEVELS:
            raise ConfigurationError(
                f"unknown lint level {self.lint!r}; "
                f"choose one of {LINT_LEVELS}"
            )
        if self.rollup not in ROLLUP_LEVELS:
            raise ConfigurationError(
                f"unknown rollup level {self.rollup!r}; "
                f"choose one of {ROLLUP_LEVELS}"
            )
        if self.mqo not in MQO_LEVELS:
            raise ConfigurationError(
                f"unknown mqo level {self.mqo!r}; "
                f"choose one of {MQO_LEVELS}"
            )
        for name in ("partitions", "workers", "chunk_budget", "chunk_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value}"
                )
        if self.backend == "row" and self.chunk_size is not None:
            raise ConfigurationError(
                "chunk_size batches the detail scan; the row kernel "
                "(backend='row') reads it tuple-at-a-time"
            )

    @classmethod
    def of(cls, value: "QueryOptions | str | None") -> "QueryOptions":
        """Coerce ``None`` / a strategy string / an options object.

        The string form is for engine-internal callers naming a bare
        strategy (:func:`repro.engine.executor.execute`, the fuzz
        oracle); the ``Database`` entry points accept only
        :class:`QueryOptions` or ``None``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(strategy=value)
        raise ConfigurationError(
            f"expected QueryOptions, a strategy name, or None; "
            f"got {value!r}"
        )

    def canonical(self) -> "QueryOptions":
        """Validate the knob combination and normalize ``rollup="off"``.

        * ``chunk_budget`` and ``partitions``/``workers`` select
          different fragmenters, so setting both is an error;
        * a kernel or fragmenter knob on a non-GMDJ strategy is an
          error — the baselines have no GMDJ nodes to run it on.
        """
        partitioned = self.partitions is not None or self.workers is not None
        if self.chunk_budget is not None and partitioned:
            raise ConfigurationError(
                "chunk_budget (base chunking) and partitions/workers "
                "(detail partitioning) select different fragmenters; "
                "set one"
            )
        if self.strategy not in GMDJ_STRATEGIES and (
                partitioned or self.chunk_budget is not None
                or self.chunk_size is not None or self.backend is not None):
            raise ConfigurationError(
                f"backend/chunk_size/chunk_budget/partitions/workers apply "
                f"only to GMDJ strategies, not {self.strategy!r}"
            )
        if self.rollup != "off":
            return self
        return dataclasses.replace(self, rollup=None)

    def kernel(self) -> str:
        """The kernel GMDJ scans run on under these options: ``"row"``,
        ``"python"`` or ``"numpy"`` (see :func:`resolve_kernel`)."""
        return resolve_kernel(self.backend, self.chunk_size)

    def fragmenter(self) -> str | None:
        """How each GMDJ is fragmented around the kernel: ``"chunked"``
        (base chunks, one detail scan each), ``"partitioned"`` (detail
        fragments merged columnwise), or None for one scan per GMDJ."""
        if self.chunk_budget is not None:
            return "chunked"
        if self.partitions is not None or self.workers is not None:
            return "partitioned"
        return None

    @staticmethod
    def environment_rollup() -> str | None:
        """The ``REPRO_ROLLUP`` forced-rollup override, validated.

        Returns a canonical level (``"off"`` maps to ``None``); the
        executor applies it only to unprofiled runs whose options left
        ``rollup`` unset.
        """
        value = _environment_choice(REPRO_ROLLUP_ENV, ROLLUP_LEVELS)
        return None if value == "off" else value

    @staticmethod
    def environment_mqo() -> str | None:
        """The ``REPRO_MQO`` batch-MQO override, validated.

        Returns the raw level (``"off"`` stays ``"off"`` — it must
        suppress the batch default, unlike an unset variable), or None
        when the environment leaves the batch default in force.
        """
        return _environment_choice(REPRO_MQO_ENV, MQO_LEVELS)

    @staticmethod
    def environment_backend() -> str | None:
        """The ``REPRO_BACKEND`` default-kernel override, validated.

        Consulted by :func:`resolve_kernel` when ``backend`` was left
        unset; an explicit ``backend=...`` always wins.
        """
        return _environment_choice(REPRO_BACKEND_ENV, BACKENDS)

    def with_trace(self, trace: bool) -> "QueryOptions":
        if trace == self.trace:
            return self
        return dataclasses.replace(self, trace=trace)

    def cache_key(self) -> tuple:
        """The options components that affect a query's cached artifacts.

        ``lint`` participates because a lint-gated run that would have
        raised must not be satisfied from a result another options
        object cached.
        """
        canon = self.canonical()
        lint = None if canon.lint == "off" else canon.lint
        mqo = None if canon.mqo == "off" else canon.mqo
        return (canon.strategy, canon.kernel(), canon.chunk_size,
                canon.fragmenter(), canon.partitions, canon.workers,
                canon.chunk_budget, lint, canon.rollup, mqo)
