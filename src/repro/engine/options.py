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
  ``REPRO_BACKEND`` environment hook and then to ``"auto"``; ``"row"``
  is the reference the other kernels are tested against.
* ``partitions``    — the detail-partitioning *fragmenter*: fragment
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
  independently, ``"coalesce"`` merges each share group into one
  multi-consumer GMDJ over a single detail scan.  ``None`` defers
  to the ``REPRO_MQO`` environment hook and then to the batch default
  (``"coalesce"``).  Only ``Database.execute_batch`` /
  ``execute_sql_batch`` consult it; single-query entry points ignore it.

Construction checks every value: ``partitions`` / ``workers`` must be
positive ``int`` (not ``bool``), ``trace`` / ``use_cache`` ``bool``, the
rest one of their listed names — anything else is a
:class:`~repro.errors.ConfigurationError` (an unknown strategy a
:class:`~repro.errors.PlanError`), so a JSON request body can never
smuggle in ``"2"`` or ``"no"``.

Kernel and fragmenter compose freely (any kernel, partitioned or
not); :meth:`QueryOptions.kernel` and
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
#: environment hook and then to ``"auto"``, which picks numpy when
#: importable, else python.
BACKENDS = (None, "row", "python", "numpy", "auto")

#: Environment hook supplying the *default* kernel for GMDJ scans whose
#: options left ``backend`` unset (the CI kernel matrix legs set it).
REPRO_BACKEND_ENV = "REPRO_BACKEND"

LINT_LEVELS = (None, "off", "warn", "strict")

ROLLUP_LEVELS = (None, "off", "exact", "subsume")

MQO_LEVELS = (None, "off", "coalesce")

#: Environment hook forcing a batch-MQO level (``off`` / ``coalesce``)
#: for batches whose options left ``mqo`` unset — the CI matrix leg's
#: override.  An explicit ``mqo=...`` always wins.
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


def resolve_kernel(backend: str | None) -> str:
    """The kernel a ``backend`` runs: ``"row"``, ``"python"`` or
    ``"numpy"``.

    Resolution order: explicit option > ``REPRO_BACKEND`` environment
    variable > ``"auto"``, which picks numpy when the optional extra is
    importable, else python; asking for ``"numpy"`` without it is a
    clean :class:`~repro.errors.ConfigurationError`.
    """
    from repro.storage.npcolumns import HAVE_NUMPY, require_numpy

    if backend is None:
        backend = QueryOptions.environment_backend() or "auto"
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
        for name in ("partitions", "workers"):
            value = getattr(self, name)
            if value is None:
                continue
            # bool is an int subclass; ``workers=True`` is a typo.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
            if value < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value}"
                )
        for name in ("trace", "use_cache"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be a boolean, got {value!r}"
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
        """Validate the knob combination and normalize ``rollup="off"``:
        a kernel or fragmenter knob on a non-GMDJ strategy is an error —
        the baselines have no GMDJ nodes to run it on."""
        if self.strategy not in GMDJ_STRATEGIES and (
                self.fragmenter() is not None or self.backend is not None):
            raise ConfigurationError(
                f"backend/partitions/workers apply only to GMDJ "
                f"strategies, not {self.strategy!r}"
            )
        if self.rollup != "off":
            return self
        return dataclasses.replace(self, rollup=None)

    def kernel(self) -> str:
        """The kernel GMDJ scans run on under these options: ``"row"``,
        ``"python"`` or ``"numpy"`` (see :func:`resolve_kernel`)."""
        return resolve_kernel(self.backend)

    def fragmenter(self) -> str | None:
        """How each GMDJ is fragmented around the kernel:
        ``"partitioned"`` (detail fragments merged columnwise), or None
        for one scan per GMDJ."""
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
        object cached.  ``mqo`` does not: a shared group bypasses the
        result cache, and a singleton runs the plan it would run alone.
        """
        canon = self.canonical()
        lint = None if canon.lint == "off" else canon.lint
        return (canon.strategy, canon.kernel(), canon.fragmenter(),
                canon.partitions, canon.workers, lint, canon.rollup)
