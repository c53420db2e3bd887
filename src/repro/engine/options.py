"""The unified query-options object.

Every knob that used to be threaded through ``Database.execute`` /
``profile`` / ``explain_analyze`` as an ad-hoc keyword now lives on one
frozen dataclass, :class:`QueryOptions`:

* ``strategy``      — which evaluation strategy runs (see
  :data:`STRATEGIES`; the planner's docstring describes each).
* ``backend``       — the *kernel* every GMDJ detail scan runs on:
  ``"row"`` is the tuple-at-a-time interpreter
  (:mod:`repro.gmdj.evaluate`), ``"python"`` the columnar batch
  kernel (:mod:`repro.gmdj.vectorized`), ``"numpy"`` the whole-array
  kernel (:mod:`repro.gmdj.npkernel`), ``"auto"`` (the default) the
  same as ``"numpy"``.  ``"row"`` is the reference the other kernels
  are tested against.
* ``partitions``    — the detail-partitioning *fragmenter*: fragment
  count for partition-and-merge evaluation.
* ``workers``       — worker-pool size for the partitioned fragmenter
  (1 = sequential fragments, the default).
* ``trace``         — record an operator span tree during profiling.
* ``use_cache``     — consult the database's plan/result cache.
* ``rollup``        — the semantic rollup tier
  (:mod:`repro.engine.rollup`): ``"off"`` (the default) disables it,
  ``"subsume"`` answers GMDJ nodes from stored rollups — a verbatim
  signature match first (the exact tier), then finer queries from
  coarser rollups via residual filtering.  Orthogonal to ``use_cache``
  (which caches whole query results by exact key).

No option shapes a batch: ``Database.execute_batch`` always coalesces
its share groups (:mod:`repro.engine.mqo`), and a member run alone is
a batch of one.

``backend`` and ``rollup`` default to one of their own listed names,
never ``None``: options come from the call, not the process
environment.  Construction checks every value: ``partitions`` /
``workers`` must be positive ``int`` (not ``bool``), ``trace`` /
``use_cache`` ``bool``, the rest one of their listed names — anything
else is a :class:`~repro.errors.ConfigurationError` (an unknown
strategy a :class:`~repro.errors.PlanError`), so a JSON request body
can never smuggle in ``"2"`` or ``"no"``.

Kernel and fragmenter compose freely (any kernel, partitioned or
not); :meth:`QueryOptions.kernel` and
:meth:`QueryOptions.fragmenter` are the one place that derives what a
set of options will run, which EXPLAIN, the cache key, the MQO
certificate check and the planner all read.
"""

from __future__ import annotations

import dataclasses
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

#: GMDJ scan kernels.  ``"auto"`` is ``"numpy"``.
BACKENDS = ("row", "python", "numpy", "auto")

ROLLUP_LEVELS = ("off", "subsume")


def resolve_kernel(backend: str) -> str:
    """The kernel a ``backend`` runs: ``"row"``, ``"python"`` or
    ``"numpy"`` (which ``"auto"`` always is)."""
    return "numpy" if backend == "auto" else backend


@dataclass(frozen=True)
class QueryOptions:
    """Immutable bundle of execution options for one query run."""

    strategy: str = "gmdj_optimized"
    backend: str = "auto"
    partitions: int | None = None
    workers: int | None = None
    trace: bool = False
    use_cache: bool = True
    rollup: str = "off"

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
        if self.rollup not in ROLLUP_LEVELS:
            raise ConfigurationError(
                f"unknown rollup level {self.rollup!r}; "
                f"choose one of {ROLLUP_LEVELS}"
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

        The string form is for callers of the function-level entry
        points naming a bare strategy
        (:func:`repro.engine.executor.execute` and
        :func:`~repro.engine.executor.profile`, as the benchmark sweeps
        call them); the ``Database`` entry points accept only
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
        """These options, once the knob combination is validated: a
        kernel or fragmenter knob off its default on a non-GMDJ strategy
        is an error — the baselines have no GMDJ nodes to run it on."""
        if self.strategy not in GMDJ_STRATEGIES and (
                self.fragmenter() is not None or self.backend != "auto"):
            raise ConfigurationError(
                f"backend/partitions/workers apply only to GMDJ "
                f"strategies, not {self.strategy!r}"
            )
        return self

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

    def with_trace(self, trace: bool) -> "QueryOptions":
        if trace == self.trace:
            return self
        return dataclasses.replace(self, trace=trace)

    def cache_key(self) -> tuple:
        """The options components that affect a query's cached artifacts."""
        canon = self.canonical()
        return (canon.strategy, canon.kernel(), canon.fragmenter(),
                canon.partitions, canon.workers, canon.rollup)
