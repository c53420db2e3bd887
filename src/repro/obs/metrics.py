"""A lightweight metrics registry: counters and fixed-bucket histograms.

The bench runner and the fuzzer feed a process-wide registry so a
campaign or sweep leaves queryable aggregates behind (run counts,
latency distributions, divergence totals) without any dependency on an
external metrics library.  Everything is plain dicts and lists;
:meth:`MetricsRegistry.write` emits the JSON file that a benchmark run
leaves in ``benchmark_results/latest/``.

Histograms use *fixed* bucket bounds chosen at creation: observation is
a linear scan over ~a dozen bounds (cheap, allocation-free) and two
histograms with the same bounds are directly comparable across runs.

Concurrency: :func:`get_registry` resolves through a ``ContextVar`` —
the same isolation the tracer and IOStats already use — so a request
handler that installs a :class:`metrics_scope` gets a private registry
for everything recorded inside it (including code it calls that fetches
the "global" registry, e.g. the rollup store's hit/miss counters).
Interleaved requests therefore never interleave increments on one
registry; on scope exit the private registry is merged into the
enclosing one under a lock, so process-wide totals still accumulate.
"""

from __future__ import annotations

import json
import threading
from contextvars import ContextVar
from pathlib import Path

#: Default latency bounds, in milliseconds (upper-inclusive edges); the
#: final bucket is the +Inf overflow.
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_json(self) -> int:
        return self.value


class Histogram:
    """Fixed-bucket histogram with count and sum."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str,
                 bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS):
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_json(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "count": self.count,
            "sum": round(self.total, 6),
        }


class MetricsRegistry:
    """Named counters and histograms, lazily created on first use."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    def __bool__(self) -> bool:
        return bool(self.counters or self.histograms)

    def to_json(self) -> dict:
        return {
            "counters": {
                name: counter.to_json()
                for name, counter in sorted(self.counters.items())
            },
            "histograms": {
                name: histogram.to_json()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def render(self) -> str:
        """A compact text summary (one line per metric)."""
        lines = []
        for name, counter in sorted(self.counters.items()):
            lines.append(f"{name} = {counter.value}")
        for name, histogram in sorted(self.histograms.items()):
            lines.append(
                f"{name}: n={histogram.count} mean={histogram.mean:.2f} "
                f"sum={histogram.total:.2f}"
            )
        return "\n".join(lines)

    def write(self, path) -> Path:
        """Persist the registry as JSON; returns the written path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def reset(self) -> None:
        self.counters.clear()
        self.histograms.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's observations into this one.

        Counters add.  Histograms with identical bounds add bucketwise;
        a bounds mismatch (two call sites naming one histogram with
        different buckets) still folds count and sum so totals survive,
        but the incomparable buckets are left alone.  Guarded by a
        process-wide lock because scope exits may merge from concurrent
        request threads.
        """
        with _merge_lock:
            for name, counter in other.counters.items():
                self.counter(name).inc(counter.value)
            for name, histogram in other.histograms.items():
                mine = self.histogram(name, histogram.bounds)
                mine.count += histogram.count
                mine.total += histogram.total
                if mine.bounds == histogram.bounds:
                    for index, bucket in enumerate(histogram.bucket_counts):
                        mine.bucket_counts[index] += bucket


#: The process-wide registry the bench and fuzz runners feed.
_default = MetricsRegistry()

_merge_lock = threading.Lock()

#: A per-context override of the process registry (see
#: :class:`metrics_scope`); ``None`` means "use the process default".
_scope_var: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics_scope", default=None
)


def get_registry() -> MetricsRegistry:
    """The active registry: the innermost scope's, else the process one."""
    scoped = _scope_var.get()
    return scoped if scoped is not None else _default


class metrics_scope:
    """Context manager isolating metrics to one request/region.

    Installs a fresh registry as the context's active one; every
    ``get_registry()`` call inside the scope (same thread *or* a thread
    the context was copied into) records there.  On exit the private
    registry is merged into whatever registry was active before, so
    process-wide aggregates keep accumulating — the scope only removes
    the *interleaving*, not the data.

    >>> with metrics_scope() as scoped:
    ...     get_registry().counter("demo").inc()
    ...     scoped.counters["demo"].value
    1
    """

    def __init__(self, merge: bool = True):
        self.registry = MetricsRegistry()
        self._merge = merge
        self._token = None

    def __enter__(self) -> MetricsRegistry:
        self._token = _scope_var.set(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        _scope_var.reset(self._token)
        if self._merge:
            get_registry().merge(self.registry)
