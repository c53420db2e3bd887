"""Machine-independent work accounting.

The paper's experiments ran on a commercial DBMS and a C++ GMDJ engine; we
cannot reproduce 2002 wall-clock numbers, so every operator in this library
reports its work into an ambient :class:`IOStats` object.  The counters are
the cost proxies the paper reasons with:

* ``tuples_scanned`` / ``pages_read`` — relation scan volume (the dominant
  cost in OLAP; the GMDJ's selling point is a single scan of the detail
  relation).
* ``relation_scans`` — number of full passes started over stored relations.
* ``detail_scans`` — GMDJ detail scans (the paper's claim is one per GMDJ;
  a fragmented run scans once per fragment).
* ``predicate_evals`` — how many times a θ/selection condition was evaluated
  (tuple-iteration semantics explodes this counter).
* ``index_probes`` / ``index_builds`` — index usage.
* ``tuples_output`` — result volume.

Page accounting is simulated: a relation of *n* tuples occupies
``ceil(n / TUPLES_PER_PAGE)`` pages and a full scan reads all of them.

Usage::

    stats = IOStats.ambient()
    stats.reset()
    ... run a query ...
    print(stats.pages_read)

Operators obtain the ambient object through :meth:`IOStats.ambient`; tests
that need isolation use :func:`collect` as a context manager, which swaps in
a fresh object and restores the previous one on exit.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, fields as dataclass_fields

#: Simulated page capacity used for page accounting.
TUPLES_PER_PAGE = 100

#: The ambient stats object, tracked per execution context.  A
#: ``ContextVar`` rather than a module global so worker threads (the
#: parallel GMDJ pool) each get their own accumulator instead of racing
#: unsynchronized ``+=`` against the coordinator's object; the pool
#: merges worker snapshots back explicitly via :meth:`IOStats.merge`.
_ambient_var: ContextVar["IOStats | None"] = ContextVar(
    "repro_iostats_ambient", default=None
)


@dataclass
class IOStats:
    """Mutable bundle of work counters."""

    tuples_scanned: int = 0
    pages_read: int = 0
    relation_scans: int = 0
    detail_scans: int = 0
    predicate_evals: int = 0
    index_probes: int = 0
    index_builds: int = 0
    tuples_output: int = 0
    aggregate_updates: int = 0
    join_pairs_considered: int = 0
    completed_tuples: int = 0

    @classmethod
    def ambient(cls) -> "IOStats":
        """The context-wide stats object operators report into."""
        stats = _ambient_var.get()
        if stats is None:
            stats = cls()
            _ambient_var.set(stats)
        return stats

    @classmethod
    def _set_ambient(cls, stats: "IOStats") -> "IOStats":
        previous = cls.ambient()
        _ambient_var.set(stats)
        return previous

    def reset(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)

    def record_scan(self, tuple_count: int) -> None:
        """Account for a full pass over a stored relation."""
        self.relation_scans += 1
        self.tuples_scanned += tuple_count
        self.pages_read += math.ceil(tuple_count / TUPLES_PER_PAGE)

    def merge(self, snapshot: dict) -> None:
        """Add a counter snapshot (e.g. from a pool worker) into this object.

        Only integer counters known to this dataclass are merged; unknown
        keys are ignored so snapshots survive schema drift between
        coordinator and worker versions.
        """
        for name in _COUNTERS:
            value = snapshot.get(name)
            if isinstance(value, int):
                setattr(self, name, getattr(self, name) + value)

    def snapshot(self) -> dict:
        """A plain-dict copy of all integer counters (for reporting)."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def total_work(self) -> int:
        """A single scalar summarizing work done, used for coarse ordering.

        The weights make a page read dominate (as in a disk-resident
        warehouse) with CPU work as a tie-breaker.
        """
        return (
            self.pages_read * 1000
            + self.predicate_evals
            + self.index_probes
            + self.aggregate_updates
            + self.join_pairs_considered
        )


#: The counter fields, in declaration order.
_COUNTERS = tuple(fld.name for fld in dataclass_fields(IOStats))


class collect:
    """Context manager that installs a fresh ambient IOStats object.

    Re-entrant: the displaced ambient objects are kept on a stack, so a
    single ``collect`` instance can be entered while already active (or
    reused after exiting) and every exit restores exactly the object
    that was ambient at the matching entry.

    >>> with collect() as stats:
    ...     pass  # run a query
    >>> stats.pages_read >= 0
    True
    """

    def __init__(self) -> None:
        self.stats = IOStats()
        self._previous: list[IOStats] = []

    def __enter__(self) -> IOStats:
        self._previous.append(IOStats._set_ambient(self.stats))
        return self.stats

    def __exit__(self, *exc_info) -> None:
        assert self._previous, "collect.__exit__ without matching __enter__"
        IOStats._set_ambient(self._previous.pop())
