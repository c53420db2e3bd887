"""Attempts: runs that read no stored table, and leave no trace if they would.

``repro serve`` answers a request on its event loop when the answer
comes from a tier — the result cache, or the rollup store answering
every GMDJ node — and hands everything else to a worker thread.  It
cannot know which beforehand without running the request, so it runs
the request's one body under :func:`attempt`:

* reading a stored table's rows (``ScanTable.evaluate``, a baseline
  strategy's evaluator) raises :class:`HandOff` before anything is read,
  and so does whatever would wait (the tenant's lock under a writer);
* an attempt that hands off has no effect: what the run changed in a
  :class:`~repro.engine.cache.DerivedMap` — a count, a put and what the
  put evicted — is taken back through the undo the map registered with
  :func:`on_handoff`, and its metrics registry is dropped, so the worker
  that runs the request afterwards counts every probe once;
* an attempt that finishes, or fails for a reason of its own, keeps its
  effects and merges its metrics, as a worker's run would.

Outside an attempt every check here is one context-variable read.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from typing import Any, Callable, Iterator

#: The undo list of the attempt this context runs, or None.
_undo: ContextVar[list[Callable[[], None]] | None] = ContextVar(
    "repro_attempt_undo", default=None)


class HandOff(Exception):
    """An attempt met what only a worker may do.  ``resume`` is what the
    worker may start from instead of the request as sent (the queries
    the attempt bound), or None."""

    def __init__(self, reason: str, resume: Any = None):
        super().__init__(reason)
        self.resume = resume


@contextmanager
def attempt() -> Iterator[None]:
    """Run the block as an attempt (the module docstring's rules)."""
    # Imported here: repro.obs pulls in the engine, which imports this.
    from repro.obs.metrics import get_registry, metrics_scope

    undo: list[Callable[[], None]] = []
    token = _undo.set(undo)
    handed_off = False
    try:
        with metrics_scope(merge=False) as metrics:
            yield
    except HandOff:
        handed_off = True
        for effect in reversed(undo):
            effect()
        raise
    finally:
        _undo.reset(token)
        if not handed_off:
            get_registry().merge(metrics)


def attempting() -> bool:
    """Whether this context runs an attempt."""
    return _undo.get() is not None


def stored_read() -> None:
    """Called before a stored table's rows are read: raises
    :class:`HandOff` inside an attempt."""
    if _undo.get() is not None:
        raise HandOff("a stored table would be read")


def on_handoff(undo: Callable[..., None], *args: Any) -> None:
    """Register ``undo(*args)`` to take back an effect just made, if this
    context runs an attempt that hands off."""
    pending = _undo.get()
    if pending is not None:
        pending.append(partial(undo, *args))
