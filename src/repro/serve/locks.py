"""A writer-preferring reader-writer lock for per-tenant databases.

The serve tier's consistency contract is *concurrent reads, exclusive
DDL*: any number of ``/query`` and ``/explain`` requests may execute
against one tenant simultaneously (the caches and the rollup store are
internally thread-safe for that), but a ``/ddl`` mutation must observe
a quiescent database — otherwise a reader that computed its result from
the old table state could store that result into the plan cache *after*
the DDL's invalidation ran, leaving a stale entry that later requests
would be served from.  Taking the write lock around mutation+invalidate
and the read lock around lookup+execute+store excludes exactly that
interleaving.

The lock is a plain :mod:`threading` primitive, not an asyncio one,
because the serve tier waits for it only *inside* the worker thread
that runs the request, and because it lets threaded test harnesses
drive the identical locking discipline without an event loop.  The
event loop, which answers cache and rollup hits itself, only tries the
read side (``acquire_read(timeout=0)``): a writer holding or awaiting
the lock sends the request to a worker, so the loop never blocks on it.

Writer preference: once a writer is waiting, new readers queue behind
it.  A stream of dashboard reads can therefore never starve a DDL, at
the cost of briefly idling readers — the right trade for a store whose
writes are rare and invalidating.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class LockTimeout(Exception):
    """A lock acquisition exceeded its deadline."""


class ReadWriteLock:
    """Many concurrent readers or one exclusive writer (not reentrant)."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- read side -----------------------------------------------------------

    def acquire_read(self, timeout: float | None = None) -> None:
        """Block until no writer is active or waiting; raises
        :class:`LockTimeout` when ``timeout`` (seconds) elapses first."""
        with self._condition:
            if not self._condition.wait_for(
                lambda: not self._writer_active and not self._writers_waiting,
                timeout=timeout,
            ):
                raise LockTimeout("read lock not acquired within deadline")
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            if self._readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    @contextmanager
    def read(self, timeout: float | None = None):
        self.acquire_read(timeout=timeout)
        try:
            yield self
        finally:
            self.release_read()

    # -- write side ----------------------------------------------------------

    def acquire_write(self, timeout: float | None = None) -> None:
        """Block until the lock is exclusively held; on timeout the
        waiting claim is withdrawn (queued readers wake) and
        :class:`LockTimeout` is raised."""
        with self._condition:
            self._writers_waiting += 1
            try:
                if not self._condition.wait_for(
                    lambda: not self._writer_active and self._readers == 0,
                    timeout=timeout,
                ):
                    raise LockTimeout(
                        "write lock not acquired within deadline"
                    )
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
                if not self._writer_active:
                    # Withdrawn claim: let readers blocked on our
                    # preference through.
                    self._condition.notify_all()

    def release_write(self) -> None:
        with self._condition:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire")
            self._writer_active = False
            self._condition.notify_all()

    @contextmanager
    def write(self, timeout: float | None = None):
        self.acquire_write(timeout=timeout)
        try:
            yield self
        finally:
            self.release_write()

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """Current holder counts (for ``/metrics`` and tests)."""
        with self._condition:
            return {
                "readers": self._readers,
                "writer_active": self._writer_active,
                "writers_waiting": self._writers_waiting,
            }
