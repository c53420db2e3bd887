"""Bounded admission queue with load shedding for the query service.

Classic closed-system admission control: at most ``workers`` requests
execute at once (one per dispatcher thread), at most ``queue_depth``
more may wait, and anything beyond that is shed immediately with a 429
instead of being allowed to build an unbounded backlog.  Shedding at
the door is what keeps tail latency bounded under overload — a queued
request's latency is (queue wait + service time), so the queue bound
*is* the latency bound.  Only requests that need a worker come here: a
cache or rollup hit is answered on the event loop, takes no slot and is
never shed (:mod:`repro.serve.service`).

Deadlines compose with the queue: a request that times out while
waiting withdraws its claim (the semaphore permit is never taken), so
an abandoned wait can not consume a worker slot later.  All state
changes happen on the event loop, so the counters need no lock.
"""

from __future__ import annotations

import asyncio
import time

from repro.errors import ConfigurationError


class QueueFull(Exception):
    """The admission queue is at capacity; the request was shed."""


class AdmissionController:
    """Bounded waiting room in front of a fixed worker pool."""

    def __init__(self, workers: int, queue_depth: int):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 0:
            raise ConfigurationError(
                f"queue_depth must be >= 0, got {queue_depth}"
            )
        self.workers = workers
        self.queue_depth = queue_depth
        self._semaphore = asyncio.Semaphore(workers)
        self.waiting = 0
        self.executing = 0
        self.admitted = 0
        self.shed = 0
        self.timeouts = 0
        self.completed = 0

    def slot(self) -> "_Slot":
        """An async context manager holding one execution slot.

        Raises :class:`QueueFull` *synchronously* on entry when the
        waiting room is at capacity — shed decisions must not await.
        """
        return _Slot(self)

    def snapshot(self) -> dict:
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "waiting": self.waiting,
            "executing": self.executing,
            "admitted": self.admitted,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "completed": self.completed,
        }

    async def quiesce(self, timeout: float | None = None) -> bool:
        """Wait until nothing is waiting or executing (drain barrier)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.waiting or self.executing:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True


class _Slot:
    def __init__(self, controller: AdmissionController):
        self._controller = controller
        self._held = False

    async def __aenter__(self) -> "_Slot":
        controller = self._controller
        # Shed only when the pool is saturated AND the waiting room is
        # full; with free workers the acquire below never blocks, so a
        # queue_depth of 0 still admits up to ``workers`` requests.
        if (controller._semaphore.locked()
                and controller.waiting >= controller.queue_depth):
            controller.shed += 1
            raise QueueFull(
                f"admission queue full ({controller.queue_depth} waiting)"
            )
        controller.waiting += 1
        try:
            await controller._semaphore.acquire()
        except BaseException:
            # Cancelled (deadline) while queued: withdraw the claim.
            controller.waiting -= 1
            controller.timeouts += 1
            raise
        controller.waiting -= 1
        controller.executing += 1
        controller.admitted += 1
        self._held = True
        return self

    def release(self) -> None:
        """Return the slot (idempotent; loop-thread only).

        Exposed separately from ``__aexit__`` because a timed-out
        request must keep holding its slot until the worker thread
        actually finishes — the service releases from the executor
        future's done-callback in that case, so an abandoned request can
        never let a new one oversubscribe the pool.
        """
        if not self._held:
            return
        self._held = False
        controller = self._controller
        controller.executing -= 1
        controller.completed += 1
        controller._semaphore.release()

    async def __aexit__(self, *exc_info) -> None:
        self.release()
