"""Driving ``python -m repro serve`` from outside: boot, load, stop.

The server is a real subprocess on an ephemeral port over a directory of
``.cols`` tables; load comes from this process over keep-alive
connections in a closed loop (a connection sends its next request only
after the previous response has been read and its clock stopped).

End to end the load is **one** connection.  Two were tried: a hit's
latency then depends on what the other connection happens to be running
(the server's event loop and worker threads share one interpreter
lock), and ten runs spread by 8-17% in ops_per_s, p50 and p90, against
2-5% with one -- at the same throughput, since the execute tier does
not scale with workers today.  What concurrency costs is priced in the
traced pass instead (``serve.execute_qps.w1``/``.w2``, two connections).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from perfbench.harness import (
    BenchmarkError,
    Calibrator,
    Measurement,
    answer_problem,
    child_environment,
    process_cpu_seconds,
)
from perfbench.oracle import Answer
from perfbench.spans import Recorder

#: One block of the mixed schedule: 45% cache hits, 30% rollup hits, 20%
#: executes, 5% inserts.  The schedule repeats this block with its order
#: reshuffled by the seed each time, so every run sends the same mix and
#: only the interleaving (which request meets a freshly invalidated
#: cache) differs from seed to seed.
BLOCK = ("cache_hit",) * 9 + ("rollup_hit",) * 6 + ("execute",) * 4 + ("ddl",)

#: Per-class request options.  ``cache_hit`` leaves the result cache on
#: (the server default); the other two switch it off so the tier under
#: test is the one that answers.
CLASS_OPTIONS = {
    "cache_hit": {"backend": "auto"},
    "rollup_hit": {"backend": "auto", "use_cache": False,
                   "rollup": "subsume"},
    "execute": {"backend": "auto", "use_cache": False},
}

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServeSession:
    """One ``repro serve`` child process, from boot to reaped exit."""

    def __init__(self, data_dir: Path, log_path: Path, workers: int = 2):
        self.data_dir = data_dir
        self.log_path = log_path
        self.workers = workers
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.boot_s = 0.0

    def start(self, timeout: float = 60.0) -> "ServeSession":
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(self.workers),
                 "--data", str(self.data_dir)],
                env=child_environment(), stdout=log,
                stderr=subprocess.STDOUT,
            )
        while True:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(2))
                self.boot_s = time.perf_counter() - started
                return self
            if self.process.poll() is not None:
                raise BenchmarkError(
                    f"repro serve exited with {self.process.returncode} "
                    f"before listening:\n{self.log_path.read_text()}"
                )
            if time.perf_counter() - started > timeout:
                self.stop()
                raise BenchmarkError("repro serve did not boot in time")
            time.sleep(0.01)

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.process.pid) if self.process else 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait until the child is reaped."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


# -- the seeded request schedule ----------------------------------------------

@dataclass(frozen=True)
class Request:
    klass: str
    path: str
    body: dict
    expected: Answer | None  # None for ddl


@dataclass(frozen=True)
class ServeQuery:
    """A SQL text with its oracle answer, as the schedule needs it."""

    sql: str
    expected: Answer


def schedule(seed: int, pools: dict[str, Sequence[ServeQuery]],
             neutral_insert: tuple[str, tuple],
             block: Sequence[str] = BLOCK) -> Iterator[Request]:
    """An endless seeded stream of requests, ``block`` after ``block``.

    ``pools`` maps each query class to the texts it draws from;
    ``neutral_insert`` is ``(table, row)`` for the ddl class, a row that
    changes no query's answer, so every oracle answer stays valid while
    each insert still invalidates the result cache and the rollup store.
    """
    rng = random.Random(f"{seed}:schedule")
    table, row = neutral_insert
    insert = Request("ddl", "/ddl", {"statement": {
        "op": "insert", "name": table, "rows": [list(row)],
    }}, None)
    while True:
        for klass in rng.sample(block, len(block)):
            if klass == "ddl":
                yield insert
                continue
            query = rng.choice(pools[klass])
            yield Request(klass, "/query", {
                "sql": query.sql, "options": CLASS_OPTIONS[klass],
            }, query.expected)


def warm_requests(pools: dict[str, Sequence[ServeQuery]]) -> Iterator[Request]:
    """One request per (class, text): fills the cache and the rollup store."""
    return iter([
        Request(klass, "/query",
                {"sql": query.sql, "options": CLASS_OPTIONS[klass]},
                query.expected)
        for klass, pool in pools.items() for query in pool
    ])


# -- the closed-loop load generator -------------------------------------------

@dataclass
class Outcome:
    klass: str
    latency_ms: float
    elapsed_ms: float  # the server's own figure; 0.0 for ddl
    served_by: str
    status: int


def _post(connection: http.client.HTTPConnection, path: str,
          body: dict) -> tuple[int, dict]:
    connection.request("POST", path, body=json.dumps(body),
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def run_load(port: int, requests: Iterator[Request], *, connections: int = 1,
             seconds: float | None = None,
             recorder: Recorder | None = None,
             calibrator: Calibrator | None = None,
             ) -> tuple[Measurement, list[Outcome]]:
    """Issue ``requests`` over ``connections`` keep-alive connections.

    Stops when ``seconds`` have passed (if given) or ``requests`` runs
    out.  Returns the measurement (latencies of every answered request,
    failures counted) and the per-request outcomes.  With a
    ``calibrator``, calibration units are timed in the background while
    the client threads wait on their sockets.
    """
    result = Measurement()
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    deadline = None if seconds is None else time.perf_counter() + seconds

    def take() -> Request | None:
        with lock:
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            return next(requests, None)

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while (request := take()) is not None:
                started = time.perf_counter()
                span = (recorder.span("serve.request", klass=request.klass)
                        if recorder else contextlib.nullcontext())
                try:
                    with span:
                        status, payload = _post(connection, request.path,
                                                request.body)
                except (OSError, http.client.HTTPException,
                        ValueError) as error:
                    with lock:
                        result.attempted += 1
                        result.fail(f"{request.klass}: "
                                    f"{type(error).__name__}: {error}")
                    connection.close()
                    continue
                latency_ms = (time.perf_counter() - started) * 1000.0
                problem = _verify(request, status, payload)
                with lock:
                    result.attempted += 1
                    result.latencies_ms.append(latency_ms)
                    outcomes.append(Outcome(
                        request.klass, latency_ms,
                        float(payload.get("elapsed_ms", 0.0)),
                        str(payload.get("served_by", request.klass)),
                        status,
                    ))
                    if problem:
                        result.fail(problem)
        finally:
            connection.close()

    wall_started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(connections)]
    with (calibrator.in_background() if calibrator
          else contextlib.nullcontext()):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.wall_s = time.perf_counter() - wall_started
    return result, outcomes


def _verify(request: Request, status: int, payload: dict) -> str | None:
    """What is wrong with this response, or None."""
    if status != 200:
        return (f"{request.klass}: HTTP {status}: "
                f"{payload.get('error', payload)}")
    if request.expected is None:
        if payload.get("inserted") != 1:
            return f"ddl: unexpected payload {payload}"
        return None
    return answer_problem(request.klass, payload.get("rows", []),
                          request.expected)
