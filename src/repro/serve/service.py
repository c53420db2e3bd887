"""The asyncio multi-tenant query service.

Architecture — one event loop, a fixed dispatcher pool, per-tenant
engines:

* The **event loop** owns the sockets, parses requests
  (:mod:`repro.serve.http`), makes the admission decision
  (:mod:`repro.serve.admission`), and enforces deadlines.  It never
  reads a stored table.
* A ``/query`` or ``/batch`` that the result cache or the rollup store
  may answer (``use_cache`` on, or ``rollup: subsume``) is first run on
  the loop, as an attempt (:mod:`repro.storage.attempt`): the tiered
  serving path (:meth:`repro.serve.state.Tenant.run_query`) — result
  cache, rollup store, then execution — in which the first stored-table
  read, or a writer holding or awaiting the tenant's lock, hands the
  request off before anything is read or waited for.  A hit is answered
  there without a thread hop and takes no admission slot
  (``serve.loop_answers`` counts these, ``serve.loop_handoffs`` the
  attempts that handed off).
* Every other request, and every hand-off, is admitted and dispatched
  to a **worker thread pool** (one
  :class:`~concurrent.futures.ThreadPoolExecutor` of ``workers``
  threads, shut down on drain) via ``run_in_executor``, with the calling
  context copied so the request's metrics scope resolves inside the
  thread; the thread runs the same body under the tenant's
  reader-writer lock.

Failure semantics the tests pin down:

* queue full        → **429** immediately (load shedding);
* draining          → **503** for every new request;
* deadline exceeded → **408**; if the request was already executing,
  its thread keeps the admission slot until it actually finishes, so an
  abandoned request can never let a fresh one oversubscribe the pool,
  and the tenant's state (built under the read/write lock) is never
  corrupted by the cancellation;
* engine errors     → **400** with the error text (they are the
  client's query, not a server fault); anything unexpected → **500**.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError, WorkerPoolError
from repro.obs.metrics import get_registry
from repro.serve.admission import AdmissionController, QueueFull
from repro.serve.http import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    json_response,
    read_request,
)
from repro.serve.state import (
    DeadlineExceeded,
    Tenant,
    TenantLimitError,
    TenantRegistry,
    parse_options,
    tenant_name,
)
from repro.storage.attempt import HandOff, attempt

DEFAULT_PORT = 8125


@dataclass
class ServeConfig:
    """Everything the service needs to know, in one frozen-ish bundle."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 4
    queue_depth: int = 64
    deadline_ms: float = 30_000.0
    max_body: int = MAX_BODY_BYTES
    max_tenants: int = 16
    cache_size: int = 128
    drain_grace_s: float = 10.0


class QueryService:
    """The serving tier: admission, tenancy, dispatch, endpoints."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.tenants = TenantRegistry(
            max_tenants=self.config.max_tenants,
            cache_size=self.config.cache_size,
        )
        self.admission = AdmissionController(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
        )
        #: The dispatcher; shut down on drain.  Thread workers — tenant
        #: databases live in this process — while partitioned GMDJ
        #: evaluation below may still fan out to process pools.
        self._executor = ThreadPoolExecutor(max_workers=self.config.workers)
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started_at = time.time()
        self.port: int | None = None
        self.statuses: dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (port 0 picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=2 * 64 * 1024,
        )
        self._started_at = time.time()
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, release.

        Safe to call more than once.  Order matters: flip the draining
        flag (new requests get 503), wait for admitted requests to
        complete (bounded by ``drain_grace_s``), then stop the listener,
        shut down the dispatcher, and close every tenant database — which
        in turn shuts down the tenants' pooled GMDJ executors via
        ``Database.close()``.
        """
        if self._draining:
            return
        self._draining = True
        await self.admission.quiesce(timeout=self.config.drain_grace_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        self.tenants.close_all()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body
                    )
                except HttpError as error:
                    writer.write(json_response(
                        error.status, {"error": error.message},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._dispatch(request)
                self._observe(status)
                writer.write(json_response(
                    status, payload, keep_alive=request.keep_alive,
                ))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _observe(self, status: int) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1
        registry = get_registry()
        registry.counter("serve.requests").inc()
        registry.counter(f"serve.status.{status}").inc()

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, request: HttpRequest) -> tuple[int, dict]:
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                return 200, self._healthz()
            if route == ("GET", "/metrics"):
                return 200, self._metrics()
            if request.path in ("/query", "/batch", "/ddl", "/explain"):
                if request.method != "POST":
                    return 405, {"error": f"{request.path} wants POST"}
                if self._draining:
                    return 503, {"error": "server is draining"}
                return 200, await self._admitted(request)
            return 404, {"error": f"no route for {request.path}"}
        except HttpError as error:
            return error.status, {"error": error.message}
        except QueueFull as error:
            return 429, {"error": str(error)}
        except TenantLimitError as error:
            return 429, {"error": str(error)}
        except DeadlineExceeded as error:
            return 408, {"error": str(error)}
        except WorkerPoolError as error:
            # The server's fault, not the request's: the broken executor
            # is already evicted, so a retry gets a fresh pool.
            return 503, {"error": str(error)}
        except ReproError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - the service must answer
            return 500, {"error": f"{type(error).__name__}: {error}"}

    # -- admitted endpoints --------------------------------------------------

    async def _admitted(self, request: HttpRequest) -> dict:
        # Every body check runs before the tenant lookup, and a tenant
        # this request creates goes again if the request fails: tenants
        # never expire, so a refused request would keep its slot for good.
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        name = tenant_name(body.get("tenant", "default"))
        options = parse_options(body.get("options"))
        deadline_s = self._deadline_seconds(request, body)
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        run: Callable[..., dict]
        args: tuple
        if request.path == "/query":
            run, args = Tenant.run_query, (self._sql(body), options)
        elif request.path == "/batch":
            run, args = Tenant.run_batch, (self._sqls(body), options)
        elif request.path == "/explain":
            analyze = body.get("analyze", False)
            if not isinstance(analyze, bool):
                raise HttpError(
                    400, f"'analyze' must be true or false, not {analyze!r}")
            run, args = Tenant.run_explain, (self._sql(body), options, analyze)
        else:  # /ddl
            statement = body.get("statement")
            if not isinstance(statement, dict):
                raise HttpError(400, "ddl statement must be a JSON object")
            run, args = Tenant.run_ddl, (statement,)
        tiered = request.path in ("/query", "/batch") and (
            options.use_cache or options.rollup == "subsume")
        with self.tenants.holding(name) as tenant:
            if tiered:
                try:
                    with attempt():
                        payload = run(tenant, *args, deadline)
                except HandOff:
                    get_registry().counter("serve.loop_handoffs").inc()
                else:
                    get_registry().counter("serve.loop_answers").inc()
                    return payload
            return await self._run_with_slot(
                functools.partial(run, tenant, *args), deadline)

    def _sql(self, body: dict) -> str:
        sql = body.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise HttpError(400, "request needs a non-empty 'sql' string")
        return sql

    def _sqls(self, body: dict) -> list[str]:
        sqls = body.get("queries")
        if (not isinstance(sqls, list) or not sqls
                or not all(isinstance(s, str) and s.strip() for s in sqls)):
            raise HttpError(
                400, "batch needs 'queries': a non-empty list of SQL strings"
            )
        return sqls

    def _deadline_seconds(self, request: HttpRequest, body: dict) -> float | None:
        """The request's deadline: a finite number of milliseconds that is
        not a boolean, from the body or the header (400 otherwise), else
        the server's default."""
        raw = body.get("deadline_ms", request.headers.get("x-repro-deadline-ms"))
        if raw is None:
            deadline_ms = self.config.deadline_ms
        else:
            deadline_ms = math.nan
            if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
                try:
                    deadline_ms = float(raw)
                except (ValueError, OverflowError):
                    pass
            if not math.isfinite(deadline_ms):
                raise HttpError(400, f"bad deadline_ms {raw!r}")
        if deadline_ms <= 0:
            return None  # explicit 0/negative disables the deadline
        return deadline_ms / 1000.0

    async def _run_with_slot(self, worker, deadline: float | None) -> dict:
        """Admission, dispatch, and enforcement of the (monotonic)
        ``deadline`` for one request."""
        loop = asyncio.get_running_loop()
        slot = self.admission.slot()
        try:
            await asyncio.wait_for(
                slot.__aenter__(),
                timeout=None if deadline is None
                else max(0.0, deadline - time.monotonic()))
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                "deadline exceeded while queued for a worker"
            ) from None
        context = contextvars.copy_context()
        future = loop.run_in_executor(
            self._executor, functools.partial(context.run, worker, deadline)
        )
        try:
            left = (
                None if deadline is None else deadline - time.monotonic()
            )
            payload = await asyncio.wait_for(asyncio.shield(future), left)
        except asyncio.TimeoutError:
            if future.cancel():
                # Never started: free the slot immediately.
                slot.release()
            else:
                # Executing: the thread keeps the slot until it is done,
                # and its result (or error) is deliberately discarded.
                future.add_done_callback(
                    lambda finished: (_swallow(finished), slot.release())
                )
            raise DeadlineExceeded("deadline exceeded during execution") from None
        except BaseException:
            slot.release()
            raise
        slot.release()
        return payload

    # -- observe-only endpoints ----------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.time() - self._started_at, 3),
            "tenants": len(self.tenants),
            "admission": self.admission.snapshot(),
        }

    def _metrics(self) -> dict:
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "draining": self._draining,
            "admission": self.admission.snapshot(),
            "statuses": {
                str(status): count
                for status, count in sorted(self.statuses.items())
            },
            "tenants": {
                name: tenant.stats() for name, tenant in self.tenants.items()
            },
            "registry": get_registry().to_json(),
        }


def _swallow(future) -> None:
    """Retrieve an abandoned future's outcome so it never warns."""
    if not future.cancelled():
        future.exception()


async def _run_until_signalled(service: QueryService) -> None:
    import signal

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await service.start()
    print(f"repro serve listening on "
          f"http://{service.config.host}:{service.port} "
          f"(workers={service.config.workers} "
          f"queue_depth={service.config.queue_depth})",
          flush=True)
    serving = asyncio.ensure_future(service.serve_forever())
    await stop.wait()
    print("repro serve draining ...", flush=True)
    await service.shutdown()
    serving.cancel()
    try:
        await serving
    except asyncio.CancelledError:
        pass


def run_server(config: ServeConfig, data_dir=None) -> int:
    """Blocking entry point for ``repro serve`` (returns an exit code)."""
    service = QueryService(config)
    if data_dir is not None:
        from repro.cli import load_data_directory
        from repro.engine.database import Database

        db = Database(cache_size=config.cache_size)
        names = load_data_directory(db, data_dir)
        service.tenants.adopt("default", db)
        print(f"loaded {len(names)} table(s) into tenant 'default': "
              f"{', '.join(names)}", flush=True)
    try:
        asyncio.run(_run_until_signalled(service))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    return 0
