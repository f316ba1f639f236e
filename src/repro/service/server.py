"""The asyncio JSON-over-HTTP analysis server.

Stdlib only: :func:`asyncio.start_server` plus the hand-rolled HTTP/1.1
layer in :mod:`repro.service.http` (request line, headers,
``Content-Length`` body; chunked uploads are refused with 501).
Connections are persistent by default — one connection may carry many
requests back to back, which is what the router's pooled
:class:`~repro.service.client.AsyncServiceClient` relies on to forward
work without a connect per request.  Clients that prefer one-shot
connections (the blocking client) simply close after the first response;
an EOF at a request boundary is a clean end, not an error.

Endpoints (schemas in ``docs/SERVICE.md``):

* ``POST /analyze`` / ``POST /certify`` / ``POST /lint`` / ``POST /infer`` — run jobs for
  one ``app`` or a list of ``apps``; options mirror the batch CLI flags.
  Responses carry per-unit ``result`` payloads byte-identical to the
  batch CLI's JSON (both fronts call :func:`repro.pipeline.jobs.run_job`).
* ``GET /healthz`` — liveness + drain state (503 while draining).
* ``GET /metrics`` — Prometheus text exposition of the telemetry registry.

Robustness invariants, each enforced here and pinned by tests:

* **admission control** — beyond ``max_pending`` queued jobs the server
  answers 429 *before* allocating any work (``Batcher.admit`` is
  synchronous), so a flood costs memory proportional to open sockets only;
* **deadlines** — a request-level ``deadline_ms`` returns whatever units
  finished in time plus ``timed_out`` markers for the rest; the late jobs
  keep running and warm the cache for the retry;
* **isolation** — a malformed request dies with a 400 and a crashing job
  is confined to its per-unit error entry; the loop and the shared verdict
  cache survive both;
* **lifecycle** — SIGTERM/SIGINT stop the listener, close idle keep-alive
  connections, drain in-flight work (bounded by ``drain_timeout``), flush
  the persistent verdict store once, then exit; the store is also what
  ``start`` warms the cache from.

As a fleet shard (``repro serve --fleet N`` spawns these as worker
processes) the server additionally runs a periodic persistence cycle
(``persist_interval``): flush newly decided verdicts as a fresh segment,
then refresh the cache from segments other shards persisted — the shared
``--cache-dir`` is the fleet's cross-process verdict bus.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

from repro.core.cache import VerdictCache
from repro.core.persist import open_store
from repro.errors import ReproError
from repro.pipeline.jobs import JobError, JobSpec, run_job
from repro.service.batcher import Batcher, QueueFullError
from repro.service.http import (
    REASONS,
    HttpError,
    read_body,
    read_head,
    wants_close,
    write_response,
)
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "REASONS", "JOB_OPTION_FIELDS", "ServiceConfig", "ReproService",
    "parse_job_payload", "serve",
]

#: Option fields a job request may carry besides app/apps/deadline_ms.
JOB_OPTION_FIELDS = (
    "budget", "seed", "ladder", "snapshot", "use_sdg",
    "transaction", "level", "max_schedules", "max_depth",
    "profile", "pairs",
)

# backwards-compatible alias: the server's request-abort exception now
# lives in repro.service.http, shared with the fleet router
_HttpError = HttpError


class ServiceConfig:
    """Tunables of one :class:`ReproService` (defaults suit local use).

    Construction validates the numeric knobs outright: a ``workers=0``
    pool or a zero ``max_pending`` would not fail here but deep inside the
    batcher's first dispatch, long after the flags were parsed.  Every
    rejection is a :class:`~repro.errors.ReproError` naming the field, so
    the CLI renders it as a one-line usage error (exit 2).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8923,
        workers: int = 2,
        window: float = 0.005,
        max_pending: int = 64,
        max_body: int = 1_000_000,
        read_timeout: float = 30.0,
        drain_timeout: float = 30.0,
        default_deadline_ms: int | None = None,
        cache_dir: str | None = None,
        no_persist: bool = False,
        persist_interval: float = 0.0,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.window = window
        self.max_pending = max_pending
        self.max_body = max_body
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.default_deadline_ms = default_deadline_ms
        self.cache_dir = cache_dir
        self.no_persist = no_persist
        self.persist_interval = persist_interval
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical tunables with a clear error (see class doc)."""
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ReproError(f"port must be an integer in 0..65535, got {self.port!r}")
        for name, minimum in (("workers", 1), ("max_pending", 1), ("max_body", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < minimum:
                raise ReproError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
        for name, minimum in (
            ("window", 0.0), ("drain_timeout", 0.0), ("persist_interval", 0.0),
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < minimum:
                raise ReproError(f"{name} must be a number >= {minimum}, got {value!r}")
        if not isinstance(self.read_timeout, (int, float)) or self.read_timeout <= 0:
            raise ReproError(
                f"read_timeout must be a positive number, got {self.read_timeout!r}"
            )
        if self.default_deadline_ms is not None and (
            not isinstance(self.default_deadline_ms, int)
            or self.default_deadline_ms <= 0
        ):
            raise ReproError(
                "default_deadline_ms must be a positive integer or None,"
                f" got {self.default_deadline_ms!r}"
            )
        if self.persist_interval and self.no_persist:
            raise ReproError("persist_interval requires persistence to be enabled")


def parse_job_payload(kind: str, payload, default_deadline_ms: int | None = None):
    """Validate one job-request JSON object into ``(specs, deadline_ms, options)``.

    Shared by the worker server (which executes the specs) and the fleet
    router (which shards them by fingerprint and forwards the *options*
    verbatim so worker-side parsing reproduces identical specs).  Raises
    :class:`~repro.service.http.HttpError` (400) on any malformed field.
    """
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    apps = payload.get("apps")
    if apps is None:
        app = payload.get("app")
        if not isinstance(app, str):
            raise HttpError(400, "request needs an 'app' string or 'apps' list")
        apps = [app]
    if not isinstance(apps, list) or not all(isinstance(a, str) for a in apps):
        raise HttpError(400, "'apps' must be a list of application names")
    if not apps:
        raise HttpError(400, "'apps' must not be empty")
    deadline_ms = payload.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None and (
        not isinstance(deadline_ms, int) or deadline_ms <= 0
    ):
        raise HttpError(400, "'deadline_ms' must be a positive integer")
    options = {key: payload[key] for key in JOB_OPTION_FIELDS if key in payload}
    unknown = set(payload) - set(JOB_OPTION_FIELDS) - {"app", "apps", "deadline_ms"}
    if unknown:
        raise HttpError(400, f"unknown request fields: {', '.join(sorted(unknown))}")
    specs = []
    for app in apps:
        try:
            spec = JobSpec.from_dict({**options, "app": app}, kind=kind)
            spec.validate()
        except JobError as exc:
            raise HttpError(400, str(exc))
        specs.append(spec)
    return specs, deadline_ms, options


class ReproService:
    """One warmed analysis process serving many requests."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = ServiceTelemetry()
        self.cache = VerdictCache()
        self.telemetry.track_cache(self.cache)
        self.telemetry.track_storage()
        self.store = open_store(self.config.cache_dir, no_persist=self.config.no_persist)
        self.warmed_entries = 0
        self.batcher = Batcher(
            self._execute,
            workers=self.config.workers,
            window=self.config.window,
            max_pending=self.config.max_pending,
            telemetry=self.telemetry,
        )
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._started = time.monotonic()
        self._draining = False
        self._active = 0  # requests currently being parsed/served
        self._connections: dict = {}  # writer -> busy flag (idle keep-alives)
        self._idle = None  # asyncio.Event set whenever _active == 0
        self._stopped = None  # asyncio.Event set when drain completes
        self._drain_task = None
        self._persist_task = None

    # -- job execution (pool threads) ----------------------------------------

    def _execute(self, spec: JobSpec):
        """The batcher's runner: one job on one pool thread, shared cache."""
        return run_job(
            spec,
            cache=self.cache,
            no_persist=True,  # the service owns persistence (boot/drain/cycle)
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Warm the cache from the persistent store and open the listener."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._started = time.monotonic()
        if self.store is not None:
            self.warmed_entries = self.store.load(self.cache)
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.store is not None and self.config.persist_interval > 0:
            self._persist_task = asyncio.get_running_loop().create_task(
                self._persist_cycle()
            )

    async def _persist_cycle(self) -> None:
        """Fleet mode: periodically flush our verdicts, absorb other shards'.

        Flush-then-refresh makes the shared cache directory a cross-process
        verdict bus: every shard's newly decided verdicts become a segment,
        and every shard absorbs the segments it has not seen yet.  Run in a
        worker thread — segment IO must never stall the accept loop.
        """
        interval = self.config.persist_interval
        while not self._draining:
            await asyncio.sleep(interval)
            if self._draining:
                return
            try:
                await asyncio.to_thread(self._persist_once)
            except Exception:  # noqa: BLE001 - persistence is best-effort
                pass

    def _persist_once(self) -> None:
        self.store.flush(self.cache)
        self.store.refresh(self.cache)

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def begin_drain(self) -> None:
        """Idempotently start the graceful shutdown sequence."""
        if self._draining:
            return
        self._draining = True
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._persist_task is not None:
            self._persist_task.cancel()
        # idle keep-alive connections hold no work; close them so the
        # request loop sees EOF and exits cleanly
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()
        deadline = time.monotonic() + self.config.drain_timeout
        await self.batcher.drain(timeout=self.config.drain_timeout)
        # handlers finish right after their jobs resolve; give them the rest
        # of the drain budget to flush their responses
        remaining = max(0.0, deadline - time.monotonic())
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=remaining or 0.05)
        except asyncio.TimeoutError:  # pragma: no cover - only on stuck jobs
            pass
        if self.store is not None:
            self.store.flush(self.cache)
        self.batcher.shutdown()
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Run until a signal (or :meth:`begin_drain`) completes the drain."""
        if self._server is None:
            await self.start()
        self.install_signal_handlers()
        await self._stopped.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        """Serve one connection: a keep-alive loop of request/response."""
        self._connections[writer] = False
        try:
            first = True
            while True:
                keep_alive = await self._serve_one(reader, writer, first)
                first = False
                if not keep_alive:
                    break
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader, writer, first: bool) -> bool:
        """Serve one request; returns whether the connection stays open."""
        try:
            head = await asyncio.wait_for(
                read_head(reader), timeout=self.config.read_timeout
            )
        except asyncio.TimeoutError:
            if first:
                # a fresh connection that never sent a head gets told why;
                # an idle keep-alive just expires silently
                await self._begin_request(writer)
                try:
                    await self._respond_safely(
                        writer, 408, {"error": "timed out reading request head"}
                    )
                    self._count(408, "?", time.perf_counter())
                finally:
                    self._end_request(writer)
            return False
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        if head is None:
            return False  # clean EOF between requests
        self._begin_request(writer)
        started = time.perf_counter()
        endpoint, status = "?", 500
        keep_alive = True
        try:
            method, path, headers = head
            endpoint = path
            if wants_close(headers):
                keep_alive = False
            body = await read_body(
                reader, method, headers,
                max_body=self.config.max_body,
                read_timeout=self.config.read_timeout,
            )
            status, payload, content_type = await self._route(method, path, body)
            if self._draining:
                keep_alive = False
            await write_response(
                writer, status, payload, content_type, keep_alive=keep_alive
            )
        except HttpError as exc:
            status = exc.status
            keep_alive = keep_alive and status in (404, 405, 429, 503) and not self._draining
            await self._respond_safely(
                writer, exc.status, {"error": str(exc)}, keep_alive=keep_alive
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 0  # client went away; nothing to answer
            keep_alive = False
        except Exception as exc:  # noqa: BLE001 - the loop must survive anything
            status = 500
            keep_alive = False
            await self._respond_safely(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            self._count(status, endpoint, started)
            self._end_request(writer)
        return keep_alive

    def _begin_request(self, writer) -> None:
        self._active += 1
        if writer in self._connections:
            self._connections[writer] = True
        self._idle.clear()
        self.telemetry.inflight_requests.inc()

    def _end_request(self, writer) -> None:
        self.telemetry.inflight_requests.dec()
        if writer in self._connections:
            self._connections[writer] = False
        self._active -= 1
        if self._active == 0:
            self._idle.set()

    def _count(self, status: int, endpoint: str, started: float) -> None:
        self.telemetry.requests.inc(endpoint=endpoint, status=str(status))
        self.telemetry.request_seconds.observe(time.perf_counter() - started)

    # -- routing -------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET /healthz")
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET /metrics")
            return 200, self.telemetry.registry.render(), "text/plain; version=0.0.4"
        if path in ("/analyze", "/certify", "/lint", "/infer", "/fuzz"):
            if method != "POST":
                raise HttpError(405, f"use POST {path}")
            if self._draining:
                raise HttpError(503, "service is draining")
            payload = await self._handle_jobs(path.lstrip("/"), body)
            return 200, payload, "application/json"
        raise HttpError(404, f"no route for {path}")

    def _healthz(self):
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "queue_depth": self.batcher.admitted,
            "warmed_entries": self.warmed_entries,
            "cache_entries": len(self.cache),
        }
        return (503 if self._draining else 200), payload, "application/json"

    def _parse_jobs(self, kind: str, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        specs, deadline_ms, _options = parse_job_payload(
            kind, payload, self.config.default_deadline_ms
        )
        return specs, deadline_ms

    async def _handle_jobs(self, kind: str, body: bytes) -> dict:
        specs, deadline_ms = self._parse_jobs(kind, body)
        loop = asyncio.get_running_loop()
        cutoff = loop.time() + deadline_ms / 1000.0 if deadline_ms else None
        units = []
        try:
            for spec in specs:
                units.append((spec, *self.batcher.admit(spec)))
        except QueueFullError as exc:
            raise HttpError(429, str(exc))
        entries = []
        any_timeout = False
        for spec, future, coalesced in units:
            entry = {
                "app": spec.app,
                "kind": spec.kind,
                "fingerprint": spec.fingerprint(),
                "coalesced": coalesced,
                "timed_out": False,
            }
            started = time.perf_counter()
            try:
                if cutoff is None:
                    result = await asyncio.shield(future)
                else:
                    remaining = cutoff - loop.time()
                    if remaining <= 0:
                        raise asyncio.TimeoutError
                    result = await asyncio.wait_for(asyncio.shield(future), remaining)
            except asyncio.TimeoutError:
                # the job keeps running and will warm the cache for a retry;
                # swallow its eventual outcome so nothing logs as unretrieved
                future.add_done_callback(_swallow_outcome)
                self.telemetry.timeouts.inc()
                entry["timed_out"] = True
                any_timeout = True
                entries.append(entry)
                continue
            except Exception as exc:  # noqa: BLE001 - per-unit isolation
                entry["error"] = f"{type(exc).__name__}: {exc}"
                entry["exit_code"] = 3
                entries.append(entry)
                continue
            entry["seconds"] = round(time.perf_counter() - started, 6)
            entry["exit_code"] = result.exit_code
            entry["result"] = result.payload
            entry["meta"] = result.extras
            entries.append(entry)
        return {"kind": kind, "results": entries, "timed_out": any_timeout}

    # -- responses -----------------------------------------------------------

    async def _respond_safely(
        self, writer, status: int, payload, keep_alive: bool = False
    ) -> None:
        try:
            await write_response(
                writer, status, payload, "application/json", keep_alive=keep_alive
            )
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass


def _swallow_outcome(future) -> None:
    if not future.cancelled():
        future.exception()


async def _amain(config: ServiceConfig, announce=print) -> int:
    service = ReproService(config)
    await service.start()
    announce(
        f"repro service listening on http://{config.host}:{service.port}"
        f" (workers={config.workers}, max_pending={config.max_pending},"
        f" warmed {service.warmed_entries} verdicts)",
        flush=True,
    )
    await service.serve_forever()
    announce("repro service drained cleanly", flush=True)
    return 0


def serve(config: ServiceConfig | None = None) -> int:
    """Blocking entry point used by ``repro serve``."""
    return asyncio.run(_amain(config or ServiceConfig()))
