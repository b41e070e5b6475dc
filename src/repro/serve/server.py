"""Asyncio HTTP/JSON front-end for serving experiment results.

Stdlib-only: a small HTTP/1.1 server on :func:`asyncio.start_server`
(one request per connection, ``Connection: close``) that fronts the
experiment registry through the single-flight
:class:`~repro.serve.engine.ServeEngine`.

Routes
------
- ``GET /healthz`` — liveness + queue/in-flight snapshot (never gated
  by admission, so probes still answer under overload).
- ``GET /metrics`` — Prometheus text; ``?format=json`` for JSON.
- ``GET /v1/experiments`` — registry listing: id, title and point
  counts per scale.
- ``GET /v1/experiments/{name}?scale=quick|full`` — the assembled
  :class:`~repro.experiments.results.ExperimentResult`, computing (and
  caching) whatever sweep points are missing.
- ``POST /v1/points`` — run one sweep point: ``{"exp_id": ...,
  "config": {...}, "kind": "point"}`` (``kind`` is optional).

Degradation contract: saturation → ``429`` + ``Retry-After``; request
timeout → ``504``; draining → ``503``; a failing job → ``500`` carrying
the job's error text.  Shutdown is graceful: admission drains, the
engine finishes queued jobs, then the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.experiments import registry
from repro.runner.jobs import KIND_POINT, JobSpec, assemble, decompose
from repro.runner.store import ResultStore
from repro.serve.admission import (AdmissionController, DrainingError,
                                   RejectedError)
from repro.serve.engine import (EngineClosed, EngineSaturated, PointOutcome,
                                ServeEngine, Ticket)
from repro.serve.metrics import MetricsRegistry

__all__ = ["ServeApp", "ServerThread"]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HTTPError(Exception):
    """Internal: abort the request with a status + JSON error body."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ServeApp:
    """The serving application: engine + admission + routes."""

    def __init__(self,
                 engine: Optional[ServeEngine] = None,
                 admission: Optional[AdmissionController] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 store: Optional[ResultStore] = None,
                 request_timeout_s: float = 60.0,
                 drain_timeout_s: float = 30.0):
        self.metrics = metrics if metrics is not None else (
            engine.metrics if engine is not None else MetricsRegistry())
        if engine is None:
            if store is not None:
                engine = ServeEngine(store=store, metrics=self.metrics)
            else:
                engine = ServeEngine(metrics=self.metrics)
        self.engine = engine
        self.admission = admission if admission is not None else \
            AdmissionController(metrics=self.metrics)
        self.request_timeout_s = request_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = time.time()

        m = self.metrics
        self._m_requests = m.counter(
            "serve_requests_total", "HTTP requests by route and status code")
        self._m_errors = m.counter(
            "serve_errors_total", "requests answered with a 5xx status")
        self._m_timeouts = m.counter(
            "serve_timeouts_total", "requests that hit the request timeout")
        self._h_latency = m.histogram(
            "serve_request_seconds", "request latency by route")

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        # limit= caps readuntil's buffer at the header budget (the
        # default 64 KiB would LimitOverrun before our own check);
        # readexactly for bodies is not bound by it.
        self._server = await asyncio.start_server(
            self._client_connected, host=host, port=port,
            limit=_MAX_HEADER_BYTES)
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None, "app not started"
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful: stop admitting, drain, close engine and listener."""
        self.admission.begin_drain()
        await self.admission.wait_drained(self.drain_timeout_s)
        await asyncio.get_running_loop().run_in_executor(
            None, self.engine.close)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- HTTP plumbing -------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        route = "?"
        status = 500
        t0 = time.perf_counter()
        try:
            try:
                method, target, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
            except _HTTPError as exc:
                await self._respond(writer, exc.status,
                                    {"error": str(exc)}, exc.headers)
                status = exc.status
                return
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ConnectionError, ValueError):
                return   # client hung up or spoke garbage mid-request
            path = urlsplit(target).path
            query = {k: v[-1] for k, v in
                     parse_qs(urlsplit(target).query).items()}
            route = self._route_label(method, path)
            try:
                status, payload, headers_out = await self._dispatch(
                    method, path, query, body)
            except _HTTPError as exc:
                status, payload, headers_out = (
                    exc.status, {"error": str(exc)}, exc.headers)
            except RejectedError as exc:
                status, payload = 429, {"error": "server saturated"}
                headers_out = {
                    "Retry-After": f"{max(1, round(exc.retry_after_s))}"}
            except EngineSaturated as exc:
                status, payload = 429, {"error": str(exc)}
                headers_out = {
                    "Retry-After": f"{max(1, round(exc.retry_after_s))}"}
            except (DrainingError, EngineClosed):
                status, payload = 503, {"error": "server is draining"}
                headers_out = {"Retry-After": "5"}
            except asyncio.TimeoutError:
                self._m_timeouts.inc()
                status, payload = 504, {
                    "error": f"request exceeded "
                             f"{self.request_timeout_s:g}s timeout"}
                headers_out = {}
            except Exception as exc:   # never kill the server loop
                status, payload = 500, {
                    "error": f"internal error: {exc!r}"}
                headers_out = {}
            if status >= 500:
                self._m_errors.inc()
            await self._respond(writer, status, payload, headers_out)
        finally:
            self._m_requests.labels(route=route, code=str(status)).inc()
            self._h_latency.labels(route=route).observe(
                time.perf_counter() - t0)
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Tuple[str, str, Dict[str, str]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HTTPError(413, "headers too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _HTTPError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HTTPError(400, "bad Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HTTPError(413, "body too large")
        if length == 0:
            return b""
        return await reader.readexactly(length)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: object,
                       headers: Optional[Dict[str, str]] = None) -> None:
        if isinstance(payload, str):     # pre-rendered (Prometheus text)
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        else:
            body = (json.dumps(payload, indent=1) + "\n").encode("utf-8")
            content_type = "application/json"
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}; charset=utf-8",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    @staticmethod
    def _route_label(method: str, path: str) -> str:
        if path.startswith("/v1/experiments") and \
                path != "/v1/experiments":
            return f"{method} /v1/experiments/{{name}}"
        return f"{method} {path}"

    # -- routing -------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        query: Dict[str, str], body: bytes
                        ) -> Tuple[int, object, Dict[str, str]]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._healthz(), {}
        if path == "/metrics":
            self._require(method, "GET")
            if query.get("format") == "json":
                return 200, self.metrics.to_dict(), {}
            return 200, self.metrics.render_prometheus(), {}
        if path == "/v1/experiments":
            self._require(method, "GET")
            return 200, self._list_experiments(), {}
        if path.startswith("/v1/experiments/"):
            self._require(method, "GET")
            name = path[len("/v1/experiments/"):]
            return 200, await self._admitted(
                lambda: self._get_experiment(name, query)), {}
        if path == "/v1/points":
            self._require(method, "POST")
            return 200, await self._admitted(
                lambda: self._run_point(body)), {}
        raise _HTTPError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"use {expected}")

    async def _admitted(self, make_coro):
        """Run one unit of admitted work under the request timeout.

        ``make_coro`` is a zero-arg factory so that nothing is started
        (or left un-awaited) when admission itself rejects the request.
        """
        async def gated():
            async with self.admission:
                return await make_coro()
        return await asyncio.wait_for(gated(), self.request_timeout_s)

    @staticmethod
    async def _outcome(ticket: Ticket) -> PointOutcome:
        """Await a ticket without being able to cancel its future.

        The engine future may be shared — by requests that coalesced
        onto the same key, and by sync callers (``repro warm`` against
        a live server).  A request timeout cancels this coroutine; the
        shield makes that *abandon* the future, never cancel it, so
        the other waiters still get their outcome.
        """
        return await asyncio.shield(asyncio.wrap_future(ticket.future))

    # -- handlers ------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self._started_at, 3),
            "experiments": len(registry.EXPERIMENTS),
            "inflight_requests": self.admission.inflight,
            "admission_queue": self.admission.waiting,
            "engine_queue_depth": self.engine.queue_depth,
            "engine_inflight_jobs": self.engine.inflight,
        }

    @staticmethod
    def _list_experiments() -> dict:
        out: List[dict] = []
        for exp_id, exp in registry.EXPERIMENTS.items():
            out.append({
                "id": exp_id,
                "title": exp.title,
                "points_quick": len(exp.points(True)),
                "points_full": len(exp.points(False)),
            })
        return {"experiments": out}

    async def _get_experiment(self, name: str,
                              query: Dict[str, str]) -> dict:
        try:
            registry.get(name)
        except KeyError as exc:
            raise _HTTPError(404, exc.args[0]) from None
        scale = query.get("scale", "quick")
        if scale not in ("quick", "full"):
            raise _HTTPError(400, "scale must be 'quick' or 'full'")
        quick = scale == "quick"
        t0 = time.perf_counter()
        jobs = decompose(name, quick=quick)
        tickets = [self.engine.submit(job) for job in jobs]
        outcomes: List[PointOutcome] = list(await asyncio.gather(
            *[self._outcome(t) for t in tickets]))
        bad = [o for o in outcomes if not o.ok]
        if bad:
            raise _HTTPError(500, "; ".join(
                f"{o.job.job_id} {o.status}"
                + (f" ({o.error.strip().splitlines()[-1]})" if o.error
                   else "") for o in bad))
        result = assemble(name, [o.payload for o in outcomes], quick=quick)
        sources = [t.source(o) for t, o in zip(tickets, outcomes)]
        return {
            "experiment": name,
            "scale": scale,
            "jobs": {
                "total": len(jobs),
                "cache": sources.count("cache"),
                "computed": sources.count("computed"),
                "coalesced": sources.count("coalesced"),
            },
            "elapsed_s": round(time.perf_counter() - t0, 6),
            "result": result.to_dict(),
        }

    async def _run_point(self, body: bytes) -> dict:
        try:
            req = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            raise _HTTPError(400, "body must be JSON") from None
        if not isinstance(req, dict):
            raise _HTTPError(400, "body must be a JSON object")
        exp_id = req.get("exp_id")
        if not isinstance(exp_id, str):
            raise _HTTPError(400, "exp_id must be a string")
        try:
            registry.get(exp_id)
        except KeyError as exc:
            raise _HTTPError(404, exc.args[0]) from None
        kind = req.get("kind", KIND_POINT)
        if kind != KIND_POINT:
            raise _HTTPError(400, f"kind must be {KIND_POINT!r}")
        config = req.get("config", {})
        if not isinstance(config, dict):
            raise _HTTPError(400, "config must be a JSON object")
        job = JobSpec(job_id=f"{exp_id}#serve", exp_id=exp_id,
                      kind=kind, config=config)
        ticket = self.engine.submit(job)
        outcome: PointOutcome = await self._outcome(ticket)
        if not outcome.ok:
            raise _HTTPError(500, f"job {outcome.status}: "
                                  f"{(outcome.error or '').strip()[-2000:]}")
        return {
            "exp_id": exp_id,
            "kind": kind,
            "key": job.key,
            "source": ticket.source(outcome),
            "elapsed_s": round(outcome.elapsed_s, 6),
            "payload": outcome.payload,
        }


class ServerThread:
    """Run a :class:`ServeApp` on a background thread (tests, benchmarks).

    ::

        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url)
    """

    def __init__(self, app: Optional[ServeApp] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.app = app if app is not None else ServeApp()
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot():
            await self.app.start(self.host, self._requested_port)
            self.port = self.app.port

        try:
            loop.run_until_complete(boot())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, timeout: float = 15.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return

        async def teardown():
            await self.app.shutdown()
            asyncio.get_running_loop().stop()

        asyncio.run_coroutine_threadsafe(teardown(), loop)
        thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
