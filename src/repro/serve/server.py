"""Threaded HTTP/JSON front-end for serving experiment results.

Stdlib-only: a small HTTP/1.1 server (one request per connection,
``Connection: close``) that fronts the experiment registry through the
single-flight :class:`~repro.serve.engine.ServeEngine`.  A
:mod:`socketserver` accept thread hands each connection to a handler
thread of its own, which reads the request, takes an admission slot and
waits on the engine's :class:`concurrent.futures.Future` until the
request deadline.

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
timeout → ``504``; a request not fully received within the request
timeout → ``408``; draining → ``503``; a failing job → ``500`` carrying
the job's error text.  Handler threads are capped at the admission
limits plus :data:`CONNECTION_HEADROOM`; a connection over the cap gets
``429`` from the accept thread.  Shutdown is graceful: admission
drains, the engine finishes queued jobs, then the listener closes.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Dict, List, Optional, Tuple
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

__all__ = ["CONNECTION_HEADROOM", "ServeApp", "ServerThread"]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 1024 * 1024

#: Handler threads allowed beyond the admission limits, so ``/healthz``
#: and ``/metrics`` still answer while every admission slot is taken.
CONNECTION_HEADROOM = 4

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


def _close(sock: socket.socket) -> None:
    """End the connection even if a pool worker forked while it was open
    holds a copy of the descriptor (``close`` alone would not send FIN)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class _Listener(socketserver.TCPServer):
    """The accept loop: each accepted socket goes to ``ServeApp._accept``."""

    allow_reuse_address = True
    request_queue_size = 100

    def __init__(self, app: "ServeApp", host: str, port: int):
        self.app = app
        if ":" in host:
            self.address_family = socket.AF_INET6
        super().__init__((host, port), None)

    def process_request(self, request, client_address) -> None:
        self.app._accept(request)


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
        #: Handler threads at most: every admission slot and queue
        #: place, plus the headroom for probes.
        self.max_connections = (self.admission.max_inflight
                                + self.admission.max_queue
                                + CONNECTION_HEADROOM)
        self._connections = 0
        self._conn_lock = threading.Lock()
        self._listener: Optional[_Listener] = None
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

    def start(self, host: str = "127.0.0.1", port: int = 0) -> "ServeApp":
        """Bind the listener and start the accept thread."""
        self._listener = _Listener(self, host, port)
        threading.Thread(target=self._listener.serve_forever, daemon=True,
                         name="repro-serve-accept").start()
        return self

    @property
    def port(self) -> int:
        assert self._listener is not None, "app not started"
        return self._listener.server_address[1]

    def shutdown(self) -> None:
        """Graceful: stop admitting, drain, close engine and listener."""
        self.admission.begin_drain()
        self.admission.wait_drained(self.drain_timeout_s)
        self.engine.close()
        if self._listener is not None:
            self._listener.shutdown()
            self._listener.server_close()

    # -- HTTP plumbing -------------------------------------------------

    def _accept(self, sock: socket.socket) -> None:
        """On the accept thread: start a handler, or refuse over the cap."""
        with self._conn_lock:
            admit = self._connections < self.max_connections
            if admit:
                self._connections += 1
        if admit:
            threading.Thread(target=self._handle, args=(sock,),
                             daemon=True).start()
            return
        self._m_requests.labels(route="?", code="429").inc()
        try:
            sock.setblocking(False)
            sock.recv(_MAX_HEADER_BYTES)   # whatever already arrived
        except OSError:                    # nothing yet
            pass
        self._respond(sock, 429, {"error": "too many connections"},
                      self._retry_after(self.admission.retry_after_s))
        _close(sock)

    def _handle(self, sock: socket.socket) -> None:
        """One connection, on its own thread: read, dispatch, answer."""
        route = "?"
        status = 500
        t0 = time.perf_counter()
        try:
            try:
                method, target, body = self._read_request(
                    sock, time.monotonic() + self.request_timeout_s)
            except _HTTPError as exc:
                status = exc.status
                self._respond(sock, status, {"error": str(exc)}, exc.headers)
                return
            except OSError:
                return   # client hung up mid-request
            url = urlsplit(target)
            path = url.path
            query = {k: v[-1] for k, v in parse_qs(url.query).items()}
            route = self._route_label(method, path)
            try:
                status, payload, headers_out = self._dispatch(
                    method, path, query, body)
            except _HTTPError as exc:
                status, payload, headers_out = (
                    exc.status, {"error": str(exc)}, exc.headers)
            except RejectedError as exc:
                status, payload = 429, {"error": "server saturated"}
                headers_out = self._retry_after(exc.retry_after_s)
            except EngineSaturated as exc:
                status, payload = 429, {"error": str(exc)}
                headers_out = self._retry_after(exc.retry_after_s)
            except (DrainingError, EngineClosed):
                status, payload = 503, {"error": "server is draining"}
                headers_out = {"Retry-After": "5"}
            except (TimeoutError, FutureTimeout):
                self._m_timeouts.inc()
                status, payload = 504, {
                    "error": f"request exceeded "
                             f"{self.request_timeout_s:g}s timeout"}
                headers_out = {}
            except Exception as exc:   # never kill the handler thread
                status, payload = 500, {
                    "error": f"internal error: {exc!r}"}
                headers_out = {}
            if status >= 500:
                self._m_errors.inc()
            self._respond(sock, status, payload, headers_out)
        finally:
            self._m_requests.labels(route=route, code=str(status)).inc()
            self._h_latency.labels(route=route).observe(
                time.perf_counter() - t0)
            _close(sock)
            with self._conn_lock:
                self._connections -= 1

    @staticmethod
    def _recv(sock: socket.socket, deadline: float) -> bytes:
        """One ``recv`` bounded by the read deadline (408 when it passes)."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise _HTTPError(408, "request not received in time")
        sock.settimeout(remaining)
        try:
            chunk = sock.recv(64 * 1024)
        except socket.timeout:
            raise _HTTPError(408, "request not received in time") from None
        if not chunk:
            raise ConnectionError("client closed mid-request")
        return chunk

    def _read_request(self, sock: socket.socket, deadline: float
                      ) -> Tuple[str, str, bytes]:
        """Read the head and body before ``deadline``: (method, target,
        body)."""
        buf = b""
        end = -1
        while end < 0:
            if len(buf) > _MAX_HEADER_BYTES:
                raise _HTTPError(413, "headers too large")
            seen = len(buf)
            buf += self._recv(sock, deadline)
            end = buf.find(b"\r\n\r\n", max(0, seen - 3))
        if end + 4 > _MAX_HEADER_BYTES:
            raise _HTTPError(413, "headers too large")
        lines = buf[:end].decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HTTPError(400, "bad Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HTTPError(413, "body too large")
        body = buf[end + 4:]
        while len(body) < length:
            body += self._recv(sock, deadline)
        return method.upper(), target, body[:length]

    def _respond(self, sock: socket.socket, status: int, payload: object,
                 headers: Optional[Dict[str, str]] = None) -> None:
        """Write one response; a client that stops reading times out."""
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
        try:
            sock.settimeout(self.request_timeout_s)
            sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                         + body)
        except OSError:
            pass

    @staticmethod
    def _retry_after(seconds: float) -> Dict[str, str]:
        return {"Retry-After": f"{max(1, round(seconds))}"}

    @staticmethod
    def _route_label(method: str, path: str) -> str:
        if path.startswith("/v1/experiments") and \
                path != "/v1/experiments":
            return f"{method} /v1/experiments/{{name}}"
        return f"{method} {path}"

    # -- routing -------------------------------------------------------

    def _dispatch(self, method: str, path: str,
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
            return 200, self._admitted(self._get_experiment, name,
                                       query), {}
        if path == "/v1/points":
            self._require(method, "POST")
            return 200, self._admitted(self._run_point, body), {}
        raise _HTTPError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"use {expected}")

    def _admitted(self, work: Callable[..., dict], *args) -> dict:
        """Run ``work(*args, deadline)`` under admission.

        One deadline, ``request_timeout_s`` from now, covers both the
        admission wait and the work; :class:`TimeoutError` (504) when it
        passes.
        """
        deadline = time.monotonic() + self.request_timeout_s
        self.admission.acquire(self.request_timeout_s)
        try:
            return work(*args, deadline)
        finally:
            self.admission.release()

    @staticmethod
    def _outcome(ticket: Ticket, deadline: float) -> PointOutcome:
        """Wait for a ticket until ``deadline`` without cancelling it.

        The engine future may be shared — by requests that coalesced
        onto the same key, and by sync callers (``repro warm`` against
        a live server).  ``Future.result(timeout)`` gives up on the
        future when the deadline passes and leaves it running, so the
        other waiters still get their outcome.
        """
        return ticket.result(max(0.0, deadline - time.monotonic()))

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

    def _get_experiment(self, name: str, query: Dict[str, str],
                        deadline: float) -> dict:
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
        outcomes = [self._outcome(t, deadline) for t in tickets]
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

    def _run_point(self, body: bytes, deadline: float) -> dict:
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
        outcome = self._outcome(ticket, deadline)
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
    """Run a :class:`ServeApp` in the background (tests, benchmarks).

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

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServerThread":
        self.port = self.app.start(self.host, self._requested_port).port
        return self

    def stop(self) -> None:
        if self.port is not None:
            self.port = None
            self.app.shutdown()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
