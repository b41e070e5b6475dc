"""Integration tests: real sockets, client, coalescing, admission.

Each test boots the full serving stack (:class:`ServerThread` on an
ephemeral port) against toy experiments registered into the live
registry, and talks to it with the stdlib
:class:`ServeClient` — the same path the CI smoke job and the
``serve-mix`` benchmark workload use.

The two seeded contract tests required by the serving design:

- ``test_single_flight_coalesces_concurrent_requests``: N concurrent
  requests for the same uncached sweep point produce exactly one
  executor job, N identical payloads, and ``serve_coalesced_total ==
  N-1`` in ``/metrics``.
- ``TestAdmissionOverHTTP``: a saturated server answers 429 with
  ``Retry-After`` and recovers after the backlog drains.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.experiments import registry
from repro.runner.jobs import KIND_POINT, JobSpec
from repro.serve import (AdmissionController, MetricsRegistry, ServeApp,
                         ServeClient, ServeEngine, ServeHTTPError,
                         ServerThread)
from tests.conftest import register_experiment

N_POINTS = 3


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def server(monkeypatch):
    """A started server over a default app; yields (thread, client)."""
    register_experiment(monkeypatch, "zz_http")
    with ServerThread(ServeApp(request_timeout_s=30.0)) as srv:
        yield srv, ServeClient(srv.base_url, timeout_s=30.0)


class TestOpsEndpoints:
    def test_healthz(self, server):
        _, client = server
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["experiments"] == len(registry.EXPERIMENTS)
        assert health["inflight_requests"] == 0
        assert "engine_queue_depth" in health

    def test_metrics_prometheus_and_json(self, server):
        _, client = server
        client.healthz()
        text = client.metrics_text()
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_request_seconds_bucket" in text
        as_json = client.metrics()
        assert "serve_cache_hits_total" in as_json
        json.dumps(as_json)

    def test_unknown_route_404(self, server):
        _, client = server
        with pytest.raises(ServeHTTPError) as exc:
            client.request("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_405(self, server):
        _, client = server
        with pytest.raises(ServeHTTPError) as exc:
            client.request("POST", "/healthz", {})
        assert exc.value.status == 405

    def test_oversized_request_head_413(self, server):
        """A request head over the 32 KiB budget gets an explicit 413,
        not a silently dropped connection.  80 KiB also exceeds the
        *default* 64 KiB StreamReader limit, which used to raise
        LimitOverrunError before the 413 check could run."""
        srv, _ = server
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as sock:
            try:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                             + b"a" * (80 * 1024) + b"\r\n\r\n")
            except ConnectionError:
                pass   # server may already have answered and closed
            chunks = []
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except ConnectionError:
                pass
        response = b"".join(chunks)
        assert response.startswith(b"HTTP/1.1 413")
        assert b"headers too large" in response


class TestExperimentRoutes:
    def test_listing_includes_sweep_shape(self, server):
        _, client = server
        listing = {e["id"]: e for e in client.experiments()}
        assert set(listing["zz_http"]) == {"id", "title", "points_quick",
                                           "points_full"}
        assert listing["zz_http"]["title"] == "toy"
        assert listing["zz_http"]["points_quick"] == N_POINTS
        assert listing["fig2"]["title"].startswith("Figure 2:")
        assert listing["fig2"]["points_quick"] == 12
        # Tables are one-point sweeps at either scale.
        assert listing["table1"]["points_quick"] == 1
        assert listing["table1"]["points_full"] == 1

    def test_get_experiment_computes_then_hits_cache(self, server):
        _, client = server
        first = client.experiment("zz_http", scale="quick")
        assert first["jobs"] == {"total": N_POINTS, "cache": 0,
                                 "computed": N_POINTS, "coalesced": 0}
        assert first["result"]["exp_id"] == "zz_http"
        assert first["result"]["checks"] == {"ok": True}
        assert [r["y"] for r in first["result"]["rows"]] == [0.0, 10.0,
                                                             20.0]
        second = client.experiment("zz_http", scale="quick")
        assert second["jobs"]["cache"] == N_POINTS
        assert second["result"] == first["result"]

    def test_scales_cached_independently(self, server):
        _, client = server
        client.experiment("zz_http", scale="quick")
        full = client.experiment("zz_http", scale="full")
        assert full["jobs"]["computed"] == N_POINTS

    def test_unknown_experiment_404(self, server):
        _, client = server
        with pytest.raises(ServeHTTPError) as exc:
            client.experiment("fig99")
        assert exc.value.status == 404

    def test_bad_scale_400(self, server):
        _, client = server
        with pytest.raises(ServeHTTPError) as exc:
            client.experiment("zz_http", scale="huge")
        assert exc.value.status == 400

    def test_point_miss_then_hit(self, server):
        _, client = server
        config = {"i": 7, "quick": True}
        first = client.run_point("zz_http", config)
        assert first["source"] == "computed"
        assert first["payload"] == {"i": 7, "quick": True, "y": 70.0}
        second = client.run_point("zz_http", config)
        assert second["source"] == "cache"
        assert second["payload"] == first["payload"]
        assert second["key"] == first["key"]

    def test_table_point_returns_table_payload(self, server):
        """A table is a one-point sweep: its point is the whole table,
        under the same key the runner caches it by."""
        from repro.runner.jobs import decompose
        from repro.runner.keys import canonical_json

        _, client = server
        resp = client.request("POST", "/v1/points", {
            "exp_id": "table1", "config": {"quick": True}})
        assert resp["kind"] == KIND_POINT
        (job,) = decompose("table1", quick=True)
        assert resp["key"] == job.key
        assert canonical_json(resp["payload"]) == canonical_json(
            registry.run_experiment("table1", quick=True).to_dict())

    def test_point_validation_errors(self, server):
        _, client = server
        with pytest.raises(ServeHTTPError) as exc:
            client.run_point("fig99", {})
        assert exc.value.status == 404
        with pytest.raises(ServeHTTPError) as exc:
            client.run_point("zz_http", {"i": 0}, kind="experiment")
        assert exc.value.status == 400
        assert "kind must be 'point'" in exc.value.message
        with pytest.raises(ServeHTTPError) as exc:
            client.request("POST", "/v1/points", {"exp_id": 3})
        assert exc.value.status == 400
        with pytest.raises(ServeHTTPError) as exc:
            client.request("POST", "/v1/points", {"exp_id": "zz_http",
                                                  "config": 3})
        assert exc.value.status == 400

    def test_malformed_json_body_400(self, server):
        srv, _ = server
        import urllib.request
        req = urllib.request.Request(
            srv.base_url + "/v1/points", data=b"{nope",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_failing_point_returns_500_with_error(self, monkeypatch):
        def run_point(point):
            raise RuntimeError("sim blew up")

        register_experiment(monkeypatch, "zz_boom", run_point=run_point)
        with ServerThread() as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            with pytest.raises(ServeHTTPError) as exc:
                client.run_point("zz_boom", {"i": 0})
            assert exc.value.status == 500
            assert "sim blew up" in exc.value.message
            assert client.metrics()["serve_errors_total"] >= 1


class TestSingleFlightOverHTTP:
    def test_single_flight_coalesces_concurrent_requests(self,
                                                         monkeypatch):
        """N concurrent requests for one uncached point -> 1 executor
        job, N identical responses, coalesced == N-1 in /metrics."""
        n = 4
        gate = threading.Event()
        calls = []

        def run_point(point):
            calls.append(dict(point))
            assert gate.wait(15)
            return {**point, "y": 1234.5}

        register_experiment(monkeypatch, "zz_sf", run_point=run_point)
        with ServerThread() as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            responses = []
            errors = []

            def post():
                try:
                    responses.append(
                        client.run_point("zz_sf", {"i": 0, "seed": 42}))
                except Exception as exc:  # pragma: no cover - debug aid
                    errors.append(exc)

            threads = [threading.Thread(target=post) for _ in range(n)]
            for t in threads:
                t.start()
            # All n requests are in the server before the job finishes:
            # one is executing, n-1 coalesced onto it.
            assert _wait_until(
                lambda: client.metrics()["serve_coalesced_total"] == n - 1,
                timeout=10)
            gate.set()
            for t in threads:
                t.join(20)
            assert not errors
            assert len(calls) == 1, "coalescing must run exactly one job"
            assert len(responses) == n
            payloads = [r["payload"] for r in responses]
            assert all(p == {"i": 0, "seed": 42, "y": 1234.5}
                       for p in payloads)
            assert sorted(r["source"] for r in responses) == \
                ["coalesced"] * (n - 1) + ["computed"]
            metrics = client.metrics()
            assert metrics["serve_coalesced_total"] == n - 1
            assert metrics["serve_jobs_total"] == 1
            assert metrics["serve_cache_misses_total"] == 1

    def test_coalesced_experiment_requests_share_points(self, monkeypatch):
        """Two concurrent whole-experiment GETs coalesce point-wise."""
        gate = threading.Event()
        calls = []

        def run_point(point):
            calls.append(dict(point))
            assert gate.wait(15)
            return {**point, "y": 0.0}

        register_experiment(monkeypatch, "zz_exp", run_point=run_point)
        app = ServeApp(engine=ServeEngine())
        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            results = []

            def get():
                results.append(client.experiment("zz_exp"))

            threads = [threading.Thread(target=get) for _ in range(2)]
            for t in threads:
                t.start()
            assert _wait_until(
                lambda: client.metrics()["serve_coalesced_total"]
                == N_POINTS, timeout=10)
            gate.set()
            for t in threads:
                t.join(20)
            assert len(calls) == N_POINTS     # each point computed once
            assert results[0]["result"] == results[1]["result"]
            combined = [r["jobs"] for r in results]
            assert sum(j["coalesced"] for j in combined) == N_POINTS
            assert sum(j["computed"] for j in combined) == N_POINTS


class TestAdmissionOverHTTP:
    def test_429_when_saturated_then_recovers_after_drain(self,
                                                          monkeypatch):
        gate = threading.Event()

        def run_point(point):
            assert gate.wait(15)
            return {**point, "y": 0.0}

        register_experiment(monkeypatch, "zz_adm", run_point=run_point)
        metrics = MetricsRegistry()
        app = ServeApp(
            engine=ServeEngine(metrics=metrics),
            admission=AdmissionController(max_inflight=1, max_queue=0,
                                          retry_after_s=2.0,
                                          metrics=metrics),
            metrics=metrics, request_timeout_s=30.0)
        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            responses = []
            first = threading.Thread(
                target=lambda: responses.append(
                    client.run_point("zz_adm", {"i": 0})))
            first.start()
            assert _wait_until(
                lambda: client.metrics()["serve_inflight_requests"] == 1,
                timeout=10)
            # The one admission slot is held -> immediate shed.
            with pytest.raises(ServeHTTPError) as exc:
                client.run_point("zz_adm", {"i": 1})
            assert exc.value.status == 429
            assert exc.value.retry_after_s == 2.0
            assert client.metrics()["serve_rejected_total"] == 1
            # Health endpoint still answers while saturated.
            assert client.healthz()["inflight_requests"] == 1
            gate.set()
            first.join(20)
            assert responses and responses[0]["payload"]["y"] == 0.0
            # Recovered: the same request is now admitted (and cached).
            ok = client.run_point("zz_adm", {"i": 1})
            assert ok["source"] == "computed"
            assert client.metrics()["serve_rejected_total"] == 1

    def test_engine_queue_saturation_maps_to_429(self, monkeypatch):
        gate = threading.Event()

        def run_point(point):
            assert gate.wait(15)
            return {**point}

        register_experiment(monkeypatch, "zz_q", run_point=run_point)
        metrics = MetricsRegistry()
        app = ServeApp(
            engine=ServeEngine(max_queue=1,
                               metrics=metrics),
            admission=AdmissionController(max_inflight=8, max_queue=8,
                                          metrics=metrics),
            metrics=metrics, request_timeout_s=30.0)
        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            threads = []

            def fire(i):
                t = threading.Thread(
                    target=lambda: client.run_point("zz_q", {"i": i}))
                t.start()
                threads.append(t)

            fire(0)   # started by the single executor thread, blocks on gate
            assert _wait_until(
                lambda: client.metrics()["serve_jobs_executing"] == 1,
                timeout=10)
            fire(1)   # fills the one queue slot
            assert _wait_until(
                lambda: client.metrics()["serve_queue_depth"] == 1,
                timeout=10)
            with pytest.raises(ServeHTTPError) as exc:
                client.run_point("zz_q", {"i": 99})
            assert exc.value.status == 429
            gate.set()
            for t in threads:
                t.join(20)

    def test_request_timeout_504(self, monkeypatch):
        gate = threading.Event()

        def run_point(point):
            assert gate.wait(15)
            return {**point}

        register_experiment(monkeypatch, "zz_to", run_point=run_point)
        app = ServeApp(request_timeout_s=0.2)
        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            with pytest.raises(ServeHTTPError) as exc:
                client.run_point("zz_to", {"i": 0})
            assert exc.value.status == 504
            assert client.metrics()["serve_timeouts_total"] == 1
            gate.set()   # let the orphaned job finish before teardown

    def test_timeout_does_not_poison_inflight_job(self, monkeypatch):
        """A 504 must abandon the shared engine future, not cancel it:
        waiters that coalesced onto the same job still complete."""
        gate = threading.Event()
        calls = []

        def run_point(point):
            calls.append(dict(point))
            assert gate.wait(15)
            return {**point, "y": 7.0}

        register_experiment(monkeypatch, "zz_shield", run_point=run_point)
        app = ServeApp(request_timeout_s=0.3)
        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            with pytest.raises(ServeHTTPError) as exc:
                client.run_point("zz_shield", {"i": 0})
            assert exc.value.status == 504
            # A sync caller sharing the engine (`repro warm` against a
            # live server) coalesces onto the still-running job and
            # must get the result, not a CancelledError.
            job = JobSpec(job_id="zz_shield#warm", exp_id="zz_shield",
                          kind=KIND_POINT, config={"i": 0})
            ticket = app.engine.submit(job)
            assert ticket.coalesced
            gate.set()
            out = ticket.result(15)
            assert out.ok and out.payload == {"i": 0, "y": 7.0}
            assert len(calls) == 1
            # The abandoned job's result was cached as usual.
            again = client.run_point("zz_shield", {"i": 0})
            assert again["source"] == "cache"

    def test_experiment_timeout_leaves_point_futures_alive(self,
                                                           monkeypatch):
        """Cancelling the gather in _get_experiment must not cancel the
        per-point engine futures it awaits (they are shared)."""
        gate = threading.Event()

        def run_point(point):
            assert gate.wait(15)
            return {**point, "y": 0.0}

        register_experiment(monkeypatch, "zz_gsh", run_point=run_point)
        app = ServeApp(request_timeout_s=0.3)
        try:
            async def scenario():
                with pytest.raises(asyncio.TimeoutError):
                    await app._admitted(
                        lambda: app._get_experiment("zz_gsh", {}))
                futures = list(app.engine._inflight.values())
                assert len(futures) == N_POINTS
                assert not any(f.cancelled() for f in futures)
                gate.set()
                outs = [await asyncio.wrap_future(f) for f in futures]
                assert all(o.ok for o in outs)

            asyncio.run(scenario())
        finally:
            gate.set()
            app.engine.close()

    def test_draining_server_returns_503(self, server):
        srv, client = server
        srv.app.admission.begin_drain()
        assert client.healthz()["status"] == "draining"
        with pytest.raises(ServeHTTPError) as exc:
            client.run_point("zz_http", {"i": 0})
        assert exc.value.status == 503


class TestRequestMetrics:
    def test_per_route_counters_and_latency(self, server):
        _, client = server
        client.healthz()
        client.run_point("zz_http", {"i": 1})
        metrics = client.metrics()
        requests = metrics["serve_requests_total"]
        assert requests['{code="200",route="GET /healthz"}'] >= 1
        assert requests['{code="200",route="POST /v1/points"}'] == 1
        latency = metrics["serve_request_seconds"]
        assert latency['{route="POST /v1/points"}']["count"] == 1
