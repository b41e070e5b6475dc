"""The threaded front-end's bounds: read deadlines, the connection cap,
hits served beside a slow miss, and the CLI server's exit on a signal.

Each test runs a server on an ephemeral port with a handful of handler
threads at most.
"""

import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.serve import (AdmissionController, MetricsRegistry, ServeApp,
                         ServeClient, ServeEngine, ServerThread)
from repro.serve.server import CONNECTION_HEADROOM
from tests.conftest import register_experiment


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _read_all(sock):
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except ConnectionError:
        pass
    return b"".join(chunks)


def _gated(monkeypatch, exp_id, slow_i):
    """A toy experiment whose point ``slow_i`` blocks on the returned
    gate; every other point computes at once."""
    gate = threading.Event()

    def run_point(point):
        if point["i"] == slow_i:
            assert gate.wait(15)
        return {**point, "y": 1.0}

    register_experiment(monkeypatch, exp_id, run_point=run_point)
    return gate


class TestReadDeadline:
    def test_silent_client_gets_408_while_hits_are_served(self,
                                                          monkeypatch):
        register_experiment(monkeypatch, "zz_408")
        app = ServeApp(request_timeout_s=1.0)
        with ServerThread(app) as srv:
            client = ServeClient(srv.base_url, timeout_s=30.0)
            assert client.run_point("zz_408", {"i": 0})["source"] \
                == "computed"
            t0 = time.monotonic()
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as silent, \
                    socket.create_connection(("127.0.0.1", srv.port),
                                             timeout=10) as partial:
                partial.sendall(b"POST /v1/points HTTP/1.1\r\n")
                hit = client.run_point("zz_408", {"i": 0})
                assert hit["source"] == "cache"
                silent.setblocking(False)
                with pytest.raises(BlockingIOError):   # no answer yet
                    silent.recv(1)
                silent.setblocking(True)
                for sock in (silent, partial):
                    response = _read_all(sock)
                    assert response.startswith(b"HTTP/1.1 408"), response
                    assert b"request not received in time" in response
                assert time.monotonic() - t0 >= 1.0
            assert _wait_until(lambda: app._connections == 0)
            codes = client.metrics()["serve_requests_total"]
            assert codes['{code="408",route="?"}'] == 2

    def test_body_shorter_than_content_length_gets_408(self, monkeypatch):
        register_experiment(monkeypatch, "zz_body")
        with ServerThread(ServeApp(request_timeout_s=0.3)) as srv:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as sock:
                sock.sendall(b"POST /v1/points HTTP/1.1\r\n"
                             b"Content-Length: 100\r\n\r\n{\"exp_id\"")
                assert _read_all(sock).startswith(b"HTTP/1.1 408")


class TestSlowMiss:
    def test_hits_complete_while_a_slow_miss_holds_a_worker(self,
                                                            monkeypatch):
        gate = _gated(monkeypatch, "zz_slow", slow_i=99)
        app = ServeApp(request_timeout_s=30.0)
        try:
            with ServerThread(app) as srv:
                client = ServeClient(srv.base_url, timeout_s=30.0)
                for i in range(3):
                    client.run_point("zz_slow", {"i": i})
                miss = []
                slow = threading.Thread(target=lambda: miss.append(
                    client.run_point("zz_slow", {"i": 99})))
                slow.start()
                assert _wait_until(
                    lambda: client.metrics()["serve_jobs_executing"] == 1)
                for _ in range(2):
                    for i in range(3):
                        hit = client.run_point("zz_slow", {"i": i})
                        assert hit["source"] == "cache"
                assert not miss
                assert client.metrics()["serve_jobs_executing"] == 1
                gate.set()
                slow.join(20)
                assert miss[0]["source"] == "computed"
        finally:
            gate.set()


class TestConnectionCap:
    def test_over_cap_connection_gets_429_from_accept_thread(self,
                                                             monkeypatch):
        gate = _gated(monkeypatch, "zz_cap", slow_i=0)
        metrics = MetricsRegistry()
        app = ServeApp(
            engine=ServeEngine(metrics=metrics),
            admission=AdmissionController(max_inflight=1, max_queue=0,
                                          retry_after_s=3.0,
                                          metrics=metrics),
            metrics=metrics, request_timeout_s=20.0)
        assert app.max_connections == 1 + CONNECTION_HEADROOM
        silent = []
        try:
            with ServerThread(app) as srv:
                client = ServeClient(srv.base_url, timeout_s=30.0)
                held = threading.Thread(
                    target=lambda: client.run_point("zz_cap", {"i": 0}))
                held.start()
                assert _wait_until(lambda: app.admission.inflight == 1)

                def open_silent():
                    silent.append(socket.create_connection(
                        ("127.0.0.1", srv.port), timeout=10))
                    assert _wait_until(
                        lambda: app._connections == 1 + len(silent))

                for _ in range(CONNECTION_HEADROOM - 1):
                    open_silent()
                # The admission slot is held: /healthz answers on the
                # last thread of the headroom.
                assert client.healthz()["inflight_requests"] == 1
                assert _wait_until(
                    lambda: app._connections == CONNECTION_HEADROOM)
                open_silent()
                threads = threading.active_count()
                with socket.create_connection(("127.0.0.1", srv.port),
                                              timeout=10) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                    response = _read_all(sock)
                assert response.startswith(b"HTTP/1.1 429"), response
                assert b"Retry-After: 3\r\n" in response
                assert threading.active_count() <= threads
                assert app._connections == app.max_connections
                for sock in silent:
                    sock.close()
                assert _wait_until(lambda: app._connections == 1)
                codes = client.metrics()["serve_requests_total"]
                assert codes['{code="429",route="?"}'] == 1
                gate.set()
                held.join(20)
        finally:
            gate.set()
            for sock in silent:
                sock.close()


@pytest.mark.parametrize("signal_name", ["SIGINT", "SIGTERM"])
def test_cli_server_drains_and_stops_on_signal(tmp_path, signal_name):
    """``repro serve`` answers, then on SIGINT or SIGTERM prints
    ``server stopped`` and exits 0."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(tmp_path / "cache")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        line = proc.stderr.readline()
        assert "listening on http://" in line, line
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        assert ServeClient(f"http://127.0.0.1:{port}",
                           timeout_s=10).healthz()["status"] == "ok"
        proc.send_signal(getattr(signal, signal_name))
        assert proc.wait(20) == 0
        assert proc.stderr.read().strip().endswith("server stopped")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
