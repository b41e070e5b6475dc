"""Load benchmark for the ``repro serve`` front-end.

Boots the real HTTP stack (:class:`ServerThread` on an ephemeral port)
against the real ``fig2`` experiment and measures three regimes with
stdlib clients hammering from threads:

- **cold**: every request misses the cache and runs a simulation;
- **hot**: the same requests again — pure cache-hit serving, so the
  reported rate is the overhead of the HTTP + admission + engine path;
- **coalesced burst**: many concurrent requests for one uncached point,
  demonstrating single-flight (one simulation, N responses).

Not part of tier-1; run with ``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import threading

import pytest

from repro.runner import PoolExecutor
from repro.runner.jobs import decompose
from repro.serve import ServeApp, ServeClient, ServeEngine, ServerThread

EXP_ID = "fig2"
CLIENT_THREADS = 4


@pytest.fixture(scope="module")
def serve_stack():
    """One server + its points for the whole module (shared cache)."""
    engine = ServeEngine(executor=PoolExecutor(jobs=CLIENT_THREADS))
    app = ServeApp(engine=engine, request_timeout_s=600.0)
    with ServerThread(app) as srv:
        points = [dict(job.config) for job in decompose(EXP_ID, quick=True)]
        yield srv, points


def _blast(base_url, points, n_threads=CLIENT_THREADS):
    """Fan the point list out over client threads; return all responses."""
    chunks = [points[i::n_threads] for i in range(n_threads)]
    out, errors = [], []

    def worker(chunk):
        client = ServeClient(base_url, timeout_s=600.0)
        try:
            for config in chunk:
                out.append(client.run_point(EXP_ID, config))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return out


def test_serve_cold_then_hot_throughput(benchmark, serve_stack):
    srv, points = serve_stack
    # Cold pass outside the timed region: populate the cache.
    cold = _blast(srv.base_url, points)
    assert all(r["source"] in ("computed", "coalesced") for r in cold)

    responses = benchmark.pedantic(
        lambda: _blast(srv.base_url, points), rounds=3, iterations=1)
    assert len(responses) == len(points)
    assert all(r["source"] == "cache" for r in responses)
    rate = len(points) / benchmark.stats.stats.mean
    benchmark.extra_info["experiment"] = EXP_ID
    benchmark.extra_info["points"] = len(points)
    benchmark.extra_info["client_threads"] = CLIENT_THREADS
    benchmark.extra_info["hot_requests_per_s"] = round(rate, 1)
    print(f"\nhot cache-hit serving: {len(points)} points, "
          f"{CLIENT_THREADS} clients -> {rate:.0f} req/s")


def test_serve_coalesced_burst(benchmark, serve_stack):
    srv, points = serve_stack
    n = 8
    # An uncached variant of a real point: bump the measured iterations
    # so the key differs from everything the cold pass stored.
    config = {**points[0], "measured_read_iters": 2}

    def burst():
        client = ServeClient(srv.base_url, timeout_s=600.0)
        before = client.metrics()["serve_jobs_total"]
        out = _blast(srv.base_url, [config] * n, n_threads=n)
        return out, client.metrics()["serve_jobs_total"] - before

    responses, jobs_run = benchmark.pedantic(burst, rounds=1, iterations=1)
    assert len(responses) == n
    assert jobs_run <= 1, "burst must coalesce onto at most one job"
    payloads = [r["payload"] for r in responses]
    assert all(p == payloads[0] for p in payloads)
    sources = sorted(r["source"] for r in responses)
    assert "cache" not in sources[:0]   # informational; sources vary by
    # arrival: first request computes, stragglers coalesce or cache-hit.
    benchmark.extra_info["burst_size"] = n
    benchmark.extra_info["sources"] = sources
    print(f"\ncoalesced burst of {n}: sources={sources}")
