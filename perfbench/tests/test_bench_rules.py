"""Tests of the benchmark's own rules: percentiles, due-time accounting,
seed determinism of the traffic generators, and the digest gate.

Run with ``python3 -m pytest perfbench/tests``.
"""

import time

import pytest

import measure
import serveload as sl
import simpass


# -- percentile rule --------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert measure.min_samples(0.5) == 20
    assert measure.min_samples(0.9) == 100
    assert measure.min_samples(0.99) == 1000
    samples = list(range(1, 1001))
    assert measure.percentile(samples, 0.99) == 990
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(samples[:999], 0.99)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(19)), 0.5)


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = list(range(100, 0, -1))
    assert measure.percentile(samples, 0.9) == 90
    assert measure.percentile(samples, 0.5) == 50


# -- due-time accounting ----------------------------------------------------

def _requests(n, gap):
    return [sl.Request(i * gap, "hit", "fig4", {}) for i in range(n)]


@pytest.mark.parametrize("threads", [1, 2])
def test_stalled_server_inflates_later_requests(threads):
    stall_s, gap = 0.3, 0.01

    def send(request):
        if request.due == 0.0:
            time.sleep(stall_s)            # every client is stuck here ...
        return 200, {}

    requests = _requests(1, gap) * threads + _requests(20, gap)[1:]
    samples = sl.run_schedule(requests, send, threads=threads)
    later = [s for s in samples if s.request.due > 0]
    # ... so requests due during the stall are charged the wait even
    # though the server answered them at once.
    assert later[0].latency > stall_s - 2 * gap
    assert all(s.late >= 0 for s in later)
    assert max(s.latency for s in later) > 0.2
    assert min(s.done - s.sent for s in later) < 0.05


def test_on_time_requests_are_not_charged():
    samples = sl.run_schedule(_requests(10, 0.02), lambda r: (200, {}))
    assert max(s.latency for s in samples) < 0.015


def test_send_errors_are_recorded_not_raised():
    def send(request):
        raise ConnectionRefusedError("down")

    (sample,) = sl.run_schedule(_requests(1, 0), send)
    assert sample.status == 0 and "down" in sample.error


# -- seed determinism -------------------------------------------------------

HOT = [(f"fig4#{i:03d}", "fig4", {"measured_read_iters": 1, "n_io": 16,
                                   "p": 16, "cached_fraction": i / 10})
       for i in range(10)]


def test_serve_schedule_is_a_function_of_the_seed():
    a = sl.schedule(7, HOT, 5.0)
    assert a == sl.schedule(7, HOT, 5.0)
    assert a != sl.schedule(8, HOT, 5.0)
    assert all(x.due <= y.due for x, y in zip(a, a[1:]))


def test_serve_schedule_mix_and_fresh_configs():
    requests = sl.schedule(3, HOT, 60.0)
    kinds = [r.kind for r in requests]
    assert 0.85 < kinds.count("hit") / len(kinds) < 0.95
    fresh = [r for r in requests if r.kind != "hit"]
    configs = {str(sorted(r.config.items())) for r in fresh}
    pairs = [r for r in fresh if r.kind == "dup"]
    assert len(configs) == len(fresh) - len(pairs) // 2
    assert not configs & {str(sorted(c.items())) for _, _, c in HOT}


@pytest.mark.parametrize("workload", sorted(simpass.WORKLOADS))
def test_sim_seed_points_are_a_function_of_the_seed(workload):
    points = simpass.seed_points(workload, 11)
    assert points == simpass.seed_points(workload, 11)
    assert len(points) == len(simpass.seed_points(workload, 12))
    draws = {str(simpass.seed_points(workload, s)) for s in range(20)}
    assert len(draws) > 1


# -- correctness gate -------------------------------------------------------

def test_digest_gate_catches_a_perturbed_payload():
    from repro.runner.executor import JobOutcome
    from repro.runner.jobs import decompose

    job = decompose("fig4", quick=True)[2]
    payload = job.config | {"exec_time": 123.456}
    digests = {job.job_id: measure.digest(payload)}
    good = JobOutcome(job, "ok", payload=dict(payload))
    assert simpass.check_fixed([good], digests) == []
    perturbed = JobOutcome(job, "ok",
                           payload=payload | {"exec_time": 123.457})
    assert simpass.check_fixed([perturbed], digests)


def test_recorded_digests_cover_every_fixed_point():
    from repro.runner.jobs import decompose_many

    recorded = measure.load_digests()
    figures = [f for w in simpass.WORKLOADS.values() for f in w]
    jobs = decompose_many(figures + list(sl.HOT_EXPERIMENTS), quick=True)
    assert {j.job_id for j in jobs} <= set(recorded)


def test_seed_point_payloads_must_echo_config_and_be_finite():
    config = {"p": 8, "n_io": 16}
    assert measure.well_formed("fig4", config, {**config, "exec_time": 1.5})
    assert not measure.well_formed("fig4", config,
                                   {**config, "p": 9, "exec_time": 1.5})
    assert not measure.well_formed("fig4", config,
                                   {**config, "exec_time": float("nan")})
    assert not measure.well_formed("fig4", config, {**config})


def test_served_hits_must_come_from_cache_and_match_warm_payload():
    request = sl.Request(0.0, "hit", "fig4", {}, hot_id="fig4#000")
    warm = {"fig4#000": {"exec_time": 1.0}}

    def sample(source, payload):
        return sl.Sample(request, 0, 0, 0, 200,
                         {"source": source, "payload": payload})

    assert sl.check_sample(sample("cache", {"exec_time": 1.0}), warm) is None
    assert sl.check_sample(sample("computed", {"exec_time": 1.0}), warm)
    assert sl.check_sample(sample("cache", {"exec_time": 2.0}), warm)


def test_both_halves_of_a_pair_must_match():
    request = sl.Request(0.0, "dup", "fig4", {}, pair=4)
    a = sl.Sample(request, 0, 0, 0, 200, {"payload": {"x": 1.0}})
    b = sl.Sample(request, 0, 0, 0, 200, {"payload": {"x": 2.0}})
    assert sl.check_pairs([a, a]) == []
    assert sl.check_pairs([a, b])


# -- server liveness ----------------------------------------------------------

def test_server_that_dies_during_boot_fails_fast_with_its_stderr(
        tmp_path, monkeypatch):
    def env_without_sources(tmp, cache_dir=None):
        env = measure.child_env(tmp, cache_dir)
        env["PYTHONPATH"] = str(tmp_path)       # no repro package here
        return env

    monkeypatch.setattr(sl, "child_env", env_without_sources)
    started = time.monotonic()
    server = sl.Server(tmp_path / "cache", tmp_path)
    with pytest.raises(sl.ServerDied, match="No module named repro"):
        server.wait_ready()
    server.stop()
    assert time.monotonic() - started < 10
    assert server.proc.poll() is not None
