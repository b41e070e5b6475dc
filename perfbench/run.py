"""Layered end-to-end benchmark of the repro simulator, runner and server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-independent --seed 1 \\
        --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):

``sim-independent``  fig2-fig5 quick plus seed-drawn SCF/FFT points;
``btio-collective``  fig6, fig7 and table4 quick plus seed-drawn BTIO
                     points;
``serve-mix``        ``repro serve --jobs 2`` under open-loop load.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` a separate,
instrumented run reports every per-layer metric instead.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

from measure import (ROOT, WORK_DIR, child_env, digest, load_digests,
                     percentile)

SIM_WORKLOADS = ("sim-independent", "btio-collective")
WORKLOADS = SIM_WORKLOADS + ("serve-mix",)

#: Cold passes per simulator run, at least; more while time allows.
MIN_PASSES = 2
#: Warm re-runs of the workload's figures after each cold pass; they are
#: checked for correctness and timed only in the traced run.
HIT_REQUESTS = 100
#: Warm re-runs in the traced run's plain pass (a p99 needs 1000).
TAIL_HIT_REQUESTS = 1000
#: Import-only processes timed for set-up after each pass.
READY_PER_PASS = 2
#: serve-mix alternates this many open-loop segments with closed-loop
#: bursts; a fresh server is booted (and stopped) after each but the last.
SEGMENTS = 5
#: Share of the measured seconds spent in closed-loop hit bursts.
CLOSED_SHARE = 0.2
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong program output)."""


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- simulator workloads ----------------------------------------------------

class PassRunner:
    """Runs ``simpass.py`` children and times their set-up."""

    def __init__(self, work: Path, tmp: Path):
        self.work = work
        self.tmp = tmp
        self.setup_s: List[float] = []
        self.caches = 0

    def fresh_cache(self) -> Path:
        self.caches += 1
        return self.work / f"cache-{self.caches}"

    def __call__(self, mode: str, *args: str) -> dict:
        cmd = [sys.executable, str(Path(__file__).with_name("simpass.py")),
               mode, *args]
        launched = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(self.tmp), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"simpass {mode} exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_s.append(out["ready_at"] - launched)
        return out


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, tmp: Path) -> dict:
    child = PassRunner(work, tmp)
    pass_args = ["--workload", workload, "--seed", str(seed)]

    def one_pass(requests: int, *extra: str) -> dict:
        out = child("pass", *pass_args, "--cache", str(child.fresh_cache()),
                    "--requests", str(requests), *extra)
        for _ in range(READY_PER_PASS):   # set-up sampled across the run
            child("ready")
        return out

    child("ready")
    if trace:
        traces = trace_dir(workload, seed)
        plain = one_pass(TAIL_HIT_REQUESTS)
        traced = one_pass(200, "--trace-out", str(traces / "pass.json"))
        passes = [plain, traced]
    else:
        passes = []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - started
                + (time.perf_counter() - started) / len(passes) <= seconds):
            passes.append(one_pass(HIT_REQUESTS))
    failures = [f for p in passes for f in p["failures"]]
    result = {"attempted": sum(p["attempted"] for p in passes),
              "failures": failures}
    if not trace:
        result["metrics"] = {
            "cold_s": statistics.median(p["cold_s"] for p in passes),
            "setup_s": statistics.median(child.setup_s),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        return result
    hits, misses = plain["hit_s"], plain["miss_s"]
    result["metrics"] = dict(traced["layers"], **{
        "bench.trace_overhead_ratio": traced["cold_s"] / plain["cold_s"],
        "hit_p50_ms": ms(statistics.median(hits)),
        "hit_p50_ms": ms(statistics.median(hits)),
        "hit_p99_ms": ms(percentile(hits, 0.99)),
        "hit_capacity_rps": len(hits) / sum(hits),
        "miss_p50_ms": ms(statistics.median(misses)),
        "samples.hit": len(hits), "samples.miss": len(misses),
    })
    return result


def trace_dir(workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans (kept after the run)."""
    path = WORK_DIR / "traces" / f"{workload}-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- serve-mix --------------------------------------------------------------

def run_serve(seed: int, seconds: float, trace: bool, work: Path,
              tmp: Path) -> dict:
    from repro.runner.jobs import decompose
    from repro.runner.store import ResultStore

    import serveload as sl

    hot = [(job.job_id, job.exp_id, dict(job.config))
           for exp_id in sl.HOT_EXPERIMENTS
           for job in decompose(exp_id, quick=True)]
    digests = load_digests()
    closed_s = seconds * CLOSED_SHARE / SEGMENTS
    open_s = (seconds - closed_s * SEGMENTS) / SEGMENTS
    requests = sl.schedule(seed, hot, open_s * SEGMENTS)
    hot_requests = [r for r in requests if r.kind == "hit"]
    failures: List[str] = []
    setup_s: List[float] = []
    cold_s: List[float] = []
    caches = itertools.count()

    def boot(traces: Path = None):
        """Launch a server on a fresh cache and warm the hot set."""
        cache = work / f"serve-cache-{next(caches)}"
        server = sl.Server(cache, tmp, trace_dir=traces)
        try:
            server.wait_ready()
            warm_start = time.perf_counter()
            warmed = sl.run_schedule(
                [sl.Request(0.0, "warm", exp_id, config, hot_id=job_id)
                 for job_id, exp_id, config in hot], server.post_point)
        except BaseException:
            server.stop()
            raise
        done = time.perf_counter()
        setup_s.append(done - server.launched)
        cold_s.append(done - warm_start)
        payloads = {}
        for s in warmed:
            payload = s.body.get("payload") if s.body else None
            if s.status != 200 or s.body.get("source") != "computed" \
                    or digest(payload) != digests[s.request.hot_id]:
                failures.append(f"warm {s.request.hot_id}: status "
                                f"{s.status}, wrong or uncomputed payload")
            payloads[s.request.hot_id] = payload
        return server, cache, payloads

    def extra_boot() -> None:
        boot()[0].stop()

    def segment(k: int) -> List[sl.Request]:
        lo, hi = k * open_s, (k + 1) * open_s
        return [dataclasses.replace(r, due=r.due - lo)
                for r in requests if lo <= r.due < hi]

    def check(samples: List[sl.Sample], payloads: Dict[str, dict]) -> None:
        for s in samples:
            why = sl.check_sample(s, payloads)
            if why:
                failures.append(why)
        failures.extend(sl.check_pairs(samples))

    server, cache, warm_payloads = boot()
    opened: List[sl.Sample] = []
    closed: List[sl.Sample] = []
    closed_wall = 0.0
    try:
        # Segments of open-loop load alternate with closed-loop bursts
        # and extra server boots, so every metric samples the whole run.
        for k in range(SEGMENTS):
            opened += sl.run_schedule(segment(k), server.post_point)
            burst = sl.run_closed_loop(lambda rng: rng.choice(hot_requests),
                                       server.post_point, seed * SEGMENTS + k,
                                       closed_s)
            closed += burst
            closed_wall += (max(s.done for s in burst)
                            - min(s.sent for s in burst))
            server.check_alive()
            if k < SEGMENTS - 1:
                extra_boot()
        status, served_metrics = server.request("GET",
                                                "/metrics?format=json")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    check(opened + closed, warm_payloads)
    result = {"failures": failures}
    if not trace:
        result["attempted"] = len(hot) * len(cold_s) + len(opened) \
            + len(closed)
        result["metrics"] = {
            "cold_s": statistics.median(cold_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss_mb,
        }
        return result

    # The traced server replays only the first segment: its profiled
    # workers cannot keep up with the whole schedule, so every latency
    # below comes from the plain server above.
    traces = trace_dir("serve-mix", seed)
    plain_cold_s = statistics.median(cold_s)
    traced_server, _, traced_payloads = boot(traces)
    try:
        traced = sl.run_schedule(segment(0), traced_server.post_point)
    finally:
        traced_server.stop()
    check(traced, traced_payloads)
    result["attempted"] = len(hot) * len(cold_s) + len(opened) \
        + len(closed) + len(traced)

    import layers
    with open(traces / "server.json", encoding="utf-8") as fh:
        server_trace = json.load(fh)
    counters: Dict[str, float] = dict(server_trace["counters"])
    layer_s: Dict[str, float] = dict(server_trace["layer_s"])
    spans = list(server_trace["spans"])
    for record in layers.read_worker_records(traces):
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in record["layer_s"].items():
            layer_s[name] = layer_s.get(name, 0) + value
        spans += record["spans"]
    metrics = layers.simulation_metrics(counters, spans, layer_s)

    def by_source(samples: List[sl.Sample], source: str) -> List[sl.Sample]:
        return [s for s in samples
                if s.status == 200 and s.body["source"] == source]

    hits = [s.latency for s in by_source(opened, "cache")]
    computed = by_source(opened, "computed")
    misses = [s.latency for s in computed]
    coalesced = [s.latency for s in by_source(opened, "coalesced")]
    store = ResultStore(cache)
    worker_s = [store.get(s.body["key"])["elapsed_s"] for s in computed]
    submits = [sp for sp in spans if sp[1] == "serve.submit"]
    pairs = {s.request.pair for s in opened if s.request.pair is not None}
    metrics.update({
        "runner.executor.compute_ms": ms(statistics.median(worker_s)),
        "runner.executor.overhead_ms": ms(statistics.median(
            s.body["elapsed_s"] - w for s, w in zip(computed, worker_s))),
        "serve.cache_hits": served_metrics.get("serve_cache_hits_total", 0),
        "serve.cache_misses":
            served_metrics.get("serve_cache_misses_total", 0),
        "serve.jobs": served_metrics.get("serve_jobs_total", 0),
        "serve.rejected": served_metrics.get("serve_rejected_total", 0),
        "serve.errors": served_metrics.get("serve_errors_total", 0),
        "serve.coalesce_ratio": len(coalesced) / len(pairs),
        "serve.duplicates_sent": len(pairs),
        "serve.submit_us": statistics.median(
            sp[3] - sp[2] for sp in submits) * 1e6,
        "serve.http_us": http_us(by_source(traced, "cache"), submits),
        "gen.late_p99_ms": ms(percentile([s.late for s in opened], 0.99)),
        "bench.trace_overhead_ratio": cold_s[-1] / plain_cold_s,
        "hit_p50_ms": ms(statistics.median(hits)),
        "hit_p99_ms": ms(percentile(hits, 0.99)),
        "hit_capacity_rps":
            sum(s.status == 200 for s in closed) / closed_wall,
        "miss_p50_ms": ms(statistics.median(misses)),
        "miss_p90_ms": ms(percentile(misses, 0.9)),
        "coalesced_p50_ms": ms(statistics.median(coalesced)),
        "samples.hit": len(hits), "samples.miss": len(misses),
        "samples.coalesced": len(coalesced),
    })
    result["metrics"] = metrics
    return result


def http_us(hits: Sequence, submits: Sequence[list]) -> float:
    """Median client latency minus ``ServeEngine.submit`` time for hits.

    A request and its server span share the job key; among spans of that
    key, the one inside the request's send..done window is its own.
    """
    by_key: Dict[str, List[list]] = {}
    for sp in submits:
        by_key.setdefault(sp[5], []).append(sp)
    rest = []
    for s in hits:
        for sp in by_key.get(s.body["key"], []):
            if s.sent <= sp[2] and sp[3] <= s.done:
                rest.append((s.done - s.sent) - (sp[3] - sp[2]))
                break
    return statistics.median(rest) * 1e6 if rest else 0.0


# -- entry point ------------------------------------------------------------

def metric_units(trace: bool) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    units = metric_units(bool(args.trace))

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    tmp = work / "tmp"
    tmp.mkdir()
    tempfile.tempdir = str(tmp)
    try:
        if args.workload in SIM_WORKLOADS:
            result = run_sim(args.workload, args.seed, args.seconds,
                             bool(args.trace), work, tmp)
        else:
            result = run_serve(args.seed, args.seconds, bool(args.trace),
                               work, tmp)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"]
    attempted = result["attempted"]
    for line in failures[:50]:
        print(f"WRONG: {line}", file=sys.stderr)
    metrics = dict(result["metrics"])
    if args.trace:
        metrics.setdefault("error_rate", len(failures) / attempted)
        for name in units:          # layers this workload does not use
            metrics.setdefault(name, 0.0)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
