"""One simulator pass in a fresh process, as ``repro run --quick`` would run.

Each pass is its own process because every user command starts cold:
module imports, memo tables and the allocator all start empty.  Modes:

``ready``
    import the runner and the experiment registry, report when ready;
``pass``
    regenerate the workload's figures plus its seed-drawn points into an
    empty cache with ``run_experiments(..., jobs=1)``, then re-run the
    figures from the now warm cache, one request after the other.

The last line of standard output is one JSON object.  Every mode
reports ``ready_at``, the :func:`time.perf_counter` reading once imports
and the registry were ready, so the parent can time set-up.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import registry  # noqa: E402
from repro.runner.executor import JobOutcome, PoolExecutor  # noqa: E402
from repro.runner.jobs import KIND_POINT, JobSpec  # noqa: E402
from repro.runner.service import run_experiments  # noqa: E402
from repro.runner.store import ResultStore  # noqa: E402

registry.experiment_ids()
READY_AT = time.perf_counter()

from measure import (Tracer, digest, load_digests,  # noqa: E402
                     self_peak_rss_mb, well_formed)

#: The figures each simulator workload regenerates.
WORKLOADS: Dict[str, Sequence[str]] = {
    "sim-independent": ("fig2", "fig3", "fig4", "fig5"),
    "btio-collective": ("fig6", "fig7", "table4"),
}

#: SCF problem size the quick figures use (``SCF11_INPUTS["MEDIUM"]``).
_SCF_BASIS = 140


def seed_points(workload: str, seed: int) -> List[dict]:
    """Seed-drawn points beside the fixed figures, as ``{exp_id, config}``.

    Each family draws processor, I/O-node (hence stripe) counts the quick
    figures do not use, so the cache never already holds them.  Every
    seed draws the same number of points of each family, keeping a
    pass's size steady across seeds.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sim-independent":
        return [
            {"exp_id": "fig2", "config": {
                "label": "seed", "n_basis": _SCF_BASIS,
                "measured_read_iters": 1,
                "version": rng.choice(["original", "prefetch"]),
                "n_io": rng.choice([12, 16, 64]), "p": rng.choice([8, 32])}},
            {"exp_id": "fig3", "config": {
                "n_basis": _SCF_BASIS, "measured_read_iters": 1,
                "n_io": rng.choice([12, 16, 64]),
                "p": rng.choice([8, 16, 32])}},
            {"exp_id": "fig4", "config": {
                "measured_read_iters": 1, "n_io": rng.choice([12, 16, 64]),
                "p": rng.choice([4, 8, 32]),
                "cached_fraction": round(rng.uniform(0.1, 0.9), 3)}},
            {"exp_id": "fig5", "config": {
                "label": "seed", "n": 1024,
                "panel_memory_bytes": 512 * 1024,
                "version": rng.choice(["unoptimized", "layout"]),
                "n_io": rng.choice([2, 4]), "p": 2}},
        ]
    if workload == "btio-collective":
        p_unopt, p_coll = rng.sample([9, 25], 2)
        return [
            {"exp_id": "fig6", "config": {
                "class": "A", "version": version, "label": "seed",
                "p": p, "dumps": 1}}
            for version, p in (("unoptimized", p_unopt),
                               ("collective", p_coll))]
    raise KeyError(f"unknown simulator workload {workload!r}")


def check_fixed(outcomes: Sequence[JobOutcome],
                digests: Dict[str, str]) -> List[str]:
    """Mismatches between fixed-point payloads and recorded digests."""
    return [f"{o.job.job_id}: payload digest differs from the seed commit"
            for o in outcomes
            if not o.ok or digest(o.payload) != digests.get(o.job.job_id)]


def check_report(report, cached: bool) -> List[str]:
    bad = [f"{exp}: {err}" for exp, err in report.errors.items()]
    for exp_id, result in report.results.items():
        bad += [f"{exp_id}: check failed: {name}"
                for name, ok in result.checks.items() if not ok]
    if cached and report.jobs_cached != report.jobs_total:
        bad.append(f"{','.join(report.exp_ids)}: "
                   f"{report.jobs_total - report.jobs_cached} job(s) "
                   f"missed a warm cache")
    return bad


def run_pass(workload: str, seed: int, cache: Path, requests: int,
             trace_out: Path = None) -> dict:
    """One cold pass, then ``requests`` warm re-runs of the same figures.

    With ``trace_out`` the layer probe and a profiler watch the whole
    pass and the spans are written there.
    """
    jobs = [JobSpec(job_id=f"{p['exp_id']}#seed{i}", exp_id=p["exp_id"],
                    kind=KIND_POINT, config=p["config"])
            for i, p in enumerate(seed_points(workload, seed))]
    figures = WORKLOADS[workload]
    store = ResultStore(cache)
    digests = load_digests()

    def put(out: JobOutcome) -> None:
        if out.ok:
            store.put(out.job.key, out.payload, exp_id=out.job.exp_id,
                      job_id=out.job.job_id, kind=out.job.kind,
                      config=dict(out.job.config), elapsed_s=out.elapsed_s)

    if trace_out is not None:
        import layers
        tracer = Tracer()
        probe = layers.LayerProbe(tracer).install()
        profile = cProfile.Profile()
        profile.enable()
    t0 = time.perf_counter()
    report = run_experiments(figures, quick=True, jobs=1, store=store)
    seeded = PoolExecutor(jobs=1).run(jobs, on_outcome=put)
    cold_end = time.perf_counter()
    cold_s = cold_end - t0
    if trace_out is not None:
        profile.disable()
        probe.harvest()
    failures = check_report(report, cached=False)
    failures += check_fixed(report.outcomes, digests)
    failures += [f"{o.job.job_id}: malformed payload" for o in seeded
                 if not o.ok or not well_formed(o.job.exp_id,
                                                dict(o.job.config),
                                                o.payload)]
    outcomes = list(report.outcomes) + seeded

    hits: List[float] = []
    for _ in range(requests):
        t0 = time.perf_counter()
        warm = run_experiments(figures, quick=True, jobs=1, store=store)
        hits.append(time.perf_counter() - t0)
        failures += check_report(warm, cached=True)
        failures += check_fixed(warm.outcomes, digests)

    result = {"cold_s": cold_s, "attempted": len(outcomes) + requests,
              "failures": failures,
              "miss_s": [o.elapsed_s for o in outcomes if not o.cached],
              "hit_s": hits, "rss_mb": self_peak_rss_mb()}
    if trace_out is not None:
        tracer.restore()
        tracer.dump(trace_out)
        cold_spans = [s for s in tracer.spans if s[3] <= cold_end]
        metrics = layers.simulation_metrics(
            tracer.counters, cold_spans, layers.layer_times(profile))
        # Inline jobs run inside PoolExecutor.run: the difference is the
        # executor's own bookkeeping per job.
        job_s = [s[3] - s[2] for s in cold_spans if s[1] == "runner.job"]
        runs = sum(s[3] - s[2] for s in cold_spans
                   if s[1] == "runner.executor.run")
        metrics["runner.executor.overhead_ms"] = (
            (runs - sum(job_s)) / len(job_s) * 1e3 if job_s else 0.0)
        gets = [s[3] - s[2] for s in tracer.spans
                if s[1] == "runner.store.get" and s[2] > cold_end]
        metrics["runner.store.get_us"] = (
            statistics.median(gets) * 1e6 if gets else 0.0)
        result["layers"] = metrics
    return result


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["ready", "pass"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", type=Path)
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    result = {} if args.mode == "ready" else run_pass(
        args.workload, args.seed, args.cache, args.requests, args.trace_out)
    result["ready_at"] = READY_AT
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
