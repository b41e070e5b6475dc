"""Orchestration: cache lookup → parallel execution → assembly.

:func:`run_experiments` is the runner's front door.  It decomposes the
requested experiments into jobs, satisfies what it can from the
content-addressed store, pushes the rest through the
:class:`~repro.runner.executor.PoolExecutor`, stores every fresh
payload, and folds each experiment's payloads back into an
:class:`~repro.experiments.results.ExperimentResult`.

Resumability falls out of the cache: a partially failed run has stored
every *successful* job, so re-invoking the same command recomputes only
the missing or failed jobs.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments import registry
from repro.experiments.results import ExperimentResult
from repro.runner.executor import JobOutcome, PoolExecutor
from repro.runner.jobs import JobSpec, assemble, decompose_many
from repro.runner.progress import ProgressTracker, render_summary_table
from repro.runner.store import CacheStats, ResultStore

__all__ = ["RunReport", "run_experiments"]


@dataclass
class RunReport:
    """Everything one runner invocation produced."""

    exp_ids: List[str]
    quick: bool
    workers: int
    results: Dict[str, ExperimentResult]
    errors: Dict[str, str]
    outcomes: List[JobOutcome]
    cache_stats: CacheStats
    wall_s: float
    cache_root: Optional[str] = None

    @property
    def jobs_total(self) -> int:
        return len(self.outcomes)

    @property
    def jobs_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def jobs_computed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    @property
    def jobs_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def hit_rate(self) -> float:
        return self.jobs_cached / self.jobs_total if self.outcomes else 0.0

    def exp_wall_s(self, exp_id: str) -> float:
        """Summed job wall time of one experiment (0 for pure cache hits)."""
        return sum(o.elapsed_s for o in self.outcomes
                   if o.job.exp_id == exp_id)

    def summary_text(self) -> str:
        """Final human-readable summary table plus the cache totals line."""
        per_exp: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
        for exp_id in self.exp_ids:
            per_exp[exp_id] = {"jobs": 0, "cached": 0, "computed": 0,
                               "failed": 0, "job_s": 0.0}
        for o in self.outcomes:
            row = per_exp.setdefault(
                o.job.exp_id, {"jobs": 0, "cached": 0, "computed": 0,
                               "failed": 0, "job_s": 0.0})
            row["jobs"] += 1
            row["job_s"] += o.elapsed_s
            if o.cached:
                row["cached"] += 1
            elif o.ok:
                row["computed"] += 1
            else:
                row["failed"] += 1
        lines = [render_summary_table(per_exp)]
        lines.append(
            f"cache: {self.jobs_cached} hit(s) / "
            f"{self.jobs_computed + self.jobs_failed} miss(es) "
            f"({self.hit_rate:.0%} hit rate); "
            f"wall {self.wall_s:.1f}s on {self.workers} worker(s)")
        retried = sum(o.attempts for o in self.outcomes)
        if retried:
            lines.append(f"retries: {retried} extra attempt(s) across "
                         f"{sum(1 for o in self.outcomes if o.attempts)} "
                         f"job(s)")
        report = self.failure_report()
        if report:
            lines.append(report)
        if self.errors:
            lines.append("failed experiments: " + ", ".join(self.errors))
        return "\n".join(lines)

    def failure_report(self) -> str:
        """End-of-run report of every job that did not finish ok.

        One line per failure with the job's final status and the last
        line of its captured error (the child's own exception text for
        crashes, via the worker blackbox), so a 200-job sweep's three
        casualties don't require scrolling back through the log.
        """
        bad = [o for o in self.outcomes if not o.ok]
        if not bad:
            return ""
        lines = [f"failures ({len(bad)} job(s)):"]
        for o in bad:
            last = ""
            if o.error:
                tail = [ln for ln in o.error.strip().splitlines() if ln]
                if tail:
                    last = f" — {tail[-1]}"
            retry_note = f" after {o.attempts} retr(ies)" if o.attempts \
                else ""
            lines.append(f"  {o.job.job_id}: {o.status}{retry_note}{last}")
        return "\n".join(lines)

    def summary_dict(self) -> dict:
        """JSON-able run summary (persisted as the cache's last run)."""
        return {
            "exp_ids": list(self.exp_ids),
            "quick": self.quick,
            "workers": self.workers,
            "jobs": self.jobs_total,
            "cached": self.jobs_cached,
            "computed": self.jobs_computed,
            "failed": self.jobs_failed,
            "hit_rate": self.hit_rate,
            "wall_s": self.wall_s,
            "errors": dict(self.errors),
            "finished": time.time(),
        }


def run_experiments(exp_ids: Optional[Iterable[str]] = None,
                    quick: bool = False,
                    jobs: int = 1,
                    use_cache: bool = True,
                    refresh: bool = False,
                    timeout_s: Optional[float] = None,
                    store: Optional[ResultStore] = None,
                    progress: Optional[ProgressTracker] = None,
                    retries: int = 0,
                    backoff_s: float = 1.0,
                    ) -> RunReport:
    """Run experiments through the cache-aware parallel runner.

    - ``jobs``: worker-process count (``1`` executes inline).
    - ``use_cache=False``: neither read nor write the result store.
    - ``refresh``: ignore cached entries but store fresh results.
    - ``timeout_s``: per-job wall-clock limit (pool mode only).
    - ``retries``/``backoff_s``: requeue crashed/timed-out/lost jobs up
      to ``retries`` times with exponential backoff (pool mode only;
      see :mod:`repro.runner.executor`).
    """
    t_start = time.perf_counter()
    exp_ids = list(exp_ids) if exp_ids is not None \
        else registry.experiment_ids()
    job_list = decompose_many(exp_ids, quick=quick)
    if use_cache and store is None:
        store = ResultStore()
    elif not use_cache:
        store = None
    if progress is not None:
        progress.begin(len(job_list), jobs)

    outcomes: Dict[str, JobOutcome] = {}
    to_run: List[JobSpec] = []
    for job in job_list:
        entry = store.get(job.key) if (store and not refresh) else None
        if entry is not None:
            out = JobOutcome(job, "ok", payload=entry["payload"],
                             cached=True)
            outcomes[job.job_id] = out
            if progress is not None:
                progress.job_done(out)
        else:
            to_run.append(job)

    if to_run:
        def on_outcome(out: JobOutcome) -> None:
            if out.ok and store is not None:
                store.put(out.job.key, out.payload,
                          exp_id=out.job.exp_id, job_id=out.job.job_id,
                          kind=out.job.kind, config=dict(out.job.config),
                          elapsed_s=out.elapsed_s)
            if progress is not None:
                progress.job_done(out)

        with PoolExecutor(jobs=jobs, timeout_s=timeout_s, retries=retries,
                          backoff_s=backoff_s) as executor:
            for out in executor.run(to_run, on_outcome=on_outcome):
                outcomes[out.job.job_id] = out

    results: Dict[str, ExperimentResult] = {}
    errors: Dict[str, str] = {}
    for exp_id in exp_ids:
        exp_outs = [outcomes[job.job_id] for job in job_list
                    if job.exp_id == exp_id]
        bad = [o for o in exp_outs if not o.ok]
        if bad:
            details = "; ".join(
                f"{o.job.job_id} {o.status}"
                + (f" ({o.error.strip().splitlines()[-1]})" if o.error
                   else "")
                for o in bad)
            errors[exp_id] = details
            continue
        try:
            results[exp_id] = assemble(
                exp_id, [o.payload for o in exp_outs], quick=quick)
        except Exception as exc:
            errors[exp_id] = f"assembly failed: {exc!r}"

    report = RunReport(
        exp_ids=exp_ids, quick=quick, workers=max(1, int(jobs)),
        results=results, errors=errors,
        outcomes=[outcomes[job.job_id] for job in job_list],
        cache_stats=store.stats if store is not None else CacheStats(),
        wall_s=time.perf_counter() - t_start,
        cache_root=str(store.root) if store is not None else None)
    if store is not None:
        try:
            store.write_last_run(report.summary_dict())
        except OSError:  # pragma: no cover - unwritable cache dir
            pass
    return report

