"""Cache warming: precompute experiments through the serving engine.

``repro warm fig2 fig5 --quick`` (or ``repro serve --warm ...`` at
startup) pushes every sweep point of the named experiments through the
same single-flight engine the server uses, so a fresh deployment takes
its cold cache misses *before* user traffic arrives.  Warming is
idempotent and resumable: anything already cached is a hit, anything
missing is computed and stored content-addressed.
"""

from __future__ import annotations

import sys
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TextIO

from repro.experiments import registry
from repro.runner.jobs import decompose
from repro.serve.engine import (EngineSaturated, PointOutcome, ServeEngine,
                                Ticket)

__all__ = ["WarmReport", "warm"]


@dataclass
class WarmReport:
    """What one warming pass did, per experiment and in total."""

    quick: bool
    #: exp id -> {"jobs": n, "cache": n, "computed": n, "failed": n}
    per_exp: Dict[str, Dict[str, int]] = field(default_factory=dict)
    wall_s: float = 0.0

    def _total(self, field_name: str) -> int:
        return sum(row[field_name] for row in self.per_exp.values())

    @property
    def jobs(self) -> int:
        return self._total("jobs")

    @property
    def computed(self) -> int:
        return self._total("computed")

    @property
    def cached(self) -> int:
        return self._total("cache")

    @property
    def failed(self) -> int:
        return self._total("failed")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary_text(self) -> str:
        lines = []
        for exp_id, row in self.per_exp.items():
            lines.append(
                f"  {exp_id:12s} {row['jobs']:3d} job(s): "
                f"{row['cache']} cached, {row['computed']} computed"
                + (f", {row['failed']} FAILED" if row["failed"] else ""))
        lines.append(
            f"warmed {self.jobs} job(s) in {self.wall_s:.1f}s "
            f"({self.cached} already cached, {self.computed} computed, "
            f"{self.failed} failed)")
        return "\n".join(lines)


def warm(exp_ids: Iterable[str], quick: bool = True,
         engine: Optional[ServeEngine] = None,
         stream: Optional[TextIO] = None) -> WarmReport:
    """Precompute every job of ``exp_ids`` through ``engine``.

    Creates (and closes) a private engine when none is given; a server
    passes its own so warming shares the executor, cache and metrics.
    Unknown experiment ids raise ``KeyError`` before any work starts.
    """
    exp_ids = list(exp_ids)
    for exp_id in exp_ids:
        registry.get(exp_id)
    own_engine = engine is None
    if engine is None:
        engine = ServeEngine()
    report = WarmReport(quick=quick)
    t0 = time.perf_counter()
    try:
        for exp_id in exp_ids:
            jobs = decompose(exp_id, quick=quick)
            tickets: List[Ticket] = []
            for job in jobs:
                tickets.append(_admit(engine, job, tickets))
            outcomes: List[PointOutcome] = [t.result() for t in tickets]
            row = {"jobs": len(jobs), "cache": 0, "computed": 0,
                   "failed": 0}
            for ticket, out in zip(tickets, outcomes):
                if not out.ok:
                    row["failed"] += 1
                elif ticket.source(out) == "cache":
                    row["cache"] += 1
                else:
                    row["computed"] += 1
            report.per_exp[exp_id] = row
            if stream is not None:
                print(f"warm {exp_id}: {row['jobs']} job(s), "
                      f"{row['cache']} cached, {row['computed']} computed"
                      + (f", {row['failed']} failed" if row["failed"]
                         else ""),
                      file=stream)
    finally:
        report.wall_s = time.perf_counter() - t0
        if own_engine:
            engine.close()
    return report


def _admit(engine: ServeEngine, job, tickets: List[Ticket]) -> Ticket:
    """Submit ``job``, waiting out a full engine queue.

    An experiment may have more points than the queue holds, and live
    traffic may be queued too: on :class:`EngineSaturated`, wait for one
    of our own points to finish (or ``retry_after_s``) and try again.
    """
    while True:
        try:
            return engine.submit(job)
        except EngineSaturated as exc:
            pending = [t.future for t in tickets if not t.future.done()]
            if pending:
                futures.wait(pending, exc.retry_after_s,
                             futures.FIRST_COMPLETED)
            else:
                time.sleep(exc.retry_after_s)


def main_warm(args) -> int:
    """CLI entry point for ``repro warm`` (see :mod:`repro.cli`)."""
    from repro.runner.executor import PoolExecutor
    from repro.runner.store import ResultStore

    targets = (registry.experiment_ids()
               if args.experiments == ["all"] else args.experiments)
    try:
        for exp_id in targets:
            registry.get(exp_id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    # --jobs >= 2 runs the points on that many crash-isolated worker
    # processes (pure-Python simulation is CPU-bound, so threads would
    # serialize on the GIL).
    engine = ServeEngine(
        store=ResultStore(args.cache_dir),
        executor=PoolExecutor(jobs=args.jobs, timeout_s=args.timeout))
    try:
        report = warm(targets, quick=args.quick, engine=engine,
                      stream=sys.stderr)
    finally:
        engine.close()
    print(report.summary_text())
    return 0 if report.ok else 1
