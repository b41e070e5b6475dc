"""Job model: decompose experiments into independent, cacheable jobs.

A *job* is the runner's unit of scheduling, caching and failure
isolation: one sweep point of a registered
:class:`~repro.experiments.registry.Experiment` (a table is a one-point
sweep).  A job is fully described by ``(exp_id, kind, config)`` — a
declared, JSON-able config dict — which is what makes results
content-addressable (:mod:`repro.runner.keys`) and lets worker
processes re-resolve the work from the registry instead of pickling
callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence

from repro.experiments import registry
from repro.experiments.results import ExperimentResult
from repro.runner.keys import job_key

__all__ = ["KIND_POINT", "JobSpec", "decompose", "decompose_many",
           "execute_job", "assemble"]

#: The one job kind: a sweep point of a registered experiment.  It is
#: part of every cache key.
KIND_POINT = "point"


@dataclass(frozen=True)
class JobSpec:
    """One independently runnable, cacheable unit of work."""

    job_id: str
    exp_id: str
    kind: str
    config: Mapping[str, object]
    index: int = 0

    @property
    def key(self) -> str:
        """Content-addressed cache key of this job."""
        return job_key(self.exp_id, self.kind, self.config)


def decompose(exp_id: str, quick: bool = False) -> List[JobSpec]:
    """Decompose one registered experiment into its point jobs."""
    return [JobSpec(job_id=f"{exp_id}#{i:03d}", exp_id=exp_id,
                    kind=KIND_POINT, config=dict(point), index=i)
            for i, point in enumerate(registry.get(exp_id).points(quick))]


def decompose_many(exp_ids: Iterable[str],
                   quick: bool = False) -> List[JobSpec]:
    """Decompose several experiments into one flat, ordered job list."""
    jobs: List[JobSpec] = []
    for exp_id in exp_ids:
        jobs.extend(decompose(exp_id, quick=quick))
    return jobs


def execute_job(exp_id: str, kind: str,
                config: Mapping[str, object]) -> dict:
    """Run one job, returning its JSON-able payload.

    This is the function worker processes execute; it re-resolves the
    work from the registry, so jobs cross the process boundary as plain
    data.
    """
    if kind != KIND_POINT:
        raise ValueError(f"unknown job kind {kind!r}")
    return registry.get(exp_id).run_point(dict(config))


def assemble(exp_id: str, payloads: Sequence[dict],
             quick: bool = False) -> ExperimentResult:
    """Fold an experiment's job payloads back into its result.

    ``payloads`` must be in job-index order.
    """
    return registry.get(exp_id).assemble(list(payloads), quick=quick)
