"""Parallel experiment execution with a persistent result cache.

The runner turns :mod:`repro.experiments` into a cache-aware execution
service:

- :mod:`repro.runner.jobs`      -- decompose experiments into jobs
- :mod:`repro.runner.keys`      -- content-addressed cache keys
- :mod:`repro.runner.store`     -- the ``.repro-cache/`` result store
- :mod:`repro.runner.executor`  -- crash-isolated process pool
- :mod:`repro.runner.progress`  -- per-job progress, ETA, summary table
- :mod:`repro.runner.service`   -- the orchestration front door

See ``docs/runner.md`` for the job model and the cache-key /
invalidation rules.
"""

from repro.runner.executor import JobOutcome, PoolExecutor
from repro.runner.jobs import (
    KIND_POINT,
    JobSpec,
    assemble,
    decompose,
    decompose_many,
    execute_job,
)
from repro.runner.keys import canonical_json, code_fingerprint, job_key
from repro.runner.progress import ProgressTracker, render_summary_table
from repro.runner.service import RunReport, run_cached, run_experiments
from repro.runner.store import DEFAULT_ROOT, CacheStats, ResultStore

__all__ = [
    "JobOutcome",
    "PoolExecutor",
    "KIND_POINT",
    "JobSpec",
    "assemble",
    "decompose",
    "decompose_many",
    "execute_job",
    "canonical_json",
    "code_fingerprint",
    "job_key",
    "ProgressTracker",
    "render_summary_table",
    "RunReport",
    "run_cached",
    "run_experiments",
    "DEFAULT_ROOT",
    "CacheStats",
    "ResultStore",
]
