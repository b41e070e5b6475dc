"""Shared helpers for the benchmark harness.

Every ``test_<artifact>`` benchmark regenerates one table or figure of the
paper at full (paper) scale, prints the reproduced artifact, and asserts
the paper's qualitative claims (the experiment's ``checks``).  Timings
reported by pytest-benchmark are the wall cost of the simulation itself.

Runs go through :func:`repro.runner.run_experiments`, so each job's
result is persisted content-addressed under ``.repro-cache/``: re-running
the benchmark suite (or mixing it with ``python -m repro run``) reuses every
simulation that already ran for the same code version and config.
Delete the cache (``python -m repro cache clear``) or export
``REPRO_CACHE_DIR`` to time cold simulations.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from repro.runner import run_experiments


def reproduce(benchmark, exp_id: str, quick: bool = False):
    """Run one registered experiment under the benchmark harness."""
    report = benchmark.pedantic(
        lambda: run_experiments([exp_id], quick=quick),
        rounds=1, iterations=1)
    assert exp_id not in report.errors, report.errors[exp_id]
    result = report.results[exp_id]
    print()
    print(result.to_text())
    benchmark.extra_info["experiment"] = exp_id
    benchmark.extra_info["checks"] = {k: bool(v)
                                      for k, v in result.checks.items()}
    failed = [name for name, ok in result.checks.items() if not ok]
    assert not failed, f"{exp_id}: failed checks {failed}"
    return result
