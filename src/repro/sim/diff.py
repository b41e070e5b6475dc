"""Differential oracle: run a workload on both kernels and compare.

The fast kernel (:mod:`repro.sim.core`) is only allowed to be fast
because every one of its shortcuts — inline sleeps, reusable sleep
entries, :class:`~repro.sim.process.FanOut`, the guarded synchronous
grants of ``Container.try_put`` / ``try_get`` — is *order-preserving*:
the event stream it produces must be identical, record for record and
timestamp for timestamp, to the reference kernel's.  This module checks
that contract empirically:

* :func:`diff_scenario` runs any zero-argument builder twice — once per
  kernel — capturing the canonical application-level I/O trace through
  the :data:`repro.trace.collector._CAPTURE` hook, and compares traces
  and returned results for exact (bitwise float) equality;
* :func:`diff_experiment` does the same for a registered experiment
  (fig2, table4, …), always re-running it — the runner's result cache is
  deliberately bypassed, an oracle that replays cached results would
  prove nothing.

Exposed to users as ``repro diff`` (see :mod:`repro.cli`) and to the
test suite as the ``kernel_diff`` fixture (``tests/conftest.py``).

This module is *not* imported by ``repro.sim.__init__``: it reaches up
into the experiment registry, which itself builds on the simulator, and
keeping the import one-way (``repro.sim.diff`` → ``repro.experiments``,
lazily) avoids the cycle.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.core import set_default_fast

__all__ = ["kernel", "capture_trace", "Divergence", "DiffReport",
           "diff_scenario", "diff_experiment"]

#: One captured I/O event: (op, rank, start, duration, nbytes, file).
TraceTuple = Tuple[str, int, float, float, int, Optional[str]]


@contextlib.contextmanager
def kernel(fast: bool):
    """Run the block with new environments defaulting to one kernel.

    Experiment code builds its machines (and hence environments)
    internally, so the kernel is selected through the module default
    rather than plumbed through every constructor::

        with kernel(fast=False):
            result = run_experiment("fig2", quick=True)   # reference
    """
    previous = set_default_fast(fast)
    try:
        yield
    finally:
        set_default_fast(previous)


@contextlib.contextmanager
def capture_trace(into: List[TraceTuple]):
    """Capture every I/O trace record process-wide into ``into``.

    Installs the :data:`repro.trace.collector._CAPTURE` hook; nesting is
    rejected so two captures cannot silently interleave.
    """
    from repro.trace import collector

    if collector._CAPTURE is not None:
        raise RuntimeError("a trace capture is already active")
    collector._CAPTURE = into
    try:
        yield into
    finally:
        collector._CAPTURE = None


@dataclass(frozen=True)
class Divergence:
    """One position where the two kernels' traces disagree."""

    index: int
    fast: Optional[TraceTuple]
    reference: Optional[TraceTuple]

    def __str__(self) -> str:
        return (f"#{self.index}: fast={self.fast!r} "
                f"reference={self.reference!r}")


@dataclass
class DiffReport:
    """Outcome of one fast-vs-reference comparison."""

    label: str
    fast_events: int
    reference_events: int
    #: Count of positions (or missing tail entries) that disagree.
    n_divergences: int
    #: First few divergent positions, for the report.
    divergences: List[Divergence] = field(default_factory=list)
    results_equal: bool = True
    fast_result: Any = None
    reference_result: Any = None

    @property
    def ok(self) -> bool:
        """True when traces and results are identical."""
        return self.n_divergences == 0 and self.results_equal

    def format(self) -> str:
        lines = [f"== diff {self.label} ==",
                 f"  fast kernel:      {self.fast_events} I/O events",
                 f"  reference kernel: {self.reference_events} I/O events"]
        if self.ok:
            lines.append("  traces identical, results identical")
            return "\n".join(lines)
        if self.n_divergences:
            shown = len(self.divergences)
            suffix = (f" (first {shown} shown)"
                      if self.n_divergences > shown else "")
            lines.append(f"  {self.n_divergences} divergent trace "
                         f"position(s){suffix}:")
            for d in self.divergences:
                lines.append(f"    {d}")
        if not self.results_equal:
            lines.append("  final results DIFFER:")
            lines.append(f"    fast:      {self.fast_result!r}")
            lines.append(f"    reference: {self.reference_result!r}")
        return "\n".join(lines)


def _compare(fast: List[TraceTuple], reference: List[TraceTuple],
             max_report: int) -> Tuple[int, List[Divergence]]:
    """Count divergent positions; sample the first ``max_report``."""
    n = 0
    samples: List[Divergence] = []
    longest = max(len(fast), len(reference))
    for i in range(longest):
        a = fast[i] if i < len(fast) else None
        b = reference[i] if i < len(reference) else None
        if a != b:
            n += 1
            if len(samples) < max_report:
                samples.append(Divergence(i, a, b))
    return n, samples


def diff_scenario(builder: Callable[[], Any], label: str = "scenario",
                  max_report: int = 10) -> DiffReport:
    """Run ``builder`` once per kernel and compare traces and results.

    ``builder`` must construct everything it needs — machine, files,
    processes — from scratch on every call (it is invoked twice) and
    return a value comparable with ``==``; returned floats are compared
    exactly, since the kernels must agree bit for bit.
    """
    fast_trace: List[TraceTuple] = []
    ref_trace: List[TraceTuple] = []
    with kernel(True), capture_trace(fast_trace):
        fast_result = builder()
    with kernel(False), capture_trace(ref_trace):
        ref_result = builder()
    n, samples = _compare(fast_trace, ref_trace, max_report)
    return DiffReport(
        label=label,
        fast_events=len(fast_trace),
        reference_events=len(ref_trace),
        n_divergences=n,
        divergences=samples,
        results_equal=(fast_result == ref_result),
        fast_result=fast_result,
        reference_result=ref_result,
    )


def diff_experiment(exp_id: str, quick: bool = True,
                    max_report: int = 10) -> DiffReport:
    """Differential run of one registered experiment.

    Goes through :func:`repro.experiments.registry.run_experiment`
    directly — never the cached runner — so both sides are computed
    fresh.  Results are compared via their dict form
    (:meth:`~repro.experiments.results.ExperimentResult.to_dict`), which
    covers every series point, table row and check.
    """
    from repro.experiments.registry import run_experiment

    def builder() -> Any:
        return run_experiment(exp_id, quick=quick).to_dict()

    label = f"{exp_id} ({'quick' if quick else 'full'})"
    return diff_scenario(builder, label=label, max_report=max_report)
