"""Registry of every table/figure experiment, keyed by paper artifact.

Each artifact is declared exactly once, as an :class:`Experiment`: a
sweep of independent simulator points folded into one
:class:`~repro.experiments.results.ExperimentResult`.  The direct path
(:func:`run_experiment`), the runner (:mod:`repro.runner.jobs`) and the
server all read the same record, so they execute the same
``run_point`` code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments import (ast_exps, btio_exps, fault_exps, fft_exps,
                               scf11_exps, scf30_exps, summary_exps)
from repro.experiments.results import ExperimentResult

__all__ = ["Experiment", "EXPERIMENTS", "one_point", "get",
           "run_experiment", "experiment_ids"]


@dataclass(frozen=True)
class Experiment:
    """One paper artifact as a sweep of simulator points.

    ``points(quick)`` declares the sweep as JSON-able config dicts,
    ``run_point(config)`` simulates one of them and returns a JSON-able
    payload, and ``assemble(payloads, quick=...)`` folds the payloads
    (in point order) into the result with the paper's checks.
    """

    title: str
    points: Callable[[bool], List[dict]]
    run_point: Callable[[dict], dict]
    assemble: Callable[..., ExperimentResult]


def _single_payload(payloads: List[dict],
                    quick: bool = False) -> ExperimentResult:
    (payload,) = payloads
    return ExperimentResult.from_dict(payload)


def one_point(title: str,
              fn: Callable[[bool], ExperimentResult]) -> Experiment:
    """Wrap a whole-experiment callable ``fn(quick)`` as a one-point sweep.

    The tables are one or a few simulations with interdependent
    aggregation, so their single point is ``{"quick": quick}`` and its
    payload is the whole result's dict form.
    """
    return Experiment(
        title=title,
        points=lambda quick: [{"quick": bool(quick)}],
        run_point=lambda config: fn(config["quick"]).to_dict(),
        assemble=_single_payload)


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": one_point(
        "Table 1: the application suite and its characteristics.",
        summary_exps.table1),
    "table2": one_point(
        "Table 2: I/O summary of the original SCF 1.1, LARGE, 4 procs.",
        scf11_exps.table2),
    "table3": one_point(
        "Table 3: I/O summary of the PASSION SCF 1.1, LARGE, 4 procs.",
        scf11_exps.table3),
    "table4": one_point(
        "Table 4: AST with 16/64 I/O nodes, Chameleon vs two-phase.",
        ast_exps.table4),
    "table5": one_point(
        "Table 5: effective optimization techniques per application.",
        summary_exps.table5),
    "fig1": Experiment(
        "Figure 1: incremental optimizations across input sizes.",
        scf11_exps.fig1_points, scf11_exps.fig1_run_point,
        scf11_exps.fig1_assemble),
    "fig2": Experiment(
        "Figure 2: optimized-vs-unoptimized across processor counts.",
        scf11_exps.fig2_points, scf11_exps.fig2_run_point,
        scf11_exps.fig2_assemble),
    "fig_direct": Experiment(
        "Section 5: disk-based vs direct (recompute) SCF 1.1 across "
        "processor counts.",
        scf11_exps.fig_direct_points, scf11_exps.fig2_run_point,
        scf11_exps.fig_direct_assemble),
    "fig3": Experiment(
        "Figure 3: effect of the I/O-node count on SCF 1.1.",
        scf11_exps.fig3_points, scf11_exps.fig3_run_point,
        scf11_exps.fig3_assemble),
    "fig4": Experiment(
        "Figure 4: exec time vs %-cached-integrals, per P, for 16/64 I/O "
        "nodes.",
        scf30_exps.fig4_points, scf30_exps.fig4_run_point,
        scf30_exps.fig4_assemble),
    "fig5": Experiment(
        "Figure 5: FFT I/O and total times for three configurations.",
        fft_exps.fig5_points, fft_exps.fig5_run_point,
        fft_exps.fig5_assemble),
    "fig6": Experiment(
        "Figure 6: BTIO Class A I/O and total time vs processors.",
        btio_exps.fig6_points, btio_exps.fig6_run_point,
        btio_exps.fig6_assemble),
    "fig7": Experiment(
        "Figure 7: I/O bandwidths of original and optimized BTIO.",
        btio_exps.fig7_points, btio_exps.fig7_run_point,
        btio_exps.fig7_assemble),
    "fig_faults": Experiment(
        "Paper Figures 2 & 7 re-run under injected machine faults.",
        fault_exps.fig_faults_points, fault_exps.fig_faults_run_point,
        fault_exps.fig_faults_assemble),
}


def experiment_ids() -> List[str]:
    return list(EXPERIMENTS)


def get(exp_id: str) -> Experiment:
    """The registered experiment ``exp_id``; ``KeyError`` if unknown."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}") from None


def run_experiment(exp_id: str, quick: bool = False) -> ExperimentResult:
    """Run one registered experiment serially, bypassing the runner."""
    exp = get(exp_id)
    return exp.assemble([exp.run_point(p) for p in exp.points(quick)],
                        quick=quick)
