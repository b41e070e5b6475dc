"""Per-table/figure experiment harness.

Each :class:`~repro.experiments.registry.Experiment` in
:data:`EXPERIMENTS` regenerates one artifact of the paper's evaluation
section as a sweep of simulator points folded into an
:class:`~repro.experiments.results.ExperimentResult` whose ``checks``
encode the paper's qualitative claims (orderings, crossovers, bands).
``quick=True`` runs a scaled-down configuration for test suites;
``quick=False`` runs the paper-scale configuration (benchmarks).
"""

from repro.experiments.results import ExperimentResult, Series, ascii_chart
from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    experiment_ids,
    run_experiment,
)
from repro.experiments.scf11_exps import FIG1_TUPLES, ConfigTuple, run_tuple
from repro.experiments.summary_exps import (
    EFFECTIVENESS_THRESHOLD,
    PAPER_TABLE5,
    measure_effectiveness,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "ascii_chart",
    "EXPERIMENTS",
    "Experiment",
    "experiment_ids",
    "run_experiment",
    "FIG1_TUPLES",
    "ConfigTuple",
    "run_tuple",
    "EFFECTIVENESS_THRESHOLD",
    "PAPER_TABLE5",
    "measure_effectiveness",
]
