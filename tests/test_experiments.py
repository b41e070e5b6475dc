"""Integration tests: every paper artifact reproduces in quick mode.

These are the heart of the reproduction — each experiment's ``checks``
encode the corresponding table/figure's qualitative claims.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    FIG1_TUPLES,
    PAPER_TABLE5,
    experiment_ids,
    run_experiment,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "table2", "table3", "table4", "table5",
                    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "fig_direct", "fig_faults"}
        assert set(experiment_ids()) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_fig1_tuples_match_paper_defaults(self):
        first = FIG1_TUPLES[0]
        assert (first.version, first.n_procs, first.memory_kb,
                first.stripe_kb, first.n_io) == ("O", 4, 64, 64, 12)
        assert len(FIG1_TUPLES) == 7

    def test_paper_table5_ticks(self):
        assert PAPER_TABLE5["fft"] == {"file layout"}
        assert PAPER_TABLE5["btio"] == {"collective I/O"}


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_experiment_quick_checks_pass(exp_id):
    """Each table/figure's shape checks hold at quick scale."""
    result = run_experiment(exp_id, quick=True)
    failed = [name for name, ok in result.checks.items() if not ok]
    assert not failed, f"{exp_id} failed: {failed}\n{result.to_text()}"
    assert result.checks, f"{exp_id} has no checks"


def test_results_render_to_text():
    result = run_experiment("table1", quick=True)
    text = result.to_text()
    assert "table1" in text and "SCF" in text
