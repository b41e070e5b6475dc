"""Output parity for the perf-optimized hot paths.

The kernel fast paths (PR 2's inlined run loop and scheduling
shortcuts; this round's heap-top coalescing, inline sleeps, fan-out and
guarded Container grants) must be output-preserving *by construction*:
these tests assert the rendered figure text of the experiments the
optimizations target stays byte-identical to the golden copies under
``tests/golden/`` (fig2/fig6 recorded from the seed implementation,
fig4/fig5 from the PR-3 tree before the round-2 fast paths landed,
fig1/table4 before the I/O call chain was folded to one generator frame
per call: they cover Fortran and PASSION record I/O, AST's small pieces
and the Chameleon funnel).

The goldens pin the *numbers*; the event-level contract behind them is
checked by the differential oracle (``repro diff``,
tests/test_kernel_diff.py).  The last test pins the traffic: a real
figure must run entirely on the fast kernel's inlined loop.  See
:func:`tests.conftest.assert_matches_golden` for how to regenerate
after a deliberate modelling change.
"""

import pytest

from tests.conftest import assert_matches_golden


@pytest.mark.parametrize("exp_id", ["fig1", "fig2", "fig4", "fig5", "fig6",
                                    "table4"])
def test_quick_figure_stdout_matches_golden(exp_id):
    assert_matches_golden(exp_id, quick=True)


def test_figure_traffic_stays_on_the_fast_run_loop(monkeypatch):
    """Every app driver runs its machine with ``run(until=<event>)``, the
    one form the fast kernel inlines; ``run()`` and ``run(until=<number>)``
    step through ``Environment._run_reference`` with every fast path off.
    A driver that switched forms would keep its output and silently lose
    the fast kernel, so a whole figure must never reach that loop."""
    from repro.experiments import registry
    from repro.sim.core import Environment, default_fast

    def refuse(self, until):
        raise AssertionError(
            f"run(until={until!r}) bypassed the fast run loop")

    monkeypatch.setattr(Environment, "_run_reference", refuse)
    assert default_fast()
    registry.run_experiment("fig4", quick=True)
