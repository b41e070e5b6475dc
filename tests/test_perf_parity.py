"""Output parity for the perf-optimized hot paths.

The kernel fast paths (the inlined run loop and scheduling shortcuts,
inline sleeps, fan-out and guarded Container grants) must be
output-preserving *by construction*:
these tests assert the rendered figure text of the experiments the
optimizations target stays byte-identical to the golden copies under
``tests/golden/`` (fig2/fig6 recorded from the seed implementation,
fig4/fig5 from the PR-3 tree before the round-2 fast paths landed,
fig1/table4 before the I/O call chain was folded to one generator frame
per call: they cover Fortran and PASSION record I/O, AST's small pieces
and the Chameleon funnel).

The goldens pin the *numbers*; the event-level contract behind them is
checked by the differential oracle (``repro diff``,
tests/test_kernel_diff.py).  The traffic test pins that a real figure
runs entirely on the fast kernel's inlined loop, and the heap-entry test
pins the kernel's work on two points as exact counts.  See
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


@pytest.mark.parametrize("exp_id, index, fast, entries", [
    ("fig2", 1, True, 52_643),
    ("fig2", 1, False, 71_015),
    ("fig6", 4, True, 4_199),
    ("fig6", 4, False, 5_012),
    ("fig6", 5, True, 10_548),
    ("fig6", 5, False, 13_405),
], ids=["fig2#001-fast", "fig2#001-reference", "fig6#004-fast",
        "fig6#004-reference", "fig6#005-fast", "fig6#005-reference"])
def test_quick_point_heap_entries(monkeypatch, exp_id, index, fast, entries):
    """Heap entries pushed by one quick point, summed ``Environment._eid``
    over the environments it builds, on each kernel.  The count is
    deterministic: a change to it is a change to the kernel's work (or
    to the model) and must be recorded here on purpose.  fig2#001 is
    unoptimized SCF (Fortran records, two-extent fan-outs); fig6#004 and
    fig6#005 (P=36) are collective BTIO (two-phase exchanges: alltoallv
    and descriptor allgather fan-outs)."""
    from repro.runner.jobs import decompose, execute_job
    from repro.sim.core import Environment
    from repro.sim.diff import kernel

    envs = []
    init = Environment.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        envs.append(self)

    monkeypatch.setattr(Environment, "__init__", recording_init)
    job = decompose(exp_id, quick=True)[index]
    with kernel(fast):
        execute_job(job.exp_id, job.kind, job.config)
    assert sum(env._eid for env in envs) == entries
