"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pathlib

import pytest

from repro.machine import Machine, MachineConfig, paragon_small
from repro.pfs import PFS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the runner's result cache at a per-test directory.

    Keeps tests from reading or writing the developer's ``.repro-cache/``
    in the repository root.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def env():
    from repro.sim import Environment
    return Environment()


@pytest.fixture
def small_machine():
    """A 4-compute / 2-I/O-node Paragon."""
    return Machine(paragon_small(n_compute=4, n_io=2))


@pytest.fixture
def functional_fs(small_machine):
    """A PFS with real data backing on the small machine."""
    return PFS(small_machine, functional=True)


def assert_matches_golden(exp_id: str, quick: bool = True) -> None:
    """Assert an experiment's rendered text is byte-identical to its
    recorded golden copy under ``tests/golden/``.

    To regenerate after a *deliberate* modelling change (and say so in
    the PR)::

        PYTHONPATH=src python - <<'EOF'
        from repro.experiments.registry import run_experiment
        for exp in ("fig1", "fig2", "fig4", "fig5", "fig6", "table4"):
            text = run_experiment(exp, quick=True).to_text()
            open(f"tests/golden/{exp}_quick.txt", "w").write(text + "\n")
        EOF
    """
    from repro.experiments.registry import run_experiment

    suffix = "quick" if quick else "full"
    golden = (GOLDEN_DIR / f"{exp_id}_{suffix}.txt").read_text()
    result = run_experiment(exp_id, quick=quick)
    assert result.to_text() + "\n" == golden, (
        f"{exp_id} {suffix} output drifted from the recorded golden — "
        "kernel fast paths must be output-preserving (see "
        "tests/conftest.py:assert_matches_golden to regenerate after a "
        "deliberate modelling change)")


@pytest.fixture
def kernel_diff():
    """Differential-oracle assertion: run a builder on both kernels.

    Yields a callable ``check(builder, label=...)`` that runs ``builder``
    once per kernel via :func:`repro.sim.diff.diff_scenario` and fails
    the test with the full divergence report unless traces and results
    are identical.  Returns the :class:`~repro.sim.diff.DiffReport`.
    """
    from repro.sim.diff import diff_scenario

    def check(builder, label: str = "scenario"):
        report = diff_scenario(builder, label=label)
        assert report.ok, "\n" + report.format()
        return report

    return check


def register_experiment(monkeypatch, exp_id, run_point=None, n_points=3,
                        whole=None):
    """Register one toy :class:`~repro.experiments.registry.Experiment`
    as ``exp_id`` in the live registry; returns it.

    By default it is a sweep of ``n_points`` points ``{"i": i, "quick":
    quick}`` whose ``run_point`` returns ``{**point, "y": 10 * i}`` and
    whose result has the payloads as rows in ``i`` order plus one
    passing check.  ``whole=fn(quick)`` registers a whole-experiment
    callable through the tables' one-point adapter instead.
    """
    from repro.experiments import ExperimentResult, registry

    def points(quick):
        return [{"i": i, "quick": bool(quick)} for i in range(n_points)]

    def default_run_point(point):
        return {**point, "y": point["i"] * 10.0}

    def assemble(payloads, quick=False):
        res = ExperimentResult(exp_id, "toy", "ref")
        res.rows = sorted(payloads, key=lambda p: p["i"])
        res.add_check("ok", True)
        return res

    exp = registry.one_point("toy", whole) if whole is not None else \
        registry.Experiment("toy", points, run_point or default_run_point,
                            assemble)
    monkeypatch.setitem(registry.EXPERIMENTS, exp_id, exp)
    return exp


def count_btio_runs(monkeypatch):
    """Record ``(version, P)`` of every BTIO simulation the experiment
    helpers start in this process; returns the live list."""
    from repro.experiments import btio_exps

    calls = []
    real = btio_exps.run_btio

    def counting(machine, config, p):
        calls.append((config.version, p))
        return real(machine, config, p)

    monkeypatch.setattr(btio_exps, "run_btio", counting)
    return calls


def run_proc(machine_or_env, gen, name=None):
    """Run a single generator process to completion, returning its value."""
    env = getattr(machine_or_env, "env", machine_or_env)
    proc = env.process(gen, name=name)
    return env.run(proc)


def run_procs(machine_or_env, gens):
    """Run several generator processes to completion; returns their values."""
    env = getattr(machine_or_env, "env", machine_or_env)
    procs = [env.process(g) for g in gens]
    env.run(env.all_of(procs))
    return [p.value for p in procs]
