"""What a fresh interpreter imports on the timing and functional paths.

Timing-mode runs only count bytes, so they must load neither numpy (the
functional FFT's data path) nor multiprocessing (the pool's first
fork).  The test process itself imports numpy, so each case runs its
script in a new interpreter.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Cuts fig2, fig5 and fig6 down to a few quick points in the child.
ONE_POINT_EACH = """
import dataclasses
from repro.experiments import registry

def _keep(exp_id, *picks):
    exp = registry.get(exp_id)
    registry.EXPERIMENTS[exp_id] = dataclasses.replace(
        exp, points=lambda quick, pts=exp.points: [pts(quick)[i]
                                                   for i in picks])

_keep("fig2", 0)
_keep("fig5", 0, -1)    # one unoptimized and one layout FFT point
_keep("fig6", 0)
"""


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_timing_runs_load_neither_numpy_nor_multiprocessing():
    out = _run(ONE_POINT_EACH + """
import sys
import repro.runner.service
from repro.runner.service import run_experiments

report = run_experiments(["fig2", "fig5", "fig6"], quick=True, jobs=1,
                         use_cache=False)
assert report.jobs_total == 4 and report.jobs_failed == 0, \\
    report.failure_report()
print(sorted(m for m in ("numpy", "multiprocessing") if m in sys.modules))
""")
    assert out.strip() == "[]"


def test_functional_fft_loads_numpy_on_first_use():
    out = _run("""
import sys
from repro.apps.fft2d import FFTConfig, read_result, run_fft
from repro.machine import paragon_small

assert "numpy" not in sys.modules
import numpy as np

n = 16
x = np.random.default_rng(7).standard_normal((n, n)).astype(complex)
cfg = FFTConfig(n=n, version="unoptimized",
                panel_memory_bytes=n * 16 * 4, functional=True)
res = run_fft(paragon_small(4, 2), cfg, 2, initial=x)
print(np.allclose(read_result(res, cfg), np.fft.fft2(x).T))
""")
    assert out.strip() == "True"


def test_pool_imports_multiprocessing_when_it_forks():
    out = _run(ONE_POINT_EACH + """
import sys
from repro.runner.executor import PoolExecutor
from repro.runner.jobs import decompose

executor = PoolExecutor(jobs=2)
before = "multiprocessing" in sys.modules
with executor:
    (outcome,) = executor.run(decompose("fig2", quick=True))
print(before, outcome.status, "multiprocessing" in sys.modules)
""")
    assert out.split() == ["False", "ok", "True"]
