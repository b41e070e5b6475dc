"""SCF 3.0 experiment: Figure 4 (balanced I/O).

Figure 4 is a sweep: ``fig4_points`` declares its configurations,
``fig4_run_point`` simulates one and ``fig4_assemble`` folds the
payloads into the result; the registry pairs the three into one
``Experiment``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.apps.scf30 import SCF30Config, run_scf30
from repro.experiments.results import ExperimentResult, Series
from repro.machine.presets import paragon_large

__all__ = ["fig4_points", "fig4_run_point", "fig4_assemble"]


def _params(quick: bool) -> Tuple[List[float], List[int], List[int], int]:
    fractions = [0.0, 0.5, 1.0] if quick else [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
    procs = [16, 64] if quick else [16, 32, 64, 128, 256]
    io_nodes = [16] if quick else [16, 64]
    miters = 1 if quick else 2
    return fractions, procs, io_nodes, miters


def fig4_points(quick: bool = False) -> List[dict]:
    """Figure 4's sweep points as declared config dicts."""
    fractions, procs, io_nodes, miters = _params(quick)
    return [{"n_io": n_io, "p": p, "cached_fraction": f,
             "measured_read_iters": miters}
            for n_io in io_nodes for p in procs for f in fractions]


def fig4_run_point(point: dict) -> dict:
    """Simulate one Figure-4 configuration; returns a JSON-able payload."""
    config = SCF30Config(cached_fraction=point["cached_fraction"],
                         measured_read_iters=point["measured_read_iters"])
    res = run_scf30(paragon_large(n_compute=max(point["p"], 4),
                                  n_io=point["n_io"]),
                    config, point["p"])
    return {**point, "exec_time": res.exec_time}


def fig4_assemble(point_results: Sequence[dict],
                  quick: bool = False) -> ExperimentResult:
    """Fold the sweep-point payloads into the Figure-4 result.

    Paper claims: (a) at 0% cached, adding processors is very effective;
    (b) at 100% cached it barely matters; (c) the I/O-node count is not
    very effective for this application; (d) caching more integrals is the
    better lever at small/moderate processor counts.
    """
    fractions, procs, io_nodes, _ = _params(quick)
    exp = ExperimentResult(
        exp_id="fig4",
        title="SCF 3.0: balanced I/O (percentage of cached integrals)",
        paper_reference="Figure 4 [0% cached: procs very effective; 100% "
                        "cached: procs ineffective; I/O-node count minor]",
    )
    values: Dict[Tuple[int, int, float], float] = {
        (r["n_io"], r["p"], r["cached_fraction"]): r["exec_time"]
        for r in point_results}
    for n_io in io_nodes:
        for p in procs:
            s = Series(f"P={p}, {n_io}io")
            for f in fractions:
                s.add(f * 100, values[(n_io, p, f)])
            exp.series.append(s)

    nio0 = io_nodes[0]
    p_small, p_big = procs[0], procs[-1]
    # (a) full-recompute: processors very effective.
    speedup_recompute = (values[(nio0, p_small, 0.0)]
                         / values[(nio0, p_big, 0.0)])
    exp.add_check("0% cached: processors are very effective (speedup > 2x)",
                  speedup_recompute > 2.0)
    # (b) full-disk: processors make no significant difference.
    speedup_cached = (values[(nio0, p_small, 1.0)]
                      / values[(nio0, p_big, 1.0)])
    exp.add_check("100% cached: processors not significant (speedup < 1.5x)",
                  speedup_cached < 1.5)
    exp.add_check("processor effectiveness much higher at 0% than 100%",
                  speedup_recompute > 1.8 * speedup_cached)
    # (d) caching wins at small/moderate processor counts.
    exp.add_check("caching integrals beats recompute at small P",
                  values[(nio0, p_small, 1.0)] < values[(nio0, p_small, 0.0)])
    # (c) I/O-node count minor (full mode only).
    if len(io_nodes) > 1:
        diffs: List[float] = []
        for p in procs:
            for f in fractions:
                a, b = values[(16, p, f)], values[(64, p, f)]
                diffs.append(abs(a - b) / max(a, b))
        exp.add_check("I/O-node count changes exec by <25% on average",
                      sum(diffs) / len(diffs) < 0.25)
        exp.notes.append(f"mean |16io-64io| relative difference: "
                         f"{sum(diffs)/len(diffs):.1%}")
    exp.notes.append(f"P={p_small}->{p_big} speedup: {speedup_recompute:.1f}x "
                     f"at 0% cached vs {speedup_cached:.2f}x at 100% cached")
    return exp
