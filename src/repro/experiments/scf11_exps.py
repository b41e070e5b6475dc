"""SCF 1.1 experiments: Tables 2/3, Figures 1-3 and §5 disk vs direct.

Each figure is a sweep: ``*_points`` declares its configurations,
``*_run_point`` simulates one and ``*_assemble`` folds the payloads into
the result; :data:`repro.experiments.registry.EXPERIMENTS` pairs the
three into one ``Experiment``.  The tables are a single simulation each
and are registered as one-point sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps.scf11 import SCF11Config, SCF11_INPUTS, run_scf11
from repro.experiments.results import ExperimentResult, Series, crossover
from repro.experiments.shared import shared
from repro.machine.params import KB
from repro.machine.presets import paragon_large
from repro.trace import IOOp, IOSummary, summarize

__all__ = ["ConfigTuple", "FIG1_TUPLES", "run_tuple", "table2", "table3",
           "fig1_points", "fig1_run_point", "fig1_assemble",
           "fig2_points", "fig2_run_point", "fig2_assemble",
           "fig_direct_points", "fig_direct_assemble",
           "fig3_points", "fig3_run_point", "fig3_assemble"]

#: Version letter -> SCF11Config.version
_VERSIONS = {"O": "original", "P": "passion", "F": "prefetch"}


@dataclass(frozen=True)
class ConfigTuple:
    """The paper's five-tuple (V, P, M, Su, Sf)."""

    name: str
    version: str          # O | P | F
    n_procs: int
    memory_kb: int        # application buffer M
    stripe_kb: int        # stripe unit Su
    n_io: int             # stripe factor Sf

    def __str__(self) -> str:
        return (f"{self.name}-({self.version},{self.n_procs},"
                f"{self.memory_kb},{self.stripe_kb},{self.n_io})")


#: Figure 1's configurations I-VII.  Tuple V is garbled in the source
#: text (the list jumps IV -> VI); we interpolate V = (F,32,256,64,16).
FIG1_TUPLES = [
    ConfigTuple("I", "O", 4, 64, 64, 12),
    ConfigTuple("II", "P", 4, 64, 64, 12),
    ConfigTuple("III", "F", 4, 64, 64, 12),
    ConfigTuple("IV", "F", 32, 256, 64, 12),
    ConfigTuple("V", "F", 32, 256, 64, 16),
    ConfigTuple("VI", "F", 32, 256, 128, 12),
    ConfigTuple("VII", "F", 32, 256, 128, 16),
]


def run_tuple(tup: ConfigTuple, n_basis: int,
              measured_read_iters: Optional[int] = 2):
    """Run one Figure-1 configuration; returns the AppResult."""
    config = SCF11Config(
        n_basis=n_basis,
        version=_VERSIONS[tup.version],
        buffer_bytes=tup.memory_kb * KB,
        measured_read_iters=measured_read_iters,
    )
    machine = paragon_large(n_compute=max(tup.n_procs, 4), n_io=tup.n_io,
                            stripe_unit=tup.stripe_kb * KB)
    return run_scf11(machine, config, tup.n_procs)


@shared
def _summary_table(version: str,
                   measured_read_iters: int) -> Tuple[float, IOSummary]:
    """Exec time and I/O summary of one LARGE/P=4 run (Tables 2 and 3)."""
    config = SCF11Config(n_basis=SCF11_INPUTS["LARGE"], version=version,
                         measured_read_iters=measured_read_iters)
    result = run_scf11(paragon_large(n_compute=4, n_io=12), config, 4)
    # The paper's tables aggregate per-op times over all 4 processors
    # against the (wall) execution time.
    return result.exec_time, summarize(result.trace, result.exec_time * 4)


#: Paper values for shape checks: (reads, read GB, read % of I/O time).
_TABLE2_PAPER = dict(reads=566_315, read_gb=37.0, read_pct=95.56,
                     io_pct_exec=54.06, writes=40_331, write_gb=2.5)
_TABLE3_PAPER = dict(reads=566_330, read_gb=37.0, read_pct=95.38,
                     io_pct_exec=39.56, writes=40_336, write_gb=2.5,
                     seeks=604_342)


def table2(quick: bool = False) -> ExperimentResult:
    """Table 2: I/O summary of the original SCF 1.1, LARGE, 4 procs."""
    miters = 1 if quick else 3
    exec_time, summary = _summary_table("original", miters)
    exp = ExperimentResult(
        exp_id="table2",
        title="SCF 1.1 original version I/O summary (LARGE, 4 procs)",
        paper_reference="Table 2 [total I/O time 4.4 h; reads 95.6% of "
                        "I/O time, 54% of exec time]",
        text=summary.to_text("Simulated Table 2 (Fortran I/O)"),
    )
    rd = summary.row(IOOp.READ)
    exp.rows.append({"reads": rd.count,
                     "read_time_s": round(rd.time_s, 1),
                     "read_gb": round(rd.volume_gb, 1),
                     "exec_s": round(exec_time, 1)})
    exp.add_check("read op count within 15% of paper",
                  abs(rd.count - _TABLE2_PAPER["reads"])
                  / _TABLE2_PAPER["reads"] < 0.15)
    exp.add_check("read volume within 15% of paper (37 GB)",
                  abs(rd.volume_gb - _TABLE2_PAPER["read_gb"]) / 37.0 < 0.15)
    exp.add_check("reads dominate I/O time (>90%)", rd.pct_io_time > 90.0)
    exp.add_check("I/O is a large fraction of exec (>35%)",
                  summary.all.pct_exec_time > 35.0)
    return exp


def table3(quick: bool = False) -> ExperimentResult:
    """Table 3: I/O summary of the PASSION SCF 1.1, LARGE, 4 procs."""
    miters = 1 if quick else 3
    _, orig_summary = _summary_table("original", miters)
    _, pas_summary = _summary_table("passion", miters)
    exp = ExperimentResult(
        exp_id="table3",
        title="SCF 1.1 PASSION version I/O summary (LARGE, 4 procs)",
        paper_reference="Table 3 [total I/O time 2.5 h vs 4.4 h original; "
                        "~604k seeks at negligible cost]",
        text=pas_summary.to_text("Simulated Table 3 (PASSION I/O)"),
    )
    rd = pas_summary.row(IOOp.READ)
    sk = pas_summary.row(IOOp.SEEK)
    exp.rows.append({"reads": rd.count,
                     "read_time_s": round(rd.time_s, 1),
                     "seeks": sk.count,
                     "seek_time_s": round(sk.time_s, 1)})
    ratio = orig_summary.all.time_s / max(pas_summary.all.time_s, 1e-9)
    exp.add_check("PASSION cuts total I/O time (paper: 1.78x; accept >1.3x)",
                  ratio > 1.3)
    exp.add_check("PASSION does one seek per read+write (~600k)",
                  abs(sk.count - (rd.count + pas_summary.row(IOOp.WRITE).count))
                  <= pas_summary.row(IOOp.OPEN).count * 4 + 64)
    exp.add_check("seek cost is negligible (<2% of I/O time)",
                  sk.pct_io_time < 2.0)
    exp.add_check("reads still dominate I/O time (>90%)",
                  rd.pct_io_time > 90.0)
    exp.notes.append(f"original/PASSION I/O time ratio = {ratio:.2f} "
                     f"(paper: 63087/35444 = 1.78)")
    return exp


def _fig1_params(quick: bool) -> Tuple[Dict[str, int], int]:
    inputs = {"SMALL": SCF11_INPUTS["SMALL"]} if quick else dict(SCF11_INPUTS)
    miters = 1 if quick else 2
    return inputs, miters


def fig1_points(quick: bool = False) -> List[dict]:
    """Figure 1's sweep points as declared config dicts."""
    inputs, miters = _fig1_params(quick)
    return [{"input": label, "n_basis": n_basis, "tuple_index": idx,
             "tuple": tup.name, "measured_read_iters": miters}
            for label, n_basis in inputs.items()
            for idx, tup in enumerate(FIG1_TUPLES)]


def fig1_run_point(point: dict) -> dict:
    """Simulate one Figure-1 configuration; returns a JSON-able payload."""
    res = run_tuple(FIG1_TUPLES[point["tuple_index"]], point["n_basis"],
                    measured_read_iters=point["measured_read_iters"])
    return {**point, "exec_time": res.exec_time, "io_time": res.io_time}


def fig1_assemble(point_results: Sequence[dict],
                  quick: bool = False) -> ExperimentResult:
    """Fold the sweep-point payloads into the Figure-1 result."""
    inputs, _ = _fig1_params(quick)
    by_point: Dict[Tuple[str, int], dict] = {
        (r["input"], r["tuple_index"]): r for r in point_results}
    exp = ExperimentResult(
        exp_id="fig1",
        title="SCF 1.1: impact of optimizations, config tuples I-VII",
        paper_reference="Figure 1 [application-level factors dominate "
                        "system-level factors at small processor counts]",
    )
    for label in inputs:
        s_exec = Series(f"{label} exec")
        s_io = Series(f"{label} io")
        per_tuple: Dict[str, Tuple[float, float]] = {}
        for idx, tup in enumerate(FIG1_TUPLES):
            r = by_point[(label, idx)]
            s_exec.add(idx + 1, r["exec_time"])
            s_io.add(idx + 1, r["io_time"])
            per_tuple[tup.name] = (r["exec_time"], r["io_time"])
            exp.rows.append({"input": label, "tuple": str(tup),
                             "exec_s": round(r["exec_time"], 1),
                             "io_s": round(r["io_time"], 1)})
        exp.series.extend([s_exec, s_io])
        # Application-level steps: O->P (interface), P->F (prefetch).
        exp.add_check(
            f"{label}: PASSION interface beats original (I > II)",
            per_tuple["I"][0] > per_tuple["II"][0])
        exp.add_check(
            f"{label}: prefetching further reduces exec (II > III)",
            per_tuple["II"][0] > per_tuple["III"][0])
        # System-level steps (stripe unit, I/O nodes) are second-order
        # relative to the O->F jump.
        soft_gain = per_tuple["I"][0] - per_tuple["III"][0]
        sys_span = max(abs(per_tuple["IV"][0] - per_tuple[v][0])
                       for v in ("V", "VI", "VII"))
        exp.add_check(
            f"{label}: software factors dominate system factors",
            soft_gain > 2 * sys_span)
    exp.notes.append("tuple V interpolated as (F,32,256,64,16); the source "
                     "text omits it")
    return exp


#: (series label, SCF11Config.version, I/O-node count) for Figure 2.
_FIG2_VARIANTS = [("unopt 16io", "original", 16),
                  ("unopt 64io", "original", 64),
                  ("opt 16io", "prefetch", 16),
                  ("opt 64io", "prefetch", 64)]


class SCFRun(NamedTuple):
    """What Figures 2 and 3 read from one SCF 1.1 run."""

    exec_time: float
    io_time: float


@shared
def _scaling_run(n_basis: int, version: str, n_io: int, p: int,
                 measured_read_iters: int) -> SCFRun:
    """Simulate one Figure-2/3 run; the figures share identical runs."""
    config = SCF11Config(n_basis=n_basis, version=version,
                         measured_read_iters=measured_read_iters)
    res = run_scf11(paragon_large(n_compute=max(p, 4), n_io=n_io),
                    config, p)
    return SCFRun(res.exec_time, res.io_time)


def _fig2_params(quick: bool) -> Tuple[int, List[int], int]:
    n_basis = SCF11_INPUTS["MEDIUM" if quick else "LARGE"]
    procs = [4, 16, 64] if quick else [4, 16, 64, 128, 256]
    miters = 1 if quick else 2
    return n_basis, procs, miters


def fig2_points(quick: bool = False) -> List[dict]:
    """Figure 2's sweep points as declared config dicts."""
    n_basis, procs, miters = _fig2_params(quick)
    return [{"label": label, "version": version, "n_io": n_io, "p": p,
             "n_basis": n_basis, "measured_read_iters": miters}
            for label, version, n_io in _FIG2_VARIANTS for p in procs]


def fig2_run_point(point: dict) -> dict:
    """Simulate one Figure-2 (or ``fig_direct``) configuration.

    Returns the point plus its execution time, a JSON-able payload.
    """
    run = _scaling_run(point["n_basis"], point["version"], point["n_io"],
                       point["p"], point["measured_read_iters"])
    return {**point, "exec_time": run.exec_time}


def fig2_assemble(point_results: Sequence[dict],
                  quick: bool = False) -> ExperimentResult:
    """Fold the sweep-point payloads into the Figure-2 result.

    The paper's claim: optimized (prefetch, 16 I/O nodes) wins up to 64
    processors; beyond that the unoptimized code on 64 I/O nodes wins —
    software can compensate for limited I/O resources only so far.
    """
    _, procs, _ = _fig2_params(quick)
    by_point: Dict[Tuple[str, int], dict] = {
        (r["label"], r["p"]): r for r in point_results}
    exp = ExperimentResult(
        exp_id="fig2",
        title="SCF 1.1 scalability: optimization vs I/O resources",
        paper_reference="Figure 2 [crossover at ~64 procs between "
                        "optimized/16-I/O-nodes and unoptimized/64]",
    )
    for label, version, n_io in _FIG2_VARIANTS:
        s = Series(label)
        for p in procs:
            s.add(p, by_point[(label, p)]["exec_time"])
        exp.series.append(s)
    opt16 = exp.series_by_label("opt 16io")
    unopt16 = exp.series_by_label("unopt 16io")
    unopt64 = exp.series_by_label("unopt 64io")
    small_p = procs[0]
    big_p = procs[-1]
    exp.add_check("optimized/16io wins at small processor counts",
                  opt16.y_at(small_p) < unopt64.y_at(small_p)
                  and opt16.y_at(small_p) < unopt16.y_at(small_p))
    if not quick:
        exp.add_check(
            "unoptimized/64io wins at 256 procs (architectural imbalance)",
            unopt64.y_at(big_p) < opt16.y_at(big_p))
        # Locate the crossover: the paper puts it at ~64 processors.
        cross = crossover(opt16.points, unopt64.points)
        exp.add_check(
            "opt-16io -> unopt-64io crossover lies in the 16..128 band "
            "(paper: ~64)",
            cross is not None and 16 <= cross <= 128)
        exp.notes.append(f"first processor count where unopt/64io beats "
                         f"opt/16io: {_procs(cross)}")
    exp.add_check("opt 64io is the best configuration up to 64 procs",
                  all(exp.series_by_label("opt 64io").y_at(p)
                      <= min(s.y_at(p) for s in exp.series) * 1.02
                      for p in procs if p <= 64))
    return exp


def _procs(p: Optional[float]) -> Optional[int]:
    """A processor count read back off a series, printed as an int."""
    return None if p is None else int(p)


#: (series label, SCF11Config.version) for the disk-vs-direct sweep.
_DIRECT_VARIANTS = [("disk 16io", "prefetch"), ("direct", "direct")]


def fig_direct_points(quick: bool = False) -> List[dict]:
    """Figure 2's grid at 16 I/O nodes, disk-based and direct versions.

    The disk-based points are the runs of Figure 2's "opt 16io" series,
    shared with it through ``_scaling_run``.
    """
    n_basis, procs, miters = _fig2_params(quick)
    return [{"label": label, "version": version, "n_io": 16, "p": p,
             "n_basis": n_basis, "measured_read_iters": miters}
            for label, version in _DIRECT_VARIANTS for p in procs]


def fig_direct_assemble(point_results: Sequence[dict],
                        quick: bool = False) -> ExperimentResult:
    """Fold the sweep-point payloads into the disk-vs-direct result.

    The paper's §5 claim: SCF 1.1 users ran the disk-based code at small
    processor counts and switched to the direct (recompute) code at
    large ones, where the I/O version "performs very poorly" — the I/O
    nodes saturate while recomputation keeps scaling.
    """
    _, procs, _ = _fig2_params(quick)
    by_point: Dict[Tuple[str, int], dict] = {
        (r["label"], r["p"]): r for r in point_results}
    exp = ExperimentResult(
        exp_id="fig_direct",
        title="SCF 1.1: disk-based vs direct (recompute) across "
              "processor counts",
        paper_reference="§5 [users ran the disk-based code at small "
                        "processor counts and the direct version at "
                        "large ones]",
    )
    for label, _ in _DIRECT_VARIANTS:
        s = Series(label)
        for p in procs:
            s.add(p, by_point[(label, p)]["exec_time"])
        exp.series.append(s)
    disk, direct = exp.series
    small_p, big_p = procs[0], procs[-1]
    cross = crossover(disk.points, direct.points)
    exp.add_check("disk-based wins at the smallest processor count",
                  disk.y_at(small_p) < direct.y_at(small_p))
    exp.add_check("direct wins at the largest processor count",
                  direct.y_at(big_p) < disk.y_at(big_p))
    exp.add_check(f"disk -> direct crossover lies in the 16..{big_p} band",
                  cross is not None and 16 <= cross <= big_p)
    exp.notes.append(f"first processor count where direct beats the "
                     f"disk-based code: {_procs(cross)}")
    return exp


def _fig3_params(quick: bool) -> Tuple[int, List[int], int]:
    n_basis = SCF11_INPUTS["MEDIUM" if quick else "LARGE"]
    procs = [4, 64] if quick else [4, 16, 64, 256]
    miters = 1 if quick else 2
    return n_basis, procs, miters


def fig3_points(quick: bool = False) -> List[dict]:
    """Figure 3's sweep points as declared config dicts."""
    n_basis, procs, miters = _fig3_params(quick)
    return [{"n_io": n_io, "p": p, "n_basis": n_basis,
             "measured_read_iters": miters}
            for n_io in (12, 16, 64) for p in procs]


def fig3_run_point(point: dict) -> dict:
    """Simulate one Figure-3 configuration; returns a JSON-able payload."""
    run = _scaling_run(point["n_basis"], "original", point["n_io"],
                       point["p"], point["measured_read_iters"])
    return {**point, "io_time": run.io_time}


def fig3_assemble(point_results: Sequence[dict],
                  quick: bool = False) -> ExperimentResult:
    """Fold the sweep-point payloads into the Figure-3 result."""
    _, procs, _ = _fig3_params(quick)
    by_point: Dict[Tuple[int, int], dict] = {
        (r["n_io"], r["p"]): r for r in point_results}
    exp = ExperimentResult(
        exp_id="fig3",
        title="SCF 1.1: effect of increasing I/O nodes",
        paper_reference="Figure 3 [more I/O nodes relieve contention, "
                        "especially at large processor counts]",
    )
    for n_io in (12, 16, 64):
        s = Series(f"{n_io} io nodes")
        for p in procs:
            s.add(p, by_point[(n_io, p)]["io_time"])
        exp.series.append(s)
    big_p = procs[-1]
    small_p = procs[0]
    io12 = exp.series_by_label("12 io nodes")
    io64 = exp.series_by_label("64 io nodes")
    gain_big = io12.y_at(big_p) / max(io64.y_at(big_p), 1e-9)
    gain_small = io12.y_at(small_p) / max(io64.y_at(small_p), 1e-9)
    exp.add_check("more I/O nodes help at the largest processor count",
                  gain_big > 1.15)
    exp.add_check("I/O-node benefit grows with processor count",
                  gain_big > gain_small)
    exp.notes.append(f"12->64 I/O-node speedup: {gain_small:.2f}x at "
                     f"P={small_p}, {gain_big:.2f}x at P={big_p}")
    return exp
