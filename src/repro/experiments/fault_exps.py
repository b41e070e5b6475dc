"""fig_faults: the paper's headline results on a degraded machine.

The paper's Figure 2 (SCF disk-vs-direct crossover) and Figure 7 (BTIO
collective-I/O bandwidth) both assume a healthy machine.  This
experiment re-runs a representative configuration of each under every
:mod:`repro.faults` fault class and reports how the headline quantity
shifts:

* **SCF half** (Figure-2 story): SMALL input, P=4 on a 4-I/O-node small
  Paragon, ``prefetch`` (disk) vs ``direct`` (recompute) versions,
  metric = execution time.  Fault-free, the disk version wins; under a
  4x disk degradation the crossover *flips* — ``direct`` touches no
  disk and is immune, which is precisely the paper's observation that
  users abandon out-of-core versions when the I/O system underperforms.
* **BTIO half** (Figure-7 story): class B, collective I/O, P=4 on the
  SP-2, metric = aggregate I/O bandwidth (Figure 7's definition).
  An I/O-node crash halves bandwidth (the survivor serves a double
  stripe load from its failover region), a disk degradation shows the
  back-pressure of the write-behind buffer, and a fabric partition
  spanning the dump window is catastrophic.  Cache loss is neutral —
  a write-dominated workload has nothing to lose — which the checks
  pin down as a (documented) non-effect.

Fault timing constants are absolute simulated seconds, chosen inside
the *measured* span of each scenario (both apps extrapolate from a few
measured iterations/dumps, so wall-time-looking exec times are much
larger than the simulated span; a fault scheduled past the span would
never fire).

Every sweep point embeds its ``FaultPlan.to_dict()`` under ``"plan"``,
so the plan participates in the content-addressed result-cache key like
any other config field.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.experiments.results import ExperimentResult, Series

__all__ = ["fig_faults_points", "fig_faults_run_point",
           "fig_faults_assemble", "FAULT_KINDS"]

#: Fault classes swept by the experiment, in series order.
FAULT_KINDS = ("none", "crash", "degrade", "jitter", "partition",
               "cacheloss")

#: Deterministic jitter seed (any fixed value; part of the cache key).
_JITTER_SEED = 7
#: A window end far past every scenario's span ("for the whole run").
_FOREVER = 1.0e9

#: SCF scenario: SMALL input, P=4, small Paragon with a 4-node I/O
#: partition.  Measured span is ~29 s (1 read iter) / ~48 s (2), so all
#: times below land inside the write phase or the first read pass.
_SCF_P = 4
_SCF_N_IO = 4
_SCF_INPUT = "SMALL"
_SCF_VERSIONS = ("prefetch", "direct")

#: BTIO scenario: class B, collective, P=4 on the SP-2 (4 I/O nodes).
#: The measured span per dump is ~267 s, nearly all of it solver
#: compute; the dump's I/O burst is the final ~2 s (t in [265, 267)).
_BTIO_P = 4
_BTIO_CLASS = "B"
_BTIO_VERSION = "collective"


def _scf_plan(fault: str) -> Optional[dict]:
    if fault == "none":
        return None
    spec = {
        "crash": faults.ionode_crash(at=5.0, io_index=1),
        "degrade": faults.disk_degrade(start=0.0, end=_FOREVER, factor=4.0),
        "jitter": faults.fabric_jitter(start=0.0, end=_FOREVER,
                                       max_jitter_s=2.0e-4),
        "partition": faults.fabric_partition(start=8.0, end=14.0,
                                             group=[0]),
        "cacheloss": faults.cache_loss(at=12.0),
    }[fault]
    return faults.FaultPlan(faults=(spec,), seed=_JITTER_SEED).to_dict()


def _btio_plan(fault: str) -> Optional[dict]:
    if fault == "none":
        return None
    spec = {
        "crash": faults.ionode_crash(at=66.0, io_index=1),
        "degrade": faults.disk_degrade(start=0.0, end=_FOREVER, factor=4.0),
        "jitter": faults.fabric_jitter(start=0.0, end=_FOREVER,
                                       max_jitter_s=2.0e-4),
        # Covers the first dump's I/O burst; crossing messages stall
        # until the partition heals at t=290.
        "partition": faults.fabric_partition(start=260.0, end=290.0,
                                             group=[0]),
        "cacheloss": faults.cache_loss(at=265.5),
    }[fault]
    return faults.FaultPlan(faults=(spec,), seed=_JITTER_SEED).to_dict()


def fig_faults_points(quick: bool = False) -> List[dict]:
    """The fault sweep's points as declared config dicts."""
    read_iters = 1 if quick else 2
    dumps = 1 if quick else 2
    points: List[dict] = []
    for version in _SCF_VERSIONS:
        for fault in FAULT_KINDS:
            points.append({
                "scenario": "scf", "version": version, "fault": fault,
                "p": _SCF_P, "n_io": _SCF_N_IO, "input": _SCF_INPUT,
                "read_iters": read_iters, "plan": _scf_plan(fault),
            })
    for fault in FAULT_KINDS:
        points.append({
            "scenario": "btio", "version": _BTIO_VERSION, "fault": fault,
            "p": _BTIO_P, "class": _BTIO_CLASS, "dumps": dumps,
            "plan": _btio_plan(fault),
        })
    return points


def fig_faults_run_point(point: dict) -> dict:
    """Simulate one fault-sweep configuration; returns a JSON-able payload."""
    if point["scenario"] == "scf":
        from repro.apps.scf11 import SCF11Config, SCF11_INPUTS, run_scf11
        from repro.machine.presets import paragon_small

        config = SCF11Config(n_basis=SCF11_INPUTS[point["input"]],
                             version=point["version"],
                             measured_read_iters=point["read_iters"])
        res = run_scf11(paragon_small(n_compute=point["p"],
                                      n_io=point["n_io"]),
                        config, point["p"], fault_plan=point["plan"])
        return {**point, "exec_time": res.exec_time}
    if point["scenario"] == "btio":
        from repro.apps.btio import BTIOConfig, run_btio
        from repro.machine.presets import sp2

        config = BTIOConfig(class_name=point["class"],
                            version=point["version"],
                            measured_dumps=point["dumps"])
        res = run_btio(sp2(n_compute=max(point["p"], 4)), config,
                       point["p"], fault_plan=point["plan"])
        return {**point, "exec_time": res.exec_time,
                "bw": res.bandwidth_mb_s(config.total_io_bytes)}
    raise ValueError(f"unknown fig_faults scenario {point['scenario']!r}")


def _index(point_results: Sequence[dict]
           ) -> Dict[Tuple[str, str, str], dict]:
    return {(r["scenario"], r["version"], r["fault"]): r
            for r in point_results}


def fig_faults_assemble(point_results: Sequence[dict],
                        quick: bool = False) -> ExperimentResult:
    """Fold the fault-sweep payloads into the experiment result."""
    by = _index(point_results)

    def scf(version: str, fault: str) -> float:
        return by[("scf", version, fault)]["exec_time"]

    def btio_bw(fault: str) -> float:
        return by[("btio", _BTIO_VERSION, fault)]["bw"]

    exp = ExperimentResult(
        exp_id="fig_faults",
        title="Figure-2 crossover and Figure-7 bandwidth under injected "
              "faults",
        paper_reference="Figures 2 and 7, re-run on a degraded machine "
                        "(fault classes: " + ", ".join(FAULT_KINDS[1:])
                        + ")",
    )
    xs = {fault: float(i) for i, fault in enumerate(FAULT_KINDS)}
    for version in _SCF_VERSIONS:
        s = Series(label=f"scf {version} exec (s)")
        for fault in FAULT_KINDS:
            s.add(xs[fault], scf(version, fault))
        exp.series.append(s)
    s = Series(label="btio collective bw (MB/s)")
    for fault in FAULT_KINDS:
        s.add(xs[fault], btio_bw(fault))
    exp.series.append(s)

    for r in point_results:
        if r["scenario"] == "scf":
            base = scf(r["version"], "none")
            exp.rows.append({
                "scenario": "scf", "version": r["version"],
                "fault": r["fault"],
                "exec_s": round(r["exec_time"], 2),
                "vs_fault_free": round(r["exec_time"] / base, 3)})
        else:
            base = btio_bw("none")
            exp.rows.append({
                "scenario": "btio", "version": r["version"],
                "fault": r["fault"], "bw_mb_s": round(r["bw"], 3),
                "vs_fault_free": round(r["bw"] / base, 3)})

    eps = 1.0e-9
    # -- SCF: the Figure-2 crossover and its flip -------------------------
    exp.add_check("scf fault-free: disk (prefetch) beats direct",
                  scf("prefetch", "none") < scf("direct", "none"))
    exp.add_check("scf degraded disks: crossover flips to direct",
                  scf("prefetch", "degrade") > scf("direct", "degrade"))
    exp.add_check("scf crash slows the disk version >= 5%",
                  scf("prefetch", "crash") >= 1.05 * scf("prefetch", "none"))
    exp.add_check("scf degrade slows the disk version >= 50%",
                  scf("prefetch", "degrade")
                  >= 1.5 * scf("prefetch", "none"))
    exp.add_check("scf partition slows the disk version",
                  scf("prefetch", "partition")
                  >= 1.005 * scf("prefetch", "none"))
    exp.add_check("scf no fault ever speeds up the disk version",
                  all(scf("prefetch", f)
                      >= scf("prefetch", "none") * (1.0 - eps)
                      for f in FAULT_KINDS))
    exp.add_check("scf direct is immune to disk/cache faults",
                  all(abs(scf("direct", f) - scf("direct", "none"))
                      <= eps * scf("direct", "none")
                      for f in ("crash", "degrade", "cacheloss")))
    # -- BTIO: Figure-7 bandwidth under each fault class ------------------
    exp.add_check("btio crash costs >= 30% bandwidth",
                  btio_bw("crash") <= 0.7 * btio_bw("none"))
    exp.add_check("btio degrade costs >= 40% bandwidth",
                  btio_bw("degrade") <= 0.6 * btio_bw("none"))
    exp.add_check("btio dump-window partition costs >= 50% bandwidth",
                  btio_bw("partition") <= 0.5 * btio_bw("none"))
    exp.add_check("btio no fault ever improves bandwidth",
                  all(btio_bw(f) <= btio_bw("none") * (1.0 + eps)
                      for f in FAULT_KINDS))
    exp.add_check("btio jitter/cache loss are benign (< 3%)",
                  all(btio_bw(f) >= 0.97 * btio_bw("none")
                      for f in ("jitter", "cacheloss")))

    exp.notes.append(
        "x axis indexes the fault class: "
        + ", ".join(f"{i}={f}" for i, f in enumerate(FAULT_KINDS)))
    exp.notes.append(
        "cache loss is neutral by design here: both scenarios are "
        "write-dominated in the faulted window, so there is no warm "
        "read cache to lose")
    return exp
