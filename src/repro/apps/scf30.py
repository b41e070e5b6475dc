"""SCF 3.0: semi-direct Hartree-Fock with *balanced I/O* (NWChem 3.0).

The 3.0 release adds the paper's "balanced I/O" knob (§4.3): the user
chooses what fraction *f* of the integrals is cached on disk; the rest is
recomputed every iteration.  Integrals are arranged most-to-least
expensive so the cached ones are the costly ones, and after the write
phase the per-rank file sizes are balanced to within 10 % or 1 MB.

Iteration structure per rank:

* iteration 1 — evaluate *all* integrals (cost follows a linear
  most-to-least-expensive profile), write the top *f* fraction to a
  private file, then participate in file balancing;
* iterations 2..K — prefetch-read the cached integrals (overlapped with
  the Fock contraction), recompute the remaining ``1-f`` (which are, by
  construction, the cheap ones).

The interface is PASSION with prefetching throughout — the paper states
both were applied to SCF 3.0 as well; the *studied* variable here is
``cached_fraction`` (Figure 4's x-axis) against processor and I/O-node
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.apps.base import AppMetadata, AppResult
from repro.iolib.passion import PassionIO, PrefetchReader
from repro.machine.machine import Machine, MachineConfig
from repro.machine.params import KB, MB
from repro.mp.comm import Communicator
from repro.trace import TraceCollector

__all__ = ["SCF30Config", "METADATA", "run_scf30", "rank_eval_skew",
           "balanced_sizes"]

METADATA = AppMetadata(
    name="SCF 3.0",
    source="PNL",
    lines=19_000,
    description="self consistent field computation",
    platform="Paragon",
    io_type="writes integrals to disk, and reads them",
)


@dataclass(frozen=True)
class SCF30Config:
    """One SCF 3.0 run configuration."""

    n_basis: int = 140
    #: Fraction of integrals cached on disk (the balanced-I/O knob).
    cached_fraction: float = 0.9
    n_iterations: int = 15
    buffer_bytes: int = 128 * KB
    screening_survival: float = 0.024
    bytes_per_integral: int = 16
    #: Integral evaluation cost declines linearly from most to least
    #: expensive: cost(q) = min + (max-min)(1-q) for quantile q.  The
    #: values are *sustained-equivalent* flops: integral evaluation is
    #: branchy scalar code that ran the i860 far below its vector rate, so
    #: its cost is expressed at the machine's calibrated Mflops.
    eval_flops_max: float = 3000.0
    eval_flops_min: float = 1500.0
    #: Fock contraction per integral per iteration (3.0's build is far
    #: leaner than 1.1's).
    fock_flops_per_integral: float = 60.0
    #: Per-rank multiplicative skew of evaluation work before balancing.
    eval_imbalance: float = 0.25
    balance_files: bool = True
    balance_tolerance_frac: float = 0.10
    balance_tolerance_bytes: int = 1 * MB
    prefetch_depth: int = 2
    measured_read_iters: Optional[int] = None
    keep_trace_records: bool = False

    def __post_init__(self):
        if not 0.0 <= self.cached_fraction <= 1.0:
            raise ValueError("cached_fraction must be in [0, 1]")

    def with_(self, **kw) -> "SCF30Config":
        return replace(self, **kw)

    @property
    def read_iters_to_run(self) -> int:
        full = self.n_iterations - 1
        if self.measured_read_iters is None:
            return full
        return min(self.measured_read_iters, full)

    @property
    def extrapolation_factor(self) -> float:
        ran = self.read_iters_to_run
        return (self.n_iterations - 1) / ran if ran else 1.0

    # -- derived workload quantities -------------------------------------------
    @property
    def total_integrals(self) -> int:
        return int(self.screening_survival * self.n_basis ** 4)

    @property
    def eval_flops_mean(self) -> float:
        return 0.5 * (self.eval_flops_max + self.eval_flops_min)

    def recompute_flops_per_integral(self) -> float:
        """Mean evaluation cost of the *recomputed* (cheap) tail.

        With the linear cost profile, the integrals beyond quantile *f*
        average ``min + (max-min)(1-f)/2``.
        """
        f = self.cached_fraction
        return (self.eval_flops_min
                + (self.eval_flops_max - self.eval_flops_min) * (1 - f) / 2)


def rank_eval_skew(rank: int, n_procs: int, amplitude: float) -> float:
    """Deterministic per-rank work multiplier in [1-a, 1+a].

    A fixed pseudo-random pattern (irrational rotation) stands in for the
    data-dependent imbalance of integral evaluation.
    """
    if n_procs == 1:
        return 1.0
    phase = math.sin(2.399963 * (rank + 1))
    return 1.0 + amplitude * phase


def balanced_sizes(sizes, tolerance_frac: float, tolerance_bytes: int):
    """Apply the 3.0 balancing rule: clamp sizes toward the mean until
    every file is within max(tolerance_frac·mean, tolerance_bytes)."""
    sizes = list(sizes)
    mean = sum(sizes) / len(sizes)
    tol = max(tolerance_frac * mean, tolerance_bytes)
    out = []
    for s in sizes:
        if s > mean + tol:
            out.append(int(mean + tol))
        elif s < mean - tol:
            out.append(int(mean - tol))
        else:
            out.append(int(s))
    return out


def _chunks_of(total_bytes: int, chunk: int):
    done = 0
    while done < total_bytes:
        n = min(chunk, total_bytes - done)
        yield n
        done += n


def _rank_program(rank: int, comm: Communicator, config: SCF30Config,
                  interface: PassionIO, io_times: Dict[int, float],
                  phase_info: Dict[str, float]):
    env = comm.env
    node = comm.machine.compute_node(comm.node_of(rank))
    P = comm.size
    ints_total = config.total_integrals
    my_ints = ints_total // P + (1 if rank < ints_total % P else 0)
    skew = rank_eval_skew(rank, P, config.eval_imbalance)
    f = config.cached_fraction

    # Pre-balance cached file sizes mirror the evaluation skew.
    raw_sizes = [
        int((ints_total // P + (1 if r < ints_total % P else 0))
            * f * config.bytes_per_integral
            * rank_eval_skew(r, P, config.eval_imbalance))
        for r in range(P)
    ]
    if config.balance_files:
        final_sizes = balanced_sizes(raw_sizes, config.balance_tolerance_frac,
                                     config.balance_tolerance_bytes)
    else:
        final_sizes = raw_sizes
    my_raw = raw_sizes[rank]
    my_final = final_sizes[rank]

    # I/O generators are timed inline (t0/io_t), as in SCF 1.1: a timing
    # wrapper generator would add one frame to every event resume
    # underneath it.
    io_t = 0.0

    # ---- iteration 1: evaluate everything, write the cached fraction ----
    t0 = env.now
    f_cached = yield from interface.open(rank, f"scf30.ints.{rank}",
                                         create=True)
    io_t += env.now - t0
    eval_flops = my_ints * config.eval_flops_mean * skew
    write_bytes = my_raw
    # Interleave evaluation with buffered writes, as the real code does.
    n_chunks = max(1, -(-write_bytes // config.buffer_bytes)) \
        if write_bytes else 1
    flops_per_chunk = eval_flops / n_chunks
    if write_bytes:
        for nbytes in _chunks_of(write_bytes, config.buffer_bytes):
            yield from node.compute(flops_per_chunk)
            t0 = env.now
            yield from f_cached.seek_write(f_cached.position, nbytes)
            io_t += env.now - t0
    else:
        yield from node.compute(eval_flops)

    # ---- file balancing: ship surplus integrals to deficit ranks ----
    if config.balance_files and write_bytes:
        surplus = max(0, my_raw - my_final)
        sizes = {}
        payloads = {}
        if surplus:
            # Send surplus round-robin to the most under-mean ranks.
            under = [r for r in range(P) if final_sizes[r] > raw_sizes[r]]
            if under:
                share = surplus // len(under)
                for r in under:
                    if share:
                        sizes[r] = share
                        payloads[r] = share
        inbound = yield from comm.alltoallv(rank, payloads, sizes)
        extra = sum(inbound.values())
        if extra:
            t0 = env.now
            yield from f_cached.seek_write(f_cached.position, extra)
            io_t += env.now - t0
        if surplus:
            # Truncation is metadata-only; charge one seek.
            t0 = env.now
            yield from f_cached.seek(my_final)
            io_t += env.now - t0
    yield from comm.barrier(rank)
    phase_info["write_end"] = env.now
    write_io = io_t

    # ---- iterations 2..K: read cached + recompute the cheap tail ----
    cached_bytes = my_final
    recompute_ints = my_ints * (1 - f)
    recompute_flops = (recompute_ints * config.recompute_flops_per_integral()
                       * skew)
    fock_flops = my_ints * config.fock_flops_per_integral
    cached_ints = cached_bytes / config.bytes_per_integral
    fock_cached = (cached_ints / max(1.0, my_ints)) * fock_flops
    fock_recomputed = fock_flops - fock_cached

    for _ in range(config.read_iters_to_run):
        pf = None
        if cached_bytes:
            pf = PrefetchReader(f_cached, config.buffer_bytes,
                                depth=config.prefetch_depth,
                                total_bytes=cached_bytes, start_offset=0)
            yield from pf.prime()
        # Recompute phase first: the prefetched reads overlap with it.
        if recompute_flops > 0 or fock_recomputed > 0:
            yield from node.compute(recompute_flops + fock_recomputed)
        if pf is not None:
            n_chunks = max(1, -(-cached_bytes // config.buffer_bytes))
            fock_per_chunk = fock_cached / n_chunks
            while True:
                _, nbytes = yield from pf.next_chunk()
                if nbytes == 0:
                    break
                yield from node.compute(fock_per_chunk)
            io_t += pf.accounted_io_time
        yield from comm.barrier(rank)

    t0 = env.now
    yield from f_cached.close()
    io_t += env.now - t0
    factor = config.extrapolation_factor
    io_times[rank] = write_io + (io_t - write_io) * factor
    return io_times[rank]


def run_scf30(machine_config: MachineConfig, config: SCF30Config,
              n_procs: int) -> AppResult:
    """Run SCF 3.0 on a fresh machine."""
    from repro.pfs import PFS

    machine = Machine(machine_config)
    fs = PFS(machine)
    trace = TraceCollector(keep_records=config.keep_trace_records)
    interface = PassionIO(fs, trace=trace)
    comm = Communicator(machine, n_procs)
    io_times: Dict[int, float] = {}
    phase_info: Dict[str, float] = {}
    procs = comm.spawn(_rank_program, config, interface, io_times, phase_info)
    machine.env.run(machine.env.all_of(procs))
    factor = config.extrapolation_factor
    write_end = phase_info.get("write_end", machine.env.now)
    exec_time = write_end + (machine.env.now - write_end) * factor
    return AppResult(
        app="scf30",
        version=f"cached={config.cached_fraction:.0%}",
        n_procs=n_procs,
        n_io=machine_config.n_io,
        exec_time=exec_time,
        io_time_per_rank=io_times,
        trace=trace,
        extra={
            "cached_fraction": config.cached_fraction,
            "cached_bytes_total": float(sum(
                int((config.total_integrals // n_procs)
                    * config.cached_fraction * config.bytes_per_integral)
                for _ in range(n_procs))),
        },
    )
