"""SCF 1.1: disk-based Hartree-Fock self-consistent field (NWChem 1.1).

Workload structure (paper §2, §4.2):

* ``N`` basis functions yield ``survival · N⁴`` two-electron integrals
  after screening; each is ~300–500 flops to evaluate and 16 bytes on
  disk (packed value + index label).
* Iteration 1 ("write phase"): every rank evaluates its share of the
  integrals and writes them to a **private file**, buffered into chunks of
  the application buffer size *M* (the paper's configuration tuples).
* Iterations 2..K ("read phase"): every rank re-reads its private file in
  its entirety, chunk by chunk, contracting each chunk into the Fock
  matrix.

The three versions match the paper's (V) axis:

* ``original`` — Fortran record I/O, implicit sequential positioning
  (Table 2's profile: hordes of reads, almost no seeks).
* ``passion``  — PASSION direct calls, explicit seek-per-access
  (Table 3's profile: one seek per read/write, far cheaper calls).
* ``prefetch`` — PASSION calls plus pipelined prefetch of the next chunk
  overlapped with the Fock computation; the accounted I/O time includes
  issue, wait and copy components, as the paper specifies.
* ``direct`` — no disk at all: integrals are re-evaluated on every
  iteration.  The paper notes real users switched to this version at
  large processor counts, where the I/O version "performs very poorly" —
  the disk-vs-direct crossover is itself an architectural-balance story
  (the ``fig_direct`` experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.apps.base import AppMetadata, AppResult
from repro.iolib.fortranio import FortranIO
from repro.iolib.passion import PassionIO, PrefetchReader
from repro.machine.machine import Machine, MachineConfig
from repro.machine.params import KB
from repro.mp.comm import Communicator
from repro.trace import TraceCollector

__all__ = ["SCF11Config", "SCF11_INPUTS", "METADATA", "run_scf11",
           "total_integrals", "integral_file_bytes"]

METADATA = AppMetadata(
    name="SCF 1.1",
    source="PNL",
    lines=16_500,
    description="self consistent field computation",
    platform="Paragon",
    io_type="writes integrals to disk, and reads them",
)

#: Paper problem sizes (number of basis functions N).
SCF11_INPUTS = {"SMALL": 108, "MEDIUM": 140, "LARGE": 285}


@dataclass(frozen=True)
class SCF11Config:
    """One SCF 1.1 run configuration (the paper's five-tuple, expanded)."""

    n_basis: int = 285
    version: str = "original"          # original | passion | prefetch
    buffer_bytes: int = 64 * KB        # the tuple's M
    n_iterations: int = 15             # 1 write pass + 14 read passes
    #: Fraction of N^4 integrals surviving screening (calibrated so the
    #: LARGE input produces the paper's 2.5 GB file / 37 GB read volume).
    screening_survival: float = 0.024
    bytes_per_integral: int = 16
    eval_flops_per_integral: float = 450.0
    fock_flops_per_integral: float = 900.0
    prefetch_depth: int = 2
    keep_trace_records: bool = False
    #: Simulate only this many read iterations and extrapolate to
    #: ``n_iterations - 1`` (read passes are statistically identical, so
    #: linear extrapolation is exact up to cache warm-up).  None = all.
    measured_read_iters: Optional[int] = None

    def with_(self, **kw) -> "SCF11Config":
        return replace(self, **kw)

    @property
    def read_iters_to_run(self) -> int:
        full = self.n_iterations - 1
        if self.measured_read_iters is None:
            return full
        return min(self.measured_read_iters, full)

    @property
    def extrapolation_factor(self) -> float:
        """Multiplier from measured read passes to the full run."""
        ran = self.read_iters_to_run
        return (self.n_iterations - 1) / ran if ran else 1.0


def total_integrals(config: SCF11Config) -> int:
    """Surviving integral count for the input size."""
    return int(config.screening_survival * config.n_basis ** 4)


def integral_file_bytes(config: SCF11Config, n_procs: int, rank: int) -> int:
    """Bytes of rank's private integral file (even split, remainder low)."""
    total = total_integrals(config) * config.bytes_per_integral
    base = total // n_procs
    extra = total % n_procs
    return base + (config.bytes_per_integral if rank < extra else 0)


def _chunks_of(total_bytes: int, chunk: int):
    """Yield chunk sizes covering ``total_bytes``."""
    done = 0
    while done < total_bytes:
        n = min(chunk, total_bytes - done)
        yield n
        done += n


def _rank_program(rank: int, comm: Communicator, config: SCF11Config,
                  interface, io_times: Dict[int, float],
                  phase_info: Dict[str, float]):
    """One rank's life: evaluate+write, then read+contract per iteration."""
    env = comm.env
    node = comm.machine.compute_node(comm.node_of(rank))
    my_bytes = integral_file_bytes(config, comm.size, rank)
    ints_per_byte = 1.0 / config.bytes_per_integral
    fname = f"scf11.ints.{rank}"
    io_t = 0.0

    # ---- direct (recompute) version: no disk, evaluate every pass ----
    if config.version == "direct":
        my_ints = my_bytes * ints_per_byte
        # Iterations after the first follow the same measured/extrapolated
        # split as the disk versions' read passes.
        for iteration in range(1 + config.read_iters_to_run):
            yield from node.compute(
                my_ints * (config.eval_flops_per_integral
                           + config.fock_flops_per_integral))
            yield from comm.barrier(rank)
            if iteration == 0:
                phase_info["write_end"] = env.now
        io_times[rank] = 0.0
        return 0.0

    # ---- iteration 1: evaluate integrals and write the private file ----
    # I/O generators are timed inline (t0/io_t) rather than through a
    # wrapper generator: the wrapper would add one frame to every event
    # resume of the underlying I/O chain.
    t0 = env.now
    f = yield from interface.open(rank, fname, create=True)
    io_t += env.now - t0
    for nbytes in _chunks_of(my_bytes, config.buffer_bytes):
        ints = nbytes * ints_per_byte
        t = node.compute_time(ints * config.eval_flops_per_integral)
        node.busy_time += t
        yield t
        t0 = env.now
        if config.version == "original":
            yield from f.write_record(nbytes)
        else:
            yield from f.seek_write(f.position, nbytes)
        io_t += env.now - t0

    # Phase boundary: ranks synchronize after writing (the real code has a
    # global file-balance / energy step here) and we snapshot the phase
    # split for extrapolation.
    yield from comm.barrier(rank)
    phase_info["write_end"] = env.now
    write_io = io_t

    # ---- iterations 2..K: stream the file back, build the Fock matrix ----
    read_iters = config.read_iters_to_run
    if config.version == "prefetch":
        for _ in range(read_iters):
            pf = PrefetchReader(f, config.buffer_bytes,
                                depth=config.prefetch_depth,
                                total_bytes=my_bytes, start_offset=0)
            yield from pf.prime()
            while True:
                _, nbytes = yield from pf.next_chunk()
                if nbytes == 0:
                    break
                ints = nbytes * ints_per_byte
                yield from node.compute(ints * config.fock_flops_per_integral)
            io_t += pf.accounted_io_time
    else:
        for _ in range(read_iters):
            if config.version == "original":
                t0 = env.now
                yield from f.rewind()
                io_t += env.now - t0
            pos = 0
            for nbytes in _chunks_of(my_bytes, config.buffer_bytes):
                t0 = env.now
                if config.version == "original":
                    yield from f.read_record(nbytes)
                else:
                    yield from f.seek_read(pos, nbytes)
                    pos += nbytes
                io_t += env.now - t0
                ints = nbytes * ints_per_byte
                t = node.compute_time(ints * config.fock_flops_per_integral)
                node.busy_time += t
                yield t

    t0 = env.now
    yield from f.close()
    io_t += env.now - t0
    # Energy check / convergence test each iteration (cheap collective).
    yield from comm.barrier(rank)
    # Extrapolate the read phase to the full iteration count.
    factor = config.extrapolation_factor
    io_times[rank] = write_io + (io_t - write_io) * factor
    return io_times[rank]


def _extrapolate_trace(trace: TraceCollector, factor: float,
                       config: SCF11Config) -> None:
    """Scale read-phase trace aggregates to the full iteration count.

    READ ops happen only in read passes and scale by ``factor``.  SEEKs
    split by version: the original code seeks only to rewind (read phase);
    PASSION seeks once per write (write phase, unscaled) and once per read
    (scaled).  WRITE/OPEN/CLOSE/FLUSH belong to the write phase or are
    one-offs and stay as measured.
    """
    from repro.trace import IOOp

    read_agg = trace.aggregate(IOOp.READ)
    read_agg.count = int(round(read_agg.count * factor))
    read_agg.time *= factor
    read_agg.nbytes = int(round(read_agg.nbytes * factor))

    seek_agg = trace.aggregate(IOOp.SEEK)
    if config.version == "original":
        write_phase_seeks = 0
    else:
        write_phase_seeks = trace.aggregate(IOOp.WRITE).count
    read_phase = seek_agg.count - write_phase_seeks
    if seek_agg.count > 0:
        read_frac = read_phase / seek_agg.count
        seek_agg.time = (seek_agg.time * (1 - read_frac)
                         + seek_agg.time * read_frac * factor)
    seek_agg.count = write_phase_seeks + int(round(read_phase * factor))


def run_scf11(machine_config: MachineConfig, config: SCF11Config,
              n_procs: int, stripe_unit: Optional[int] = None,
              fault_plan=None) -> AppResult:
    """Run SCF 1.1 on a fresh machine; returns the result record.

    ``stripe_unit`` overrides the file system default (the tuple's Su).
    ``fault_plan`` (a :class:`repro.faults.FaultPlan` or its ``to_dict``
    form) is armed against the fresh machine before the ranks start.
    """
    from repro.pfs import PFS

    if config.version not in ("original", "passion", "prefetch", "direct"):
        raise ValueError(f"unknown SCF 1.1 version {config.version!r}")
    machine = Machine(machine_config)
    fs = PFS(machine, stripe_unit=stripe_unit)
    if fault_plan is not None:
        from repro.faults import FaultPlan
        FaultPlan.coerce(fault_plan).arm(machine, fs)
    trace = TraceCollector(keep_records=config.keep_trace_records)
    if config.version == "original":
        interface = FortranIO(fs, trace=trace)
    else:
        interface = PassionIO(fs, trace=trace)   # unused by "direct"
    comm = Communicator(machine, n_procs)
    io_times: Dict[int, float] = {}
    phase_info: Dict[str, float] = {}
    procs = comm.spawn(_rank_program, config, interface, io_times, phase_info)
    machine.env.run(machine.env.all_of(procs))

    factor = config.extrapolation_factor
    write_end = phase_info.get("write_end", machine.env.now)
    exec_time = write_end + (machine.env.now - write_end) * factor
    if factor != 1.0:
        _extrapolate_trace(trace, factor, config)
    return AppResult(
        app="scf11",
        version=config.version,
        n_procs=n_procs,
        n_io=machine_config.n_io,
        exec_time=exec_time,
        io_time_per_rank=io_times,
        trace=trace,
        extra={
            "file_bytes_total": float(
                total_integrals(config) * config.bytes_per_integral),
            "read_volume": float(
                total_integrals(config) * config.bytes_per_integral
                * (config.n_iterations - 1)),
        },
    )
