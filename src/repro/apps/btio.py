"""BTIO: the disk-based NAS BT flow solver (§4.5).

BT runs on ``P = q²`` processors with the diagonal multipartition
decomposition: the ``nx×ny×nz`` grid is cut into ``q³`` cells and each
rank owns the ``q`` cells along one wrapped diagonal.  Every
``dump_interval`` timesteps the 5-component solution vector is appended
to a shared file in canonical (x fastest) order.

* ``unoptimized`` — MPI-I/O used "as a Unix-style interface": for every
  (cell, z, y) line the rank seeks and writes one small contiguous run
  (``cell_nx · 5 · 8`` bytes).  The call count per dump is huge and the
  requests from different ranks interleave badly; on PIOFS every write to
  a shared file also serializes on the metadata/mode token.
* ``collective`` — two-phase collective I/O: the same runs are handed to
  the PASSION/ROMIO-style driver, which repartitions them into one large
  contiguous file-domain write per rank.
* ``epio`` — the NAS spec's embarrassingly-parallel variant: each rank
  appends its cells to a *private* file in one large write per dump.  No
  shared-file token, no exchange — but the output is not in canonical
  order and must be post-processed, which is why the benchmark treats it
  as a bound rather than a solution.

Class A is a 64³ grid with 200 timesteps dumping every 5 (40 dumps,
~419 MB); Class B is 102³.  Dumps are statistically identical, so runs
may simulate ``measured_dumps`` of them and extrapolate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.apps.base import AppMetadata, AppResult
from repro.iolib.passion import PassionIO, RunList, TwoPhaseIO
from repro.iolib.posix import UnixIO
from repro.machine.machine import Machine, MachineConfig
from repro.mp.comm import Communicator
from repro.trace import TraceCollector

__all__ = ["BTIOConfig", "BT_CLASSES", "METADATA", "run_btio",
           "multipartition_cells", "split_axis"]

METADATA = AppMetadata(
    name="BTIO",
    source="NASA Ames",
    lines=6_713,
    description="simulates the I/O required by a flow solver",
    platform="SP-2",
    io_type="periodic writes of arrays",
)

#: Problem classes: grid side and timestep count.
BT_CLASSES = {"A": (64, 200), "B": (102, 200), "W": (24, 200),
              "S": (12, 60)}

_COMPONENTS = 5
_REAL = 8


@dataclass(frozen=True)
class BTIOConfig:
    """One BTIO run configuration."""

    class_name: str = "A"
    version: str = "unoptimized"       # unoptimized | collective
    dump_interval: int = 5
    #: Sustained-equivalent solver cost per grid cell per timestep.
    flops_per_cell_step: float = 22_000.0
    #: Simulate only this many dumps and extrapolate (None = all).
    measured_dumps: Optional[int] = None
    keep_trace_records: bool = False

    def __post_init__(self):
        if self.class_name not in BT_CLASSES:
            raise ValueError(f"unknown BT class {self.class_name!r}")
        if self.version not in ("unoptimized", "collective", "epio"):
            raise ValueError(f"unknown BTIO version {self.version!r}")

    def with_(self, **kw) -> "BTIOConfig":
        return replace(self, **kw)

    @property
    def grid(self) -> int:
        return BT_CLASSES[self.class_name][0]

    @property
    def n_timesteps(self) -> int:
        return BT_CLASSES[self.class_name][1]

    @property
    def n_dumps(self) -> int:
        return self.n_timesteps // self.dump_interval

    @property
    def dump_bytes(self) -> int:
        return self.grid ** 3 * _COMPONENTS * _REAL

    @property
    def total_io_bytes(self) -> int:
        return self.dump_bytes * self.n_dumps

    def dumps_to_run(self) -> int:
        if self.measured_dumps is None:
            return self.n_dumps
        return max(1, min(self.measured_dumps, self.n_dumps))

    @property
    def extrapolation_factor(self) -> float:
        return self.n_dumps / self.dumps_to_run()


def split_axis(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``0..n`` into ``parts`` near-even [start, stop) ranges."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def multipartition_cells(q: int) -> Dict[int, List[Tuple[int, int, int]]]:
    """Cell (cx, cy, cz) ownership for the BT multipartition on q² ranks.

    Rank ``(a, b)`` owns, on every z-layer ``m``, the cell whose (x, y)
    indices are the diagonal shift ``((a + m) % q, (b + m) % q)`` — each
    rank gets exactly ``q`` cells, one per layer, matching NAS BT.
    """
    owners: Dict[int, List[Tuple[int, int, int]]] = {}
    for a in range(q):
        for b in range(q):
            rank = a * q + b
            owners[rank] = [((a + m) % q, (b + m) % q, m) for m in range(q)]
    return owners


def _rank_runs(config: BTIOConfig, q: int, rank: int) -> RunList:
    """The runs of one rank's cells within a single dump.

    The canonical file layout is component-fastest within a cell point:
    ``offset(x,y,z) = ((z·N + y)·N + x) · 5 · 8``.  A run is one x-line
    fragment of one cell: contiguous ``cell_nx · 40`` bytes.
    """
    n = config.grid
    xs = split_axis(n, q)
    ys = split_axis(n, q)
    zs = split_axis(n, q)
    cells = multipartition_cells(q)[rank]
    offsets = array("q")
    lengths = array("q")
    line = _COMPONENTS * _REAL
    for cx, cy, cz in cells:
        x0, x1 = xs[cx]
        y0, y1 = ys[cy]
        z0, z1 = zs[cz]
        nbytes = (x1 - x0) * line
        for z in range(z0, z1):
            for y in range(y0, y1):
                offsets.append(((z * n + y) * n + x0) * line)
                lengths.append(nbytes)
    return RunList(offsets, lengths)


def _rank_program(rank: int, comm: Communicator, config: BTIOConfig,
                  interface, io_times: Dict[int, float],
                  phase_info: Dict[str, float]):
    env = comm.env
    node = comm.machine.compute_node(comm.node_of(rank))
    P = comm.size
    q = int(round(P ** 0.5))
    runs = _rank_runs(config, q, rank)
    io_t = 0.0

    fname = (f"btio.out.{rank}" if config.version == "epio"
             else "btio.out")
    # I/O generators are timed inline (t0/io_t): a timing wrapper
    # generator would add one frame to every event resume underneath it.
    t0 = env.now
    f = yield from interface.open(rank, fname, create=True)
    io_t += env.now - t0
    twophase = TwoPhaseIO(comm) if config.version == "collective" else None
    my_bytes = sum(runs.lengths)

    cells_flops = (config.grid ** 3 / P) * config.flops_per_cell_step
    dumps = config.dumps_to_run()
    for dump in range(dumps):
        # Solve dump_interval timesteps.
        yield from node.compute(cells_flops * config.dump_interval)
        base = dump * config.dump_bytes
        if config.version == "collective":
            dump_runs = RunList([base + off for off in runs.offsets],
                                runs.lengths)
            t0 = env.now
            yield from twophase.collective_write(rank, f, dump_runs)
            io_t += env.now - t0
        elif config.version == "epio":
            # One large append of this rank's cells to its private file.
            t0 = env.now
            yield from f.pwrite(dump * my_bytes, my_bytes)
            io_t += env.now - t0
        else:
            for off, nb in zip(runs.offsets, runs.lengths):
                # One seek+write call (one generator frame) per run.
                t0 = env.now
                yield from f.seek_write(base + off, nb)
                io_t += env.now - t0
        yield from comm.barrier(rank)
    phase_info.setdefault("t0", 0.0)

    t0 = env.now
    yield from f.close()
    io_t += env.now - t0
    factor = config.extrapolation_factor
    io_times[rank] = io_t * factor
    return io_times[rank]


def run_btio(machine_config: MachineConfig, config: BTIOConfig,
             n_procs: int, fault_plan=None) -> AppResult:
    """Run BTIO on a fresh SP-2-style machine.

    ``n_procs`` must be a perfect square (BT requirement).
    ``fault_plan`` (a :class:`repro.faults.FaultPlan` or its ``to_dict``
    form) is armed against the fresh machine before the ranks start.
    """
    from repro.pfs import PIOFS

    q = int(round(n_procs ** 0.5))
    if q * q != n_procs:
        raise ValueError("BTIO requires a square processor count")
    machine = Machine(machine_config)
    fs = PIOFS(machine)
    if fault_plan is not None:
        from repro.faults import FaultPlan
        FaultPlan.coerce(fault_plan).arm(machine, fs)
    trace = TraceCollector(keep_records=config.keep_trace_records)
    if config.version == "unoptimized":
        interface = UnixIO(fs, trace=trace)
    else:
        # collective and epio both ride the efficient interface.
        interface = PassionIO(fs, trace=trace)
    comm = Communicator(machine, n_procs)
    io_times: Dict[int, float] = {}
    phase_info: Dict[str, float] = {}
    procs = comm.spawn(_rank_program, config, interface, io_times, phase_info)
    machine.env.run(machine.env.all_of(procs))
    exec_time = machine.env.now * config.extrapolation_factor
    return AppResult(
        app="btio",
        version=config.version,
        n_procs=n_procs,
        n_io=machine_config.n_io,
        exec_time=exec_time,
        io_time_per_rank=io_times,
        trace=trace,
        extra={"total_io_bytes": float(config.total_io_bytes),
               "class": 0.0 if config.class_name == "A" else 1.0},
    )
