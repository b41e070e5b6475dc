"""AST: the astrophysics self-gravitating-cloud simulation (§4.6).

The application advances a 2K×2K grid with PPM + a multigrid potential
solve, and at every dump point writes several field arrays to one shared
column-major file (checkpoint + analysis) plus a down-sampled
visualization file funnelled through rank 0.

* ``chameleon`` — the original library writes each rank's region in small
  fixed-size pieces (the library's internal buffer granularity), one
  seek+write per piece, and funnels the visualization dump through a
  single node.  Small non-contiguous chunks + a serial bottleneck: the
  two sins the paper names.
* ``collective`` — two-phase collective I/O assembles each field into one
  contiguous file-domain write per rank; the visualization dump is also
  written collectively.

Ranks own column blocks of the (column-major) shared file, so an
individual rank's checkpoint region is contiguous — the unoptimized
version's sin is pure chunking granularity, which is exactly what
collective buffering removes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.apps.base import AppMetadata, AppResult
from repro.iolib.chameleon import ChameleonIO
from repro.iolib.passion import IORequest, PassionIO, TwoPhaseIO
from repro.iolib.posix import UnixIO
from repro.machine.machine import Machine, MachineConfig
from repro.machine.params import KB
from repro.mp.comm import Communicator
from repro.trace import TraceCollector

__all__ = ["ASTConfig", "METADATA", "run_ast"]

METADATA = AppMetadata(
    name="AST",
    source="Univ. of Chicago",
    lines=17_000,
    description="simulates gravitational collapses of clouds",
    platform="Paragon",
    io_type="writes arrays for check-pointing",
)

_REAL = 8


@dataclass(frozen=True)
class ASTConfig:
    """One AST run configuration."""

    array_n: int = 2048
    n_fields: int = 5
    n_steps: int = 40
    dump_interval: int = 4
    version: str = "chameleon"         # chameleon | collective
    #: Chameleon's internal buffer: granularity of unoptimized writes.
    chunk_bytes: int = 4 * KB
    #: PPM + multigrid cost per cell per step (sustained-equivalent).
    flops_per_cell_step: float = 570.0
    #: Down-sampling factor of the visualization dump.
    vis_downsample: int = 8
    #: Restart from a previous checkpoint: the run begins by reading all
    #: fields back ("...when there is a restart of the application from
    #: previously check-pointed data, it becomes read-intensive").
    restart: bool = False
    measured_dumps: Optional[int] = None
    keep_trace_records: bool = False

    def __post_init__(self):
        if self.version not in ("chameleon", "collective"):
            raise ValueError(f"unknown AST version {self.version!r}")
        if self.array_n <= 0 or self.n_fields <= 0:
            raise ValueError("array_n and n_fields must be positive")

    def with_(self, **kw) -> "ASTConfig":
        return replace(self, **kw)

    @property
    def n_dumps(self) -> int:
        return max(1, self.n_steps // self.dump_interval)

    @property
    def field_bytes(self) -> int:
        return self.array_n * self.array_n * _REAL

    @property
    def vis_bytes(self) -> int:
        side = self.array_n // self.vis_downsample
        return side * side * _REAL

    @property
    def dump_bytes(self) -> int:
        return self.n_fields * self.field_bytes + self.vis_bytes

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


def _column_block(n: int, rank: int, size: int) -> Tuple[int, int]:
    """[c0, c1) columns owned by a rank (near-even split)."""
    base, extra = divmod(n, size)
    c0 = rank * base + min(rank, extra)
    return c0, c0 + base + (1 if rank < extra else 0)


def _rank_program(rank: int, comm: Communicator, config: ASTConfig,
                  interface, io_times: Dict[int, float]):
    env = comm.env
    node = comm.machine.compute_node(comm.node_of(rank))
    P = comm.size
    n = config.array_n
    c0, c1 = _column_block(n, rank, P)
    my_bytes = (c1 - c0) * n * _REAL        # contiguous in column-major
    io_t = 0.0

    # I/O generators are timed inline (t0/io_t), as in BTIO: a timing
    # wrapper generator would add one frame to every event resume
    # underneath it.  A chunk's seek and write durations are added
    # separately, in that order: the result payloads pin this float sum.
    t0 = env.now
    f = yield from interface.open(rank, "ast.dump", create=True)
    io_t += env.now - t0
    fvis = None
    if config.version == "collective" or rank == 0:
        t0 = env.now
        fvis = yield from interface.open(rank, "ast.vis", create=True)
        io_t += env.now - t0
    twophase = TwoPhaseIO(comm) if config.version == "collective" else None

    # Restart: read every field of the last checkpoint back in before
    # stepping.  The chameleon version re-reads its region in library
    # chunks; the optimized version uses a collective read.
    if config.restart:
        for field in range(config.n_fields):
            base = field * config.field_bytes
            my_off = base + c0 * n * _REAL
            if config.version == "chameleon":
                pos = my_off
                remaining = my_bytes
                while remaining > 0:
                    nb = min(config.chunk_bytes, remaining)
                    t0 = env.now
                    yield from f.seek(pos)
                    t1 = env.now
                    io_t += t1 - t0
                    yield from f.read(nb)
                    io_t += env.now - t1
                    pos += nb
                    remaining -= nb
            else:
                t0 = env.now
                yield from twophase.collective_read(
                    rank, f, [IORequest(my_off, my_bytes)])
                io_t += env.now - t0
        yield from comm.barrier(rank)

    cells_flops = (n * n / P) * config.flops_per_cell_step
    dumps = config.dumps_to_run()
    for dump in range(dumps):
        yield from node.compute(cells_flops * config.dump_interval)
        dump_base = dump * config.n_fields * config.field_bytes
        for field in range(config.n_fields):
            base = dump_base + field * config.field_bytes
            my_off = base + c0 * n * _REAL
            if config.version == "chameleon":
                # Small fixed-size pieces, one seek+write each.
                pos = my_off
                remaining = my_bytes
                while remaining > 0:
                    nb = min(config.chunk_bytes, remaining)
                    t0 = env.now
                    yield from f.seek(pos)
                    t1 = env.now
                    io_t += t1 - t0
                    yield from f.write(nb)
                    io_t += env.now - t1
                    pos += nb
                    remaining -= nb
            else:
                reqs = [IORequest(my_off, my_bytes)]
                t0 = env.now
                yield from twophase.collective_write(rank, f, reqs)
                io_t += env.now - t0
        # Visualization dump.
        vis_base = dump * config.vis_bytes
        my_vis = config.vis_bytes // P
        if config.version == "chameleon":
            # Funnel: everyone ships its share to rank 0, which writes it
            # in library-buffer-sized pieces.
            chunks = []
            pos = vis_base + rank * my_vis
            remaining = my_vis
            while remaining > 0:
                nb = min(config.chunk_bytes, remaining)
                chunks.append((pos, nb, None))
                pos += nb
                remaining -= nb
            cham: ChameleonIO = interface  # the chameleon interface
            t0 = env.now
            yield from cham.write_chunks(rank, fvis, chunks)
            io_t += env.now - t0
        else:
            reqs = [IORequest(vis_base + rank * my_vis, my_vis)]
            t0 = env.now
            yield from twophase.collective_write(rank, fvis, reqs)
            io_t += env.now - t0
        yield from comm.barrier(rank)

    t0 = env.now
    yield from f.close()
    io_t += env.now - t0
    if fvis is not None:
        t0 = env.now
        yield from fvis.close()
        io_t += env.now - t0
    factor = config.extrapolation_factor
    io_times[rank] = io_t * factor
    return io_times[rank]


def run_ast(machine_config: MachineConfig, config: ASTConfig,
            n_procs: int) -> AppResult:
    """Run AST on a fresh Paragon-style machine."""
    from repro.pfs import PFS

    machine = Machine(machine_config)
    fs = PFS(machine)
    trace = TraceCollector(keep_records=config.keep_trace_records)
    comm = Communicator(machine, n_procs)
    if config.version == "chameleon":
        interface = ChameleonIO(fs, comm, trace=trace)
    else:
        interface = PassionIO(fs, trace=trace)
    io_times: Dict[int, float] = {}
    procs = comm.spawn(_rank_program, config, interface, io_times)
    machine.env.run(machine.env.all_of(procs))
    exec_time = machine.env.now * config.extrapolation_factor
    return AppResult(
        app="ast",
        version=config.version,
        n_procs=n_procs,
        n_io=machine_config.n_io,
        exec_time=exec_time,
        io_time_per_rank=io_times,
        trace=trace,
        extra={"total_io_bytes": float(config.total_io_bytes)},
    )
