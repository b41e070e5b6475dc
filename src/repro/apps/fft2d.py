"""2-D out-of-core FFT (the paper's 500-line in-house code, §4.4).

Three steps over two disk-resident ``n × n`` complex arrays A and B:

1. 1-D out-of-core FFT over the columns of A (strip-mined into memory);
2. 2-D out-of-core transpose A → B;
3. 1-D out-of-core FFT over the columns of B.

The studied variable is the **file layout** of B:

* ``unoptimized`` — both files column-major.  The transpose then moves
  data between two arrays whose preferred block shapes conflict
  ("optimizing the block dimension for one array has a negative impact on
  the other"), so it uses the compromise square-block schedule: every
  block costs one strided column-segment request *per block column* on the
  read side and *per block row* on the write side.
* ``layout`` — B stored row-major.  The transpose becomes panel-shaped
  and fully contiguous on **both** sides (one read + one write request per
  panel), which is the paper's optimization.  The second FFT pass is then
  blocked over contiguous row panels of B (the real code's second pass is
  likewise panel-contiguous; see DESIGN.md for the functional-mode note).

Functional mode (small ``n``) moves real complex data through the
simulated files: the unoptimized pipeline is verified end-to-end against
``numpy.fft.fft2`` and the optimized transpose is verified element-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.apps.base import AppMetadata, AppResult
from repro.iolib.passion import Layout, OutOfCoreArray, PassionIO
from repro.machine.machine import Machine, MachineConfig
from repro.machine.params import MB
from repro.mp.comm import Communicator
from repro.trace import TraceCollector

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FFTConfig", "METADATA", "run_fft", "fft_flops"]

METADATA = AppMetadata(
    name="FFT",
    source="authors",
    lines=500,
    description="2D out-of-core FFT",
    platform="Paragon",
    io_type="reads and writes two matrices",
)

_ITEMSIZE = 16  # complex128


@dataclass(frozen=True)
class FFTConfig:
    """One FFT run configuration."""

    n: int = 4096                    # paper: 6·n²·16 B ≈ 1.5 GB total I/O
    version: str = "unoptimized"     # unoptimized | layout
    #: Usable staging memory per process (32 MB nodes minus OS + code +
    #: the solver's own arrays).
    panel_memory_bytes: int = 4 * MB
    #: 1-D FFT cost: flops_factor · n · log2(n) per length-n vector.
    fft_flops_factor: float = 5.0
    functional: bool = False
    keep_trace_records: bool = False

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 2")
        if self.version not in ("unoptimized", "layout"):
            raise ValueError(f"unknown FFT version {self.version!r}")

    def with_(self, **kw) -> "FFTConfig":
        return replace(self, **kw)

    @property
    def panel_width(self) -> int:
        """Columns per memory panel (at least 1)."""
        return max(1, min(self.n, self.panel_memory_bytes
                          // (self.n * _ITEMSIZE)))

    @property
    def n_panels(self) -> int:
        return -(-self.n // self.panel_width)

    @property
    def block_side(self) -> int:
        """Square transpose block side for the unoptimized schedule."""
        elems = self.panel_memory_bytes // _ITEMSIZE
        return max(1, min(self.n, int(math.isqrt(elems))))

    @property
    def total_io_bytes(self) -> int:
        """Bytes moved by the full pipeline (paper: ~1.5 GB at n=4096)."""
        return 6 * self.n * self.n * _ITEMSIZE


def fft_flops(config: FFTConfig, n_vectors: int) -> float:
    """Flops for ``n_vectors`` 1-D FFTs of length n."""
    n = config.n
    return config.fft_flops_factor * n * math.log2(n) * n_vectors


def _my_slices(total: int, width: int, rank: int, size: int):
    """Round-robin assignment of [start, stop) strips to ranks."""
    idx = 0
    start = 0
    while start < total:
        stop = min(total, start + width)
        if idx % size == rank:
            yield start, stop
        idx += 1
        start = stop


# The rank program and its helpers time I/O inline into ``io``, a
# one-element list shared by all of them (``io[0]`` is the rank's I/O
# time, summed in call order): a timing wrapper generator would add one
# frame to every event resume underneath it.

def _fft_pass(rank, comm, config, array, node, io):
    """One out-of-core 1-D FFT pass over ``array`` in column panels.

    Functional runs transform the real data along the columns; timing
    runs only move the bytes.
    """
    env = comm.env
    w = config.panel_width
    for c0, c1 in _my_slices(array.cols, w, rank, comm.size):
        t0 = env.now
        tile = yield from array.read_tile(0, array.rows, c0, c1)
        io[0] += env.now - t0
        yield from node.compute(fft_flops(config, c1 - c0))
        data = None
        if config.functional:
            import numpy as np
            data = np.fft.fft(tile, axis=0)
        t0 = env.now
        yield from array.write_tile(0, array.rows, c0, c1, data)
        io[0] += env.now - t0
    yield from comm.barrier(rank)


def _transpose_unoptimized(rank, comm, config, a, b, node, io):
    """Square-block transpose, both arrays column-major (strided I/O)."""
    env = comm.env
    n = config.n
    bs = config.block_side
    blocks = []
    for r0 in range(0, n, bs):
        for c0 in range(0, n, bs):
            blocks.append((r0, min(n, r0 + bs), c0, min(n, c0 + bs)))
    for idx, (r0, r1, c0, c1) in enumerate(blocks):
        if idx % comm.size != rank:
            continue
        t0 = env.now
        tile = yield from a.read_tile(r0, r1, c0, c1)
        io[0] += env.now - t0
        yield from node.memcpy((r1 - r0) * (c1 - c0) * _ITEMSIZE)
        data = tile.T.copy() if config.functional else None
        t0 = env.now
        yield from b.write_tile(c0, c1, r0, r1, data)
        io[0] += env.now - t0
    yield from comm.barrier(rank)


def _transpose_layout(rank, comm, config, a, b, node, io):
    """Panel transpose into a row-major B (contiguous on both sides)."""
    env = comm.env
    n = config.n
    w = config.panel_width
    for j0, j1 in _my_slices(n, w, rank, comm.size):
        t0 = env.now
        tile = yield from a.read_tile(0, n, j0, j1)
        io[0] += env.now - t0
        yield from node.memcpy(n * (j1 - j0) * _ITEMSIZE)
        data = tile.T.copy() if config.functional else None
        t0 = env.now
        yield from b.write_tile(j0, j1, 0, n, data)
        io[0] += env.now - t0
    yield from comm.barrier(rank)


def _rank_program(rank: int, comm: Communicator, config: FFTConfig,
                  interface: PassionIO, io_times: Dict[int, float]):
    env = comm.env
    node = comm.machine.compute_node(comm.node_of(rank))
    n = config.n
    io = [0.0]

    t0 = env.now
    fa = yield from interface.open(rank, "fft.A", create=True)
    io[0] += env.now - t0
    t0 = env.now
    fb = yield from interface.open(rank, "fft.B", create=True)
    io[0] += env.now - t0
    a = OutOfCoreArray(fa, n, n, itemsize=_ITEMSIZE,
                       layout=Layout.COLUMN_MAJOR)
    b_layout = (Layout.ROW_MAJOR if config.version == "layout"
                else Layout.COLUMN_MAJOR)
    b = OutOfCoreArray(fb, n, n, itemsize=_ITEMSIZE, layout=b_layout)

    # Step 1: column FFT over A.
    yield from _fft_pass(rank, comm, config, a, node, io)
    # Step 2: out-of-core transpose A -> B.
    if config.version == "layout":
        yield from _transpose_layout(rank, comm, config, a, b, node, io)
    else:
        yield from _transpose_unoptimized(rank, comm, config, a, b, node, io)
    # Step 3: second FFT pass over B.
    if config.version == "layout":
        # Blocked second pass over contiguous row panels of B; the numeric
        # transform in functional mode is applied to the logical columns
        # (see module docstring / DESIGN.md).
        w = config.panel_width
        for r0, r1 in _my_slices(n, w, rank, comm.size):
            t0 = env.now
            tile = yield from b.read_tile(r0, r1, 0, n)
            io[0] += env.now - t0
            yield from node.compute(fft_flops(config, r1 - r0))
            data = tile if config.functional else None
            t0 = env.now
            yield from b.write_tile(r0, r1, 0, n, data)
            io[0] += env.now - t0
        yield from comm.barrier(rank)
    else:
        yield from _fft_pass(rank, comm, config, b, node, io)

    for f in (fa, fb):
        t0 = env.now
        yield from f.close()
        io[0] += env.now - t0
    io_times[rank] = io[0]
    return io[0]


def run_fft(machine_config: MachineConfig, config: FFTConfig,
            n_procs: int, initial: Optional[np.ndarray] = None) -> AppResult:
    """Run the out-of-core FFT on a fresh machine.

    ``initial`` seeds file A with real data (functional mode); the
    transformed array can then be read back from file B via
    :func:`read_result`.
    """
    from repro.pfs import PFS

    machine = Machine(machine_config)
    fs = PFS(machine, functional=config.functional)
    trace = TraceCollector(keep_records=config.keep_trace_records)
    interface = PassionIO(fs, trace=trace)
    if config.functional and initial is not None:
        import numpy as np
        if initial.shape != (config.n, config.n):
            raise ValueError("initial array shape mismatch")
        f = fs.create("fft.A")
        f.write_payload(0, np.asarray(initial, dtype=np.complex128
                                      ).tobytes(order="F"))
        f.extend_to(config.n * config.n * _ITEMSIZE)
    comm = Communicator(machine, n_procs)
    io_times: Dict[int, float] = {}
    procs = comm.spawn(_rank_program, config, interface, io_times)
    machine.env.run(machine.env.all_of(procs))
    return AppResult(
        app="fft",
        version=config.version,
        n_procs=n_procs,
        n_io=machine_config.n_io,
        exec_time=machine.env.now,
        io_time_per_rank=io_times,
        trace=trace,
        extra={"total_io_bytes": float(config.total_io_bytes),
               "fs": fs},  # type: ignore[dict-item]
    )


def read_result(result: AppResult, config: FFTConfig) -> np.ndarray:
    """Fetch the final array from file B (functional runs only).

    For the unoptimized pipeline this is ``fft2(A).T`` (the algorithm
    leaves the result transposed).
    """
    import numpy as np
    fs = result.extra["fs"]
    f = fs.lookup("fft.B")
    flat = np.frombuffer(
        f.read_payload(0, config.n * config.n * _ITEMSIZE),
        dtype=np.complex128)
    order = "F" if config.version == "unoptimized" else "C"
    return flat.reshape((config.n, config.n), order=order)
