"""Common machinery for application-level I/O interfaces.

Every interface (Fortran record I/O, Unix-style, PASSION direct, …) wraps
the same PFS data path but differs in *software cost per call* and in
calling conventions (implicit vs explicit seeks, library-buffer copies).
Those per-call differences are exactly the paper's "efficient interface"
effect (Tables 2 → 3), so they are first-class parameters here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.pfs.filesystem import ParallelFileSystem
from repro.trace import IOOp, TraceCollector

__all__ = ["InterfaceCosts", "IOInterface", "InterfaceFile"]


@dataclass(frozen=True)
class InterfaceCosts:
    """Fixed software cost (seconds) the interface adds per operation.

    ``buffer_copy`` models record-oriented libraries that stage every
    payload through a library buffer, adding a memcpy of the payload on
    top of the fixed cost.
    """

    open_s: float = 0.001
    close_s: float = 0.001
    read_call_s: float = 0.001
    write_call_s: float = 0.001
    seek_s: float = 0.0002
    flush_s: float = 0.0005
    buffer_copy: bool = False


class InterfaceFile:
    """An open file as seen through one interface, with a file pointer.

    All methods return process generators.  ``read``/``write`` operate at
    the current position and advance it; ``pread``/``pwrite`` take
    explicit offsets without touching the pointer (PASSION-style
    interfaces build on these); ``seek_read``/``seek_write`` are the
    explicit seek-then-transfer pair, leaving the pointer after the data.

    Every data call is one generator frame (:meth:`_call`), which pays
    the call's software costs, runs the file system transfer and records
    the trace: these calls run hundreds of thousands of times per figure
    point, and every frame between a process and the fabric is re-entered
    on each event resume underneath it.
    """

    def __init__(self, interface: IOInterface, handle, rank: int):
        self.interface = interface
        self.handle = handle
        self.rank = rank
        self.position = 0
        self.env = interface.env
        # A file's rank (and hence CPU) is fixed for its lifetime, and the
        # per-call software costs are constants of the interface — resolve
        # them once here instead of on every operation.
        self._costs = interface.costs
        self._trace = interface.trace
        cpu = interface._cpu_of(rank).cpu
        self._cpu = cpu
        costs = self._costs
        self._seek_base = costs.seek_s + cpu.syscall_overhead_s
        self._read_base = costs.read_call_s + cpu.syscall_overhead_s
        self._write_base = costs.write_call_s + cpu.syscall_overhead_s
        self._flush_base = costs.flush_s + cpu.syscall_overhead_s
        self._copy_rate = cpu.memcpy_rate if costs.buffer_copy else 0.0

    # -- internals ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.handle.file.name

    def _call(self, write: bool, offset: Optional[int], nbytes: int,
              data: Optional[bytes] = None, advance: Optional[int] = None,
              seek: bool = False):
        """Process generator behind every data call.

        With ``seek``, first pays and traces an explicit seek to
        ``offset``.  ``offset=None`` means the file pointer, read when the
        generator starts.  Then pays the read or write call cost (plus the
        library-buffer copy), moves the bytes through the handle and
        traces the call.  When ``advance`` is not None, the pointer ends
        ``advance`` bytes past ``offset``.
        """
        env = self.env
        trace = self._trace
        if seek:
            if offset < 0:
                raise ValueError("cannot seek to a negative offset")
            start = env._now
            yield self._seek_base
            self.position = offset
            trace.record(IOOp.SEEK, self.rank, start, env._now - start,
                         file=self.handle.file.name)
        elif offset is None:
            offset = self.position
        start = env._now
        cost = self._write_base if write else self._read_base
        if self._copy_rate and nbytes > 0:
            cost += nbytes / self._copy_rate
        yield cost
        if write:
            result = yield from self.handle.write_at(offset, nbytes, data)
        else:
            result = yield from self.handle.read_at(offset, nbytes)
        trace.record(IOOp.WRITE if write else IOOp.READ, self.rank, start,
                     env._now - start, nbytes=nbytes,
                     file=self.handle.file.name)
        if advance is not None:
            self.position = offset + advance
        return result

    # -- positioned operations ------------------------------------------------
    def seek(self, offset: int):
        """Process generator: move the file pointer."""
        if offset < 0:
            raise ValueError("cannot seek to a negative offset")
        env = self.env
        start = env._now
        yield self._seek_base
        self.position = offset
        self._trace.record(IOOp.SEEK, self.rank, start, env._now - start,
                           file=self.handle.file.name)

    def read(self, nbytes: int):
        """Process generator: read at the pointer, advancing it."""
        return self._call(False, None, nbytes, advance=nbytes)

    def write(self, nbytes: int, data: Optional[bytes] = None):
        """Process generator: write at the pointer, advancing it."""
        return self._call(True, None, nbytes, data, advance=nbytes)

    def pread(self, offset: int, nbytes: int):
        """Process generator: positioned read (pointer untouched)."""
        return self._call(False, offset, nbytes)

    def pwrite(self, offset: int, nbytes: int, data: Optional[bytes] = None):
        """Process generator: positioned write (pointer untouched)."""
        return self._call(True, offset, nbytes, data)

    def seek_read(self, offset: int, nbytes: int):
        """Process generator: explicit seek followed by a read."""
        return self._call(False, offset, nbytes, advance=nbytes, seek=True)

    def seek_write(self, offset: int, nbytes: int,
                   data: Optional[bytes] = None):
        """Process generator: explicit seek followed by a write."""
        return self._call(True, offset, nbytes, data, advance=nbytes,
                          seek=True)

    def flush(self):
        """Process generator: flush library/OS buffers."""
        start = self.env.now
        yield self._flush_base
        self._trace.record(IOOp.FLUSH, self.rank, start, self.env.now - start,
                           file=self.name)

    def close(self):
        """Process generator: close the file."""
        start = self.env.now
        cpu = self.interface._cpu_of(self.rank)
        yield self.env.timeout(self._costs.close_s
                               + cpu.cpu.syscall_overhead_s)
        yield from self.interface.fs.close(self.handle)
        self._trace.record(IOOp.CLOSE, self.rank, start, self.env.now - start,
                           file=self.name)

    @property
    def size(self) -> int:
        return self.handle.file.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<InterfaceFile {self.name!r} rank={self.rank} "
                f"pos={self.position} via {self.interface.name}>")


class IOInterface:
    """Factory for :class:`InterfaceFile` objects of one interface flavour."""

    #: Human-readable interface name (shows up in experiment reports).
    name = "generic"
    costs = InterfaceCosts()
    #: Class of the file objects :meth:`open` returns.
    file_class = InterfaceFile

    def __init__(self, fs: ParallelFileSystem,
                 trace: Optional[TraceCollector] = None):
        self.fs = fs
        self.env = fs.env
        self.trace = trace if trace is not None else TraceCollector()

    def _cpu_of(self, rank: int):
        return self.fs.machine.compute_node(rank % self.fs.machine.n_compute)

    def open(self, rank: int, name: str, create: bool = False,
             stripe_unit: Optional[int] = None):
        """Process generator: open ``name`` for ``rank``.

        Returns an :class:`InterfaceFile`.
        """
        start = self.env.now
        cpu = self._cpu_of(rank)
        yield self.env.timeout(self.costs.open_s + cpu.cpu.syscall_overhead_s)
        handle = yield from self.fs.open(name, rank, create=create,
                                         stripe_unit=stripe_unit)
        self.trace.record(IOOp.OPEN, rank, start, self.env.now - start,
                          file=name)
        return self.file_class(self, handle, rank)
