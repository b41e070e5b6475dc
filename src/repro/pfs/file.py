"""File objects and client-side handles."""

from __future__ import annotations

from typing import Dict, Optional

from repro.pfs.striping import StripeMap

__all__ = ["PFile", "FileHandle"]


class PFile:
    """A striped file's metadata plus optional functional data backing.

    In ``functional`` mode the file carries a real byte buffer so
    end-to-end data correctness (two-phase exchange, out-of-core transpose)
    is testable.  In ``timing`` mode only the size is tracked — large
    experiments (tens of simulated GB) never allocate payload memory.
    """

    def __init__(self, file_id: int, name: str, stripe_map: StripeMap,
                 functional: bool = False):
        self.file_id = file_id
        self.name = name
        self.stripe_map = stripe_map
        self.functional = functional
        self.size = 0
        self._data: Optional[bytearray] = bytearray() if functional else None
        #: Per-(io,disk) base offset inside each disk, assigned by the FS.
        self.disk_base: Dict[tuple, int] = {}
        self.open_count = 0

    # -- functional data ----------------------------------------------------
    def _ensure(self, end: int) -> None:
        assert self._data is not None
        if end > len(self._data):
            self._data.extend(b"\0" * (end - len(self._data)))

    def write_payload(self, offset: int, data: bytes) -> None:
        """Store payload bytes (functional mode only)."""
        if not self.functional:
            raise RuntimeError(f"file {self.name!r} has no data backing")
        end = offset + len(data)
        self._ensure(end)
        self._data[offset:end] = data

    def read_payload(self, offset: int, nbytes: int) -> bytes:
        """Fetch payload bytes; unwritten holes read as zeros."""
        if not self.functional:
            raise RuntimeError(f"file {self.name!r} has no data backing")
        self._ensure(offset + nbytes)
        return bytes(self._data[offset:offset + nbytes])

    def extend_to(self, end: int) -> None:
        """Grow the recorded size (timing mode bookkeeping)."""
        if end > self.size:
            self.size = end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "functional" if self.functional else "timing"
        return f"<PFile {self.name!r} size={self.size} {mode}>"


class FileHandle:
    """A client's connection to an open file.

    All timing flows through :meth:`read_at` / :meth:`write_at`, which
    return the file system's data-path generator
    (:meth:`~repro.pfs.filesystem.ParallelFileSystem._transfer`): it fans
    the byte range out into striped extents, drives the request/response
    messages over the fabric and the disk service at the I/O nodes, and
    (in functional mode) moves real bytes.  The handle adds no generator
    frame of its own.
    """

    def __init__(self, fs, file: PFile, rank: int):
        self.fs = fs
        self.file = file
        self.rank = rank
        self.closed = False

    # -- data-path generators -------------------------------------------------
    def read_at(self, offset: int, nbytes: int):
        """Process generator: read ``nbytes`` at ``offset``.

        Returns the payload bytes in functional mode, else ``nbytes``.
        """
        return self.fs._transfer(self, offset, nbytes, False, None)

    def write_at(self, offset: int, nbytes: int, data: Optional[bytes] = None):
        """Process generator: write ``nbytes`` at ``offset``.

        ``data`` is stored when the file is functional (must then match
        ``nbytes``).  Returns ``nbytes``.
        """
        return self.fs._transfer(self, offset, nbytes, True, data)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.file.open_count -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FileHandle {self.file.name!r} rank={self.rank}>"
