"""Out-of-core 2-D arrays with selectable file layout.

The array lives in a file either column-major (Fortran default) or
row-major.  Rectangular tiles map to one file request per column (or row)
segment — *unless* the tile spans the full minor dimension, in which case
the segments are physically adjacent and coalesce into a single large
request.  That geometric fact is the entire content of the paper's FFT
layout optimization: with both arrays column-major, the transpose's read
tile is contiguous in one array but shredded in the other; storing one
array row-major makes both sides contiguous.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.iolib.base import InterfaceFile

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Layout", "OutOfCoreArray"]


class Layout(enum.Enum):
    """File layout of a 2-D out-of-core array."""

    COLUMN_MAJOR = "column"
    ROW_MAJOR = "row"


class OutOfCoreArray:
    """A ``rows × cols`` array of fixed-size elements stored in a file."""

    def __init__(self, file: InterfaceFile, rows: int, cols: int,
                 itemsize: int = 8, layout: Layout = Layout.COLUMN_MAJOR,
                 base_offset: int = 0):
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        if itemsize <= 0:
            raise ValueError("itemsize must be positive")
        self.file = file
        self.rows = rows
        self.cols = cols
        self.itemsize = itemsize
        self.layout = layout
        self.base_offset = base_offset

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * self.itemsize

    def element_offset(self, i: int, j: int) -> int:
        """File offset of element (i, j)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        if self.layout is Layout.COLUMN_MAJOR:
            linear = j * self.rows + i
        else:
            linear = i * self.cols + j
        return self.base_offset + linear * self.itemsize

    def _check_tile(self, r0: int, r1: int, c0: int, c1: int) -> None:
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise IndexError(
                f"tile [{r0}:{r1}, {c0}:{c1}] outside {self.rows}x{self.cols}")

    def tile_requests(self, r0: int, r1: int, c0: int, c1: int
                      ) -> List[Tuple[int, int]]:
        """(offset, nbytes) file requests covering a tile, coalesced.

        The request count is the paper's key quantity: a full-minor tile is
        ONE request; anything else is one request per major-index line.
        """
        self._check_tile(r0, r1, c0, c1)
        it = self.itemsize
        if self.layout is Layout.COLUMN_MAJOR:
            seg_len = (r1 - r0) * it
            if r0 == 0 and r1 == self.rows:
                start = self.element_offset(0, c0)
                return [(start, seg_len * (c1 - c0))]
            return [(self.element_offset(r0, j), seg_len)
                    for j in range(c0, c1)]
        seg_len = (c1 - c0) * it
        if c0 == 0 and c1 == self.cols:
            start = self.element_offset(r0, 0)
            return [(start, seg_len * (r1 - r0))]
        return [(self.element_offset(i, c0), seg_len) for i in range(r0, r1)]

    # -- timed tile I/O ----------------------------------------------------------
    def read_tile(self, r0: int, r1: int, c0: int, c1: int):
        """Process generator: read a tile.

        Functional files return the tile as a ``(r1-r0, c1-c0)`` float64
        array (itemsize must be 8); timing files return total bytes.
        """
        requests = self.tile_requests(r0, r1, c0, c1)
        functional = self.file.handle.file.functional
        chunks = []
        for offset, nbytes in requests:
            got = yield from self.file.pread(offset, nbytes)
            chunks.append(got)
        if not functional:
            return sum(n for _, n in requests)
        return self._assemble(chunks, r0, r1, c0, c1)

    def write_tile(self, r0: int, r1: int, c0: int, c1: int,
                   data: Optional[np.ndarray] = None):
        """Process generator: write a tile (optionally with real data)."""
        requests = self.tile_requests(r0, r1, c0, c1)
        payloads = self._disassemble(data, r0, r1, c0, c1, len(requests)) \
            if data is not None else [None] * len(requests)
        total = 0
        for (offset, nbytes), payload in zip(requests, payloads):
            yield from self.file.pwrite(offset, nbytes, payload)
            total += nbytes
        return total

    # -- functional data marshalling ------------------------------------------------
    # Only functional files reach these, so numpy is imported here rather
    # than at module level: a timing-mode process never loads it.
    @property
    def dtype(self):
        """numpy dtype for functional tiles (8 → float64, 16 → complex128)."""
        import numpy as np
        if self.itemsize == 8:
            return np.float64
        if self.itemsize == 16:
            return np.complex128
        raise ValueError(
            f"functional tiles require 8- or 16-byte elements, "
            f"not {self.itemsize}")

    def _assemble(self, chunks: List[bytes], r0, r1, c0, c1) -> np.ndarray:
        import numpy as np
        tile = np.empty((r1 - r0, c1 - c0), dtype=self.dtype)
        dtype = self.dtype
        if self.layout is Layout.COLUMN_MAJOR:
            if len(chunks) == 1:
                tile[:, :] = np.frombuffer(chunks[0], dtype=dtype
                                           ).reshape((r1 - r0, c1 - c0),
                                                     order="F")
            else:
                for idx in range(c1 - c0):
                    tile[:, idx] = np.frombuffer(chunks[idx], dtype=dtype)
        else:
            if len(chunks) == 1:
                tile[:, :] = np.frombuffer(chunks[0], dtype=dtype
                                           ).reshape((r1 - r0, c1 - c0),
                                                     order="C")
            else:
                for idx in range(r1 - r0):
                    tile[idx, :] = np.frombuffer(chunks[idx], dtype=dtype)
        return tile

    def _disassemble(self, data: np.ndarray, r0, r1, c0, c1,
                     n_requests: int) -> List[Optional[bytes]]:
        import numpy as np
        expected = (r1 - r0, c1 - c0)
        if data.shape != expected:
            raise ValueError(f"tile shape {data.shape} != {expected}")
        data = np.ascontiguousarray(data, dtype=self.dtype)
        if self.layout is Layout.COLUMN_MAJOR:
            if n_requests == 1:
                return [np.asfortranarray(data).tobytes(order="F")]
            return [data[:, j].tobytes() for j in range(data.shape[1])]
        if n_requests == 1:
            return [data.tobytes(order="C")]
        return [data[i, :].tobytes() for i in range(data.shape[0])]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<OutOfCoreArray {self.rows}x{self.cols} "
                f"{self.layout.value}-major in {self.file.name!r}>")
