"""Fortran record I/O, the interface of the original SCF 1.1.

Fortran unformatted I/O stages every record through a library buffer
(one extra memcpy of the payload) and pays a heavy fixed cost per call:
record-marker bookkeeping plus the PFS Unix-compatibility path underneath.
The combination is what Table 2 of the paper measures — enormous per-read
times at modest record sizes — and what the PASSION "efficient interface"
(Table 3) strips away.

Positioning is implicit: sequential records advance the pointer, and the
occasional ``REWIND`` is the only seek the trace shows (SCF 1.1's original
trace has only ~1 000 seeks against ~600 000 reads).
"""

from __future__ import annotations

from repro.iolib.base import InterfaceCosts, IOInterface, InterfaceFile

__all__ = ["FortranIO", "FortranFile", "RECORD_MARKER_BYTES"]

#: Each unformatted record is framed by 4-byte length markers.
RECORD_MARKER_BYTES = 8


class FortranFile(InterfaceFile):
    """Record-oriented view: reads/writes move whole records."""

    def read_record(self, nbytes: int):
        """Process generator: read one unformatted record of ``nbytes``.

        Record markers ride along with the payload on disk, so the
        pointer moves past them too.
        """
        return self._call(False, None, nbytes,
                          advance=nbytes + RECORD_MARKER_BYTES)

    def write_record(self, nbytes: int, data=None):
        """Process generator: write one unformatted record."""
        return self._call(True, None, nbytes, data,
                          advance=nbytes + RECORD_MARKER_BYTES)

    def rewind(self):
        """Process generator: Fortran REWIND."""
        return self.seek(0)


class FortranIO(IOInterface):
    """Fortran unformatted record interface."""

    name = "fortran"
    costs = InterfaceCosts(
        open_s=0.010,
        close_s=0.005,
        read_call_s=0.045,
        write_call_s=0.035,
        seek_s=0.0015,
        flush_s=0.003,
        buffer_copy=True,
    )
    file_class = FortranFile
