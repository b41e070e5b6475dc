"""Chameleon-style funnelled I/O (the unoptimized AST library).

The paper's AST analysis names two sins of the Chameleon library: it
writes "smaller non-contiguous chunks" and it "has a bottleneck of all I/O
performed by a single node".  This module reproduces both: every rank ships
its chunks to a designated master rank over the fabric, and the master
issues one small Unix-style write per chunk, serially.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.iolib.base import InterfaceFile
from repro.iolib.posix import UnixIO
from repro.mp.comm import Communicator

__all__ = ["ChameleonIO"]

#: (file offset, nbytes, payload-or-None)
Chunk = Tuple[int, int, Optional[bytes]]


class ChameleonIO(UnixIO):
    """Funnelled shared-file I/O through a master rank.

    Per-call costs sit above the plain Unix path: the library packs each
    piece through its own buffers and bookkeeping before the write call.
    """

    name = "chameleon"
    from repro.iolib.base import InterfaceCosts as _Costs
    costs = _Costs(
        open_s=0.006,
        close_s=0.003,
        read_call_s=0.022,
        write_call_s=0.030,
        seek_s=0.0010,
        flush_s=0.002,
        buffer_copy=True,
    )

    def __init__(self, fs, comm: Communicator, trace=None, master: int = 0):
        super().__init__(fs, trace=trace)
        self.comm = comm
        self.master = master

    def write_chunks(self, rank: int, file: InterfaceFile,
                     chunks: Sequence[Chunk]):
        """Process generator: collective funnelled write.

        Every rank calls this with its own chunk list; non-master ranks
        ship the data to the master, which then writes each chunk with a
        separate seek+write pair.  ``file`` must be the master's handle
        (other ranks may pass their own handle; only the master's is used).
        Returns only after the master finished writing (all ranks
        synchronize), like the original library's collective dump.
        """
        chunks = list(chunks)
        payload_bytes = sum(n for _, n, _ in chunks)
        if rank != self.master:
            yield from self.comm.send(rank, self.master, chunks,
                                      payload_bytes, tag=771)
            # Wait for the master's completion broadcast.
            yield from self.comm.bcast(rank, None, 16, root=self.master)
            return 0

        all_chunks: List[Chunk] = list(chunks)
        for _ in range(self.comm.size - 1):
            _, remote_chunks, _ = yield from self.comm.recv(rank, tag=771)
            all_chunks.extend(remote_chunks)
        # Preserve arrival order: the real library wrote chunks as they
        # came in, which is exactly what destroys disk sequentiality.
        written = 0
        for offset, nbytes, payload in all_chunks:
            yield from file.seek_write(offset, nbytes, payload)
            written += nbytes
        yield from self.comm.bcast(rank, None, 16, root=self.master)
        return written
