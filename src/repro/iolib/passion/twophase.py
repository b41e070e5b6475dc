"""Two-phase collective I/O (PASSION / ROMIO lineage).

Each rank may hold many small, strided requests against a shared file.
Two-phase I/O re-partitions the *file range* into one contiguous domain
per rank ("file domains"), ships data between requesting ranks and domain
owners over the interconnect (communication phase), and lets every owner
touch the file exactly once with one large sequential access (I/O phase).
The request count thus drops from "many per rank" to "one per rank" —
the mechanism behind the paper's BTIO and AST results.

A rank's requests travel through both phases as a :class:`RunList`:
parallel ``array('q')`` offsets and lengths plus an optional payload
list, the compact list-I/O access description of Thakur et al. rather
than one object per request.  :class:`IORequest` sequences are
normalised to one on entry.

Functional mode moves real bytes end-to-end, so tests can verify that a
collective write followed by independent reads (or vice versa) round-trips
data exactly.

The communication phases (descriptor allgather, pairwise alltoallv) ride
on :class:`~repro.mp.comm.Communicator`, whose per-peer messages are
one :meth:`~repro.machine.network.fabric.Fabric.send_all` per call.  On
the fast kernel each message is one small
:class:`~repro.sim.process.Message` object, never a generator or a
spawned process per peer; the messages start inline, or — when the rank
was resumed by a barrier release or another multi-waiter event — from
one deferred start entry.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.iolib.base import InterfaceFile
from repro.mp.comm import Communicator

__all__ = ["IORequest", "RunList", "TwoPhaseIO", "merge_intervals"]

#: Bytes per request descriptor in the hand-shake phase.
_DESCRIPTOR_BYTES = 16


@dataclass(frozen=True)
class IORequest:
    """One application-level request inside a collective call."""

    offset: int
    nbytes: int
    payload: Optional[bytes] = None

    def __post_init__(self):
        if self.offset < 0 or self.nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if self.payload is not None and len(self.payload) != self.nbytes:
            raise ValueError("payload length mismatch")

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class RunList:
    """A rank's requests in one collective call, as parallel arrays.

    Run *i* is ``lengths[i]`` bytes at ``offsets[i]``.  ``payloads`` is
    None (timing mode) or a list holding one ``bytes`` (or None) per run.
    The same form carries the pieces routed to and from domain owners.
    """

    __slots__ = ("offsets", "lengths", "payloads")

    def __init__(self, offsets=(), lengths=(),
                 payloads: Optional[List[Optional[bytes]]] = None):
        self.offsets = (offsets if type(offsets) is array
                        else array("q", offsets))
        self.lengths = (lengths if type(lengths) is array
                        else array("q", lengths))
        n = len(self.offsets)
        if len(self.lengths) != n:
            raise ValueError("offsets and lengths differ in length")
        if n and (min(self.offsets) < 0 or min(self.lengths) < 0):
            raise ValueError("offset and nbytes must be non-negative")
        if payloads is not None:
            if len(payloads) != n:
                raise ValueError("one payload per run required")
            for nbytes, payload in zip(self.lengths, payloads):
                if payload is not None and len(payload) != nbytes:
                    raise ValueError("payload length mismatch")
        self.payloads = payloads

    @classmethod
    def of(cls, requests: Union["RunList", Sequence]) -> "RunList":
        """Normalise a sequence of :class:`IORequest` (or ``(offset,
        nbytes[, payload])`` tuples); a run list is returned as is."""
        if isinstance(requests, RunList):
            return requests
        reqs = [r if isinstance(r, IORequest) else IORequest(*r)
                for r in requests]
        payloads = [r.payload for r in reqs]
        return cls([r.offset for r in reqs], [r.nbytes for r in reqs],
                   payloads if any(p is not None for p in payloads)
                   else None)

    def __len__(self) -> int:
        return len(self.offsets)


def merge_intervals(intervals: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge (start, end) half-open intervals; drops empties."""
    out: List[Tuple[int, int]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def _route(outgoing: Dict[int, RunList], sizes: Dict[int, int], dst: int,
           offset: int, nbytes: int, payload: Optional[bytes],
           with_payloads: bool) -> None:
    """Append one piece to the run list bound for rank ``dst``."""
    out = outgoing.get(dst)
    if out is None:
        out = outgoing[dst] = RunList(payloads=[] if with_payloads else None)
        sizes[dst] = 0
    out.offsets.append(offset)
    out.lengths.append(nbytes)
    if with_payloads:
        out.payloads.append(payload)
    sizes[dst] += nbytes


class TwoPhaseIO:
    """Collective read/write driver over a :class:`Communicator`."""

    def __init__(self, comm: Communicator, align: Optional[int] = None):
        self.comm = comm
        #: File-domain alignment (defaults to the file's stripe unit).
        self.align = align

    # -- domain geometry ------------------------------------------------------
    def _domain_span(self, lo: int, hi: int, align: int) -> int:
        """Aligned bytes per file domain over [lo, hi) (the domain stride)."""
        per = -(-(hi - lo) // self.comm.size)   # ceil
        return -(-per // align) * align         # round up to alignment

    def _domains(self, lo: int, hi: int, align: int) -> List[Tuple[int, int]]:
        """Split [lo, hi) into one aligned contiguous domain per rank."""
        size = self.comm.size
        if hi - lo <= 0:
            return [(lo, lo)] * size
        per = self._domain_span(lo, hi, align)
        domains = []
        start = lo
        for _ in range(size):
            end = min(hi, start + per)
            domains.append((start, end))
            start = end
        return domains

    def _gather_descriptors(self, rank: int, runs: RunList):
        """Process generator: exchange request descriptors; returns the
        global (lo, hi) and every rank's ``(offsets, lengths, lo, hi)``.

        Each rank summarizes its *own* runs once and gathers the
        (offsets, lengths, lo, hi) tuple, so computing the global range is
        O(ranks) per rank instead of every rank rescanning every rank's
        full descriptor list.  The simulated message size is unchanged —
        a real implementation would piggyback two ints just the same.
        """
        offsets, lengths = runs.offsets, runs.lengths
        my_lo = min((o for o, n in zip(offsets, lengths) if n > 0),
                    default=None)
        my_hi = max((o + n for o, n in zip(offsets, lengths) if n > 0),
                    default=None)
        gathered = yield from self.comm.allgather(
            rank, (offsets, lengths, my_lo, my_hi),
            max(1, len(runs)) * _DESCRIPTOR_BYTES)
        lo = min((g[2] for g in gathered if g[2] is not None), default=0)
        hi = max((g[3] for g in gathered if g[3] is not None), default=0)
        return lo, hi, gathered

    # -- collective write ---------------------------------------------------------
    def collective_write(self, rank: int, file: InterfaceFile,
                         requests: Union[RunList, Sequence[IORequest]]):
        """Process generator: collectively write all ranks' requests.

        Returns the number of bytes this rank wrote in the I/O phase.
        """
        runs = RunList.of(requests)
        align = self.align or file.handle.file.stripe_map.stripe_unit
        lo, hi, _ = yield from self._gather_descriptors(rank, runs)
        if hi <= lo:
            yield from self.comm.barrier(rank)
            return 0
        domains = self._domains(lo, hi, align)

        # Communication phase: route each piece to its domain owner.  The
        # domains are a fixed-stride partition of [lo, hi), so the owners a
        # run overlaps form a contiguous index range — visit only those
        # instead of testing every (run × rank) pair.
        per = self._domain_span(lo, hi, align)
        last_owner = len(domains) - 1
        payloads = runs.payloads
        with_payloads = payloads is not None
        outgoing: Dict[int, RunList] = {}
        sizes: Dict[int, int] = {}
        for i, (offset, nbytes) in enumerate(zip(runs.offsets, runs.lengths)):
            if nbytes <= 0:
                continue
            end = offset + nbytes
            k_lo = (offset - lo) // per
            k_hi = min((end - 1 - lo) // per, last_owner)
            for owner in range(k_lo, k_hi + 1):
                d_lo, d_hi = domains[owner]
                p_lo = max(offset, d_lo)
                p_hi = min(end, d_hi)
                if p_hi <= p_lo:
                    continue
                payload = None
                if with_payloads and payloads[i] is not None:
                    payload = payloads[i][p_lo - offset: p_hi - offset]
                _route(outgoing, sizes, owner, p_lo, p_hi - p_lo, payload,
                       with_payloads)
        inbound = yield from self.comm.alltoallv(rank, outgoing, sizes)

        # I/O phase: write this rank's domain in one sequential access.
        written = yield from self._write_domain(file, list(inbound.values()))
        yield from self.comm.barrier(rank)
        return written

    def _write_domain(self, file: InterfaceFile, pieces: List[RunList]):
        covered = merge_intervals([(off, off + n) for p in pieces
                                   for off, n in zip(p.offsets, p.lengths)])
        if not covered:
            return 0
        span_lo = covered[0][0]
        span_hi = covered[-1][1]
        has_holes = (len(covered) > 1)
        functional = file.handle.file.functional
        data: Optional[bytes] = None
        if has_holes:
            # Read-modify-write: fetch the span so holes keep old contents.
            old = yield from file.pread(span_lo, span_hi - span_lo)
            if functional:
                buf = bytearray(old)
            else:
                buf = None
        else:
            buf = bytearray(span_hi - span_lo) if functional else None
        if functional:
            for p in pieces:
                if p.payloads is None or None in p.payloads:
                    raise ValueError(
                        "functional file requires payloads in requests")
                for off, n, payload in zip(p.offsets, p.lengths, p.payloads):
                    buf[off - span_lo: off - span_lo + n] = payload
            data = bytes(buf)
        yield from file.pwrite(span_lo, span_hi - span_lo, data)
        return span_hi - span_lo

    # -- collective read ------------------------------------------------------------
    def collective_read(self, rank: int, file: InterfaceFile,
                        requests: Union[RunList, Sequence[IORequest]]):
        """Process generator: collectively read all ranks' requests.

        Returns this rank's request payloads (list of bytes) in functional
        mode, else the total bytes delivered to this rank.
        """
        runs = RunList.of(requests)
        align = self.align or file.handle.file.stripe_map.stripe_unit
        lo, hi, all_desc = yield from self._gather_descriptors(rank, runs)
        if hi <= lo:
            yield from self.comm.barrier(rank)
            return [] if file.handle.file.functional else 0
        domains = self._domains(lo, hi, align)

        # I/O phase first: each owner reads the part of its domain that
        # anyone actually wants.
        d_lo, d_hi = domains[rank]
        wanted = merge_intervals([
            (max(o, d_lo), min(o + n, d_hi))
            for offsets, lengths, _, _ in all_desc
            for o, n in zip(offsets, lengths)
        ])
        functional = file.handle.file.functional
        domain_data: Optional[bytes] = None
        span_lo = 0
        if wanted:
            span_lo = wanted[0][0]
            got = yield from file.pread(span_lo, wanted[-1][1] - span_lo)
            if functional:
                domain_data = got

        # Communication phase: ship pieces from owners to requesters.
        with_payloads = domain_data is not None
        outgoing: Dict[int, RunList] = {}
        sizes: Dict[int, int] = {}
        for requester, (offsets, lengths, _, _) in enumerate(all_desc):
            for o, n in zip(offsets, lengths):
                p_lo = max(o, d_lo)
                p_hi = min(o + n, d_hi)
                if p_hi <= p_lo:
                    continue
                payload = None
                if with_payloads:
                    payload = domain_data[p_lo - span_lo: p_hi - span_lo]
                _route(outgoing, sizes, requester, p_lo, p_hi - p_lo,
                       payload, with_payloads)
        inbound = yield from self.comm.alltoallv(rank, outgoing, sizes)
        yield from self.comm.barrier(rank)

        pieces = list(inbound.values())
        if not functional:
            return sum(sum(p.lengths) for p in pieces)
        # Reassemble this rank's requests from the received pieces.
        results: List[bytes] = []
        for offset, nbytes in zip(runs.offsets, runs.lengths):
            end = offset + nbytes
            buf = bytearray(nbytes)
            for p in pieces:
                for off, n, payload in zip(p.offsets, p.lengths, p.payloads):
                    overlap_lo = max(off, offset)
                    overlap_hi = min(off + n, end)
                    if overlap_hi <= overlap_lo:
                        continue
                    buf[overlap_lo - offset: overlap_hi - offset] = \
                        payload[overlap_lo - off: overlap_hi - off]
            results.append(bytes(buf))
        return results
