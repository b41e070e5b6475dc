"""Striping maps: file byte ranges → per-disk extents.

Both PFS (Paragon) and PIOFS (SP-2) stripe files round-robin in fixed
units (64 KB default on PFS; 32 KB "BSUs" on PIOFS).  A :class:`StripeMap`
translates a contiguous file range into the list of physical extents it
touches, which is the quantity every timing result in the paper ultimately
depends on (request counts and sizes per I/O node).

Extent mapping sits on the data path of every simulated read and write,
so :meth:`StripeMap.iter_extents` emits each extent with closed-form
arithmetic — O(extents), one loop iteration per *extent* rather than per
stripe unit — and :meth:`StripeMap.extents` memoizes whole requests,
because strided workloads (BTIO, FFT) re-issue the same (offset, nbytes)
shapes thousands of times.  A request inside one stripe unit (AST's 4 KB
pieces, most BTIO runs) skips both: its single extent is one
:meth:`StripeMap.locate`-style computation.
:meth:`StripeMap.reference_extents` keeps the naive unit-by-unit walk as
the oracle the parity tests check against.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Tuple

__all__ = ["Extent", "StripeMap"]


class Extent(NamedTuple):
    """One physically contiguous piece of a file range.

    A named tuple rather than a frozen dataclass: extents are built on
    every simulated request, and frozen-dataclass construction pays one
    ``object.__setattr__`` per field.

    Attributes
    ----------
    io_index:
        Index of the I/O node holding the piece.
    disk_index:
        Disk within that I/O node.
    disk_offset:
        Byte offset *local to the file's region on that disk* (the file
        system adds the file's per-disk base before hitting the disk model).
    file_offset:
        Where the piece starts in the file (for reassembly).
    length:
        Piece length in bytes.
    """

    io_index: int
    disk_index: int
    disk_offset: int
    file_offset: int
    length: int


#: Requests memoized per map before the table is reset.  BTIO/FFT sweeps
#: cycle through a few dozen distinct shapes; 4096 is safely above any
#: experiment's working set while bounding memory.
_MEMO_LIMIT = 4096

#: Disk-offset base of the per-slot failover regions used by remapped
#: stripe units (see :meth:`StripeMap.set_remap`).  Far beyond any file
#: region (:data:`repro.pfs.filesystem._FILE_REGION_BYTES` spacing), so
#: failed-over units never alias a survivor's native units on disk or in
#: the server cache; each failed logical slot gets its own region.
_FAILOVER_REGION_BYTES = 1 << 50


class StripeMap:
    """Round-robin striping of a file across ``n_io`` nodes.

    Stripe units are dealt across I/O nodes first, then across the disks of
    each node (so a file on a 4-node × 4-disk PIOFS uses all 16 spindles).

    The geometry parameters are fixed at construction; :meth:`extents`
    relies on that to cache request → extent-tuple mappings.

    Parameters
    ----------
    stripe_unit:
        Bytes per stripe unit.
    n_io:
        Number of I/O nodes the file is striped over.
    disks_per_node:
        Disks attached to each I/O node.
    """

    def __init__(self, stripe_unit: int, n_io: int, disks_per_node: int = 1):
        if stripe_unit <= 0:
            raise ValueError("stripe_unit must be positive")
        if n_io <= 0 or disks_per_node <= 0:
            raise ValueError("n_io and disks_per_node must be positive")
        self.stripe_unit = stripe_unit
        self.n_io = n_io
        self.disks_per_node = disks_per_node
        self._memo: dict = {}
        #: Failover remap (:mod:`repro.faults`): tuple of length ``n_io``
        #: sending each *logical* I/O slot to the physical I/O node that
        #: currently serves it.  ``None`` means identity (the normal
        #: case, zero-cost on the mapping hot path).
        self._remap: Tuple[int, ...] | None = None

    @property
    def n_spindles(self) -> int:
        return self.n_io * self.disks_per_node

    @property
    def remap(self) -> Tuple[int, ...] | None:
        return self._remap

    def set_remap(self, mapping) -> None:
        """Redirect logical I/O slots to surviving physical nodes.

        ``mapping`` is a sequence of ``n_io`` physical I/O indices (or
        ``None`` to restore identity).  A failed-over stripe unit keeps
        its disk index and per-slot offset but moves into a dedicated
        *failover region* on the survivor's disk
        (:data:`_FAILOVER_REGION_BYTES` per failed slot), as if the
        survivor hosted the recovered stripes in spare space: no unit
        ever aliases a native one, and the survivor's head shuttling
        between its native and failover regions is the intended
        degraded-mode seek storm.  Clears the request memo, which caches
        resolved extents.
        """
        if mapping is not None:
            mapping = tuple(mapping)
            if len(mapping) != self.n_io:
                raise ValueError(
                    f"remap must have {self.n_io} entries, "
                    f"got {len(mapping)}")
            if any(m < 0 for m in mapping):
                raise ValueError("remap targets must be non-negative")
            if mapping == tuple(range(self.n_io)):
                mapping = None
        self._remap = mapping
        self._memo.clear()

    def locate(self, offset: int) -> Tuple[int, int, int]:
        """Map a file offset to (io_index, disk_index, disk_offset)."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        su = offset // self.stripe_unit
        within = offset % self.stripe_unit
        io_index = su % self.n_io
        round_ = su // self.n_io
        disk_index = round_ % self.disks_per_node
        local_su = round_ // self.disks_per_node
        disk_offset = local_su * self.stripe_unit + within
        if self._remap is not None:
            phys = self._remap[io_index]
            if phys != io_index:
                disk_offset += (io_index + 1) * _FAILOVER_REGION_BYTES
            io_index = phys
        return io_index, disk_index, disk_offset

    def extents(self, offset: int, nbytes: int) -> List[Extent]:
        """Split a contiguous file range into physical extents.

        Consecutive stripe units that land on the same spindle *and* are
        physically adjacent are coalesced into a single extent, mirroring
        what the real servers' block layer did.
        """
        unit = self.stripe_unit
        within = offset % unit
        if 0 < nbytes <= unit - within and offset >= 0:
            # One stripe unit: the same arithmetic as iter_extents' first
            # iteration, without the memo or the generator.
            round_, io_index = divmod(offset // unit, self.n_io)
            local_su, disk_index = divmod(round_, self.disks_per_node)
            disk_offset = local_su * unit + within
            remap = self._remap
            if remap is not None:
                phys = remap[io_index]
                if phys != io_index:
                    disk_offset += (io_index + 1) * _FAILOVER_REGION_BYTES
                io_index = phys
            return [Extent(io_index, disk_index, disk_offset, offset, nbytes)]
        key = (offset, nbytes)
        memo = self._memo
        cached = memo.get(key)
        if cached is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            cached = memo[key] = tuple(self.iter_extents(offset, nbytes))
        return list(cached)

    def iter_extents(self, offset: int, nbytes: int) -> Iterator[Extent]:
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        end = offset + nbytes
        if offset >= end:
            return
        unit = self.stripe_unit
        n_io = self.n_io
        disks = self.disks_per_node
        remap = self._remap
        if n_io == 1 and disks == 1:
            # Single spindle: every unit is adjacent to the previous one, so
            # the whole range coalesces into one extent at disk_offset ==
            # file offset.
            if remap is None or remap[0] == 0:
                yield Extent(0, 0, offset, offset, nbytes)
            else:
                yield Extent(remap[0], 0, offset + _FAILOVER_REGION_BYTES,
                             offset, nbytes)
            return
        # More than one spindle: consecutive stripe units always land on
        # different spindles (nodes rotate fastest, then disks), so nothing
        # coalesces and each touched unit is exactly one extent.
        su, within = divmod(offset, unit)
        pos = offset
        if remap is not None:
            # Failover loop: identical arithmetic, plus the slot->survivor
            # indirection (kept separate so the fault-free path stays
            # untouched).
            while pos < end:
                length = unit - within
                rem = end - pos
                if rem < length:
                    length = rem
                round_, io_index = divmod(su, n_io)
                local_su, disk_index = divmod(round_, disks)
                phys = remap[io_index]
                disk_offset = local_su * unit + within
                if phys != io_index:
                    disk_offset += (io_index + 1) * _FAILOVER_REGION_BYTES
                yield Extent(phys, disk_index, disk_offset, pos, length)
                pos += length
                su += 1
                within = 0
            return
        while pos < end:
            length = unit - within
            rem = end - pos
            if rem < length:
                length = rem
            round_, io_index = divmod(su, n_io)
            local_su, disk_index = divmod(round_, disks)
            yield Extent(io_index, disk_index, local_su * unit + within,
                         pos, length)
            pos += length
            su += 1
            within = 0

    def reference_extents(self, offset: int, nbytes: int) -> List[Extent]:
        """Naive oracle: walk the range one stripe unit at a time.

        This is the original O(stripe units) implementation, kept verbatim
        so the parity tests can assert :meth:`iter_extents` emits the
        identical sequence.  Not for production use.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        out: List[Extent] = []
        pos = offset
        end = offset + nbytes
        pending: Extent | None = None
        while pos < end:
            io_index, disk_index, disk_off = self.locate(pos)
            in_unit = self.stripe_unit - (pos % self.stripe_unit)
            length = min(in_unit, end - pos)
            if (pending is not None
                    and pending.io_index == io_index
                    and pending.disk_index == disk_index
                    and pending.disk_offset + pending.length == disk_off):
                pending = Extent(io_index, disk_index, pending.disk_offset,
                                 pending.file_offset,
                                 pending.length + length)
            else:
                if pending is not None:
                    out.append(pending)
                pending = Extent(io_index, disk_index, disk_off, pos, length)
            pos += length
        if pending is not None:
            out.append(pending)
        return out

    def units_touched(self, offset: int, nbytes: int) -> int:
        """Number of stripe units a range overlaps (diagnostic)."""
        if nbytes == 0:
            return 0
        first = offset // self.stripe_unit
        last = (offset + nbytes - 1) // self.stripe_unit
        return last - first + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StripeMap unit={self.stripe_unit} io={self.n_io}"
                f"x{self.disks_per_node}>")
