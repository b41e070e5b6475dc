"""Parallel file-system front ends: PFS (Paragon) and PIOFS (SP-2)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.machine.machine import Machine
from repro.pfs.file import FileHandle, PFile
from repro.pfs.server import IOServer
from repro.pfs.striping import StripeMap
from repro.sim import fan_out

__all__ = ["ParallelFileSystem", "PFS", "PIOFS"]

#: Size of the control message a client sends to open a request.
_REQUEST_MSG_BYTES = 96
#: Size of a write acknowledgement.
_ACK_MSG_BYTES = 32
#: Per-disk region reserved for each file so files never interleave on a
#: platter (keeps the positional disk model honest).
_FILE_REGION_BYTES = 8 * (1 << 30)


class ParallelFileSystem:
    """Striped file system over a :class:`~repro.machine.Machine`.

    Subclasses fix the platform defaults (stripe unit, spindle fan-out).
    The core data path is :meth:`_transfer`, the generator that
    :class:`~repro.pfs.file.FileHandle`'s ``read_at``/``write_at`` return:
    split the byte range into extents, then for each extent run request
    message → server disk service → response message, all extents in
    parallel (this is precisely the parallelism striping buys, and the
    queueing at shared servers is where contention emerges).
    """

    #: Platform default stripe unit (bytes); overridden by subclasses.
    default_stripe_unit = 64 * 1024
    #: Per-call hold time of the shared-file write token (0 = no token).
    #: Kept on the base class so the token check lives inline in
    #: :meth:`_transfer` instead of behind a subclass generator override —
    #: one fewer frame on every resume of every I/O chain.
    token_service_s = 0.0

    def __init__(self, machine: Machine, functional: bool = False,
                 stripe_unit: Optional[int] = None):
        self.machine = machine
        self.env = machine.env
        self.functional = functional
        from repro.sim import Resource as _Resource
        self._token_cls = _Resource
        self._tokens: Dict[int, "_Resource"] = {}
        self.stripe_unit = (stripe_unit if stripe_unit is not None
                            else machine.config.default_stripe_unit)
        self.servers: List[IOServer] = [
            IOServer(machine.io_node(i), i) for i in range(machine.n_io)
        ]
        #: Fabric address of each I/O node, resolved once for the data path.
        self._io_addrs: List[int] = [machine.io_address(i)
                                     for i in range(machine.n_io)]
        self._files: Dict[str, PFile] = {}
        self._next_id = 0
        self._next_region = 0
        #: I/O nodes that have crashed (see :meth:`fail_io_node`).
        self._failed_io: set = set()
        #: Fixed software cost of an open/close at the metadata server.
        self.open_cost_s = 0.03
        self.close_cost_s = 0.02

    # -- namespace --------------------------------------------------------------
    def create(self, name: str, stripe_unit: Optional[int] = None,
               n_io: Optional[int] = None) -> PFile:
        """Create a file striped over ``n_io`` nodes (default: all)."""
        if name in self._files:
            raise FileExistsError(name)
        smap = StripeMap(
            stripe_unit if stripe_unit is not None else self.stripe_unit,
            n_io if n_io is not None else self.machine.n_io,
            self.machine.config.ionode.disks_per_node,
        )
        if smap.n_io > self.machine.n_io:
            raise ValueError("file striped over more I/O nodes than exist")
        f = PFile(self._next_id, name, smap, functional=self.functional)
        self._next_id += 1
        region = self._next_region
        self._next_region += 1
        for io_index in range(smap.n_io):
            for disk_index in range(smap.disks_per_node):
                f.disk_base[(io_index, disk_index)] = (
                    region * _FILE_REGION_BYTES)
        self._files[name] = f
        if self._failed_io:
            # Born into a degraded system: route around dead nodes from
            # the start.
            self._remap_file(f)
        return f

    # -- fault injection ---------------------------------------------------------
    def fail_io_node(self, io_index: int) -> None:
        """Crash one I/O node: fail-stop with request drain.

        New extents stop being routed to the node — every file's stripe
        map (including files created later) remaps the dead node's
        logical slots onto the surviving physical nodes, round-robin by
        failed slot — while requests already queued there and buffered
        write-behind data drain normally.  The dead server's stripe
        cache is dropped (its contents are gone with the node).
        Failed-over stripe units land in a dedicated failover region on
        the survivor's disk (see
        :meth:`repro.pfs.striping.StripeMap.set_remap`), so the
        survivor's head shuttles between its native and failover regions
        — the intended degraded-mode seek traffic.  Idempotent per node;
        raises once no survivor would remain.
        """
        if not 0 <= io_index < self.machine.n_io:
            raise IndexError(f"I/O node {io_index} out of range")
        if io_index in self._failed_io:
            return
        if len(self._failed_io) + 1 >= self.machine.n_io:
            raise RuntimeError(
                f"cannot fail I/O node {io_index}: no surviving I/O "
                f"nodes would remain")
        self._failed_io.add(io_index)
        self.machine.io_node(io_index).fail()
        self.servers[io_index].drop_cache()
        for f in self._files.values():
            self._remap_file(f)

    def _remap_file(self, f: PFile) -> None:
        """Point ``f``'s stripe map at the current survivor set."""
        smap = f.stripe_map
        survivors = [i for i in range(self.machine.n_io)
                     if i not in self._failed_io]
        k = 0
        mapping = []
        for slot in range(smap.n_io):
            if slot in self._failed_io:
                mapping.append(survivors[k % len(survivors)])
                k += 1
            else:
                mapping.append(slot)
        smap.set_remap(mapping)
        # Failed-over slots may now land on nodes outside the file's
        # original stripe width; give those (node, disk) pairs the same
        # per-disk region base the file already uses everywhere else.
        base = next(iter(f.disk_base.values()))
        for target in mapping:
            for disk_index in range(smap.disks_per_node):
                f.disk_base.setdefault((target, disk_index), base)

    def lookup(self, name: str) -> PFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def unlink(self, name: str) -> None:
        f = self.lookup(name)
        if f.open_count > 0:
            raise RuntimeError(f"{name!r} is still open")
        del self._files[name]

    def listdir(self) -> List[str]:
        return sorted(self._files)

    # -- open/close (process generators: they cost simulated time) ----------------
    def open(self, name: str, rank: int, create: bool = False,
             stripe_unit: Optional[int] = None):
        """Process generator: open ``name``, returning a FileHandle."""
        if not self.exists(name):
            if not create:
                raise FileNotFoundError(name)
            self.create(name, stripe_unit=stripe_unit)
        yield self.env.timeout(self.open_cost_s)
        f = self.lookup(name)
        f.open_count += 1
        return FileHandle(self, f, rank)

    def close(self, handle: FileHandle):
        """Process generator: close a handle."""
        yield self.env.timeout(self.close_cost_s)
        handle.close()

    # -- the data path -----------------------------------------------------------
    def _extent_op(self, handle: FileHandle, extent, write: bool):
        """One extent: request msg → server service → data/ack msg."""
        fabric = self.machine.fabric
        client = handle.rank
        io_addr = self._io_addrs[extent.io_index]
        server = self.servers[extent.io_index]
        if write:
            # Request+payload to the server, then service, then a tiny ack.
            yield from fabric.transfer(client, io_addr,
                                       _REQUEST_MSG_BYTES + extent.length)
            yield from server.write_extent(handle.file, extent)
            yield from fabric.transfer(io_addr, client, _ACK_MSG_BYTES)
        else:
            yield from fabric.transfer(client, io_addr, _REQUEST_MSG_BYTES)
            yield from server.read_extent(handle.file, extent)
            yield from fabric.transfer(io_addr, client, extent.length)

    def _transfer(self, handle: FileHandle, offset: int, nbytes: int,
                  write: bool, data: Optional[bytes]):
        """Process generator behind :meth:`FileHandle.read_at` and
        :meth:`FileHandle.write_at`: move a byte range, all extents in
        parallel.

        The handle's checks run here, when the generator starts.  Returns
        the payload bytes of a functional read, else ``nbytes``.
        """
        file = handle.file
        if handle.closed:
            raise RuntimeError(f"handle to {file.name!r} is closed")
        if data is not None and len(data) != nbytes:
            raise ValueError("data length does not match nbytes")
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if nbytes:
            if write and self.token_service_s and file.open_count > 1:
                token = self._token(file.file_id)
                if token.acquire():
                    try:
                        yield self.token_service_s
                    finally:
                        token.release_slot()
                else:
                    with token.request() as slot:
                        yield slot
                        yield self.token_service_s
            extents = file.stripe_map.extents(offset, nbytes)
            if len(extents) == 1:
                # Single extent (the common small-request case): run the
                # extent op in this frame rather than delegating, keeping
                # the generator chain one level shorter for every event
                # resume.
                extent = extents[0]
                fabric = self.machine.fabric
                client = handle.rank
                io_addr = self._io_addrs[extent.io_index]
                server = self.servers[extent.io_index]
                if write:
                    yield from fabric.transfer(
                        client, io_addr, _REQUEST_MSG_BYTES + extent.length)
                    yield from server.write_extent(file, extent)
                    yield from fabric.transfer(io_addr, client,
                                               _ACK_MSG_BYTES)
                else:
                    yield from fabric.transfer(client, io_addr,
                                               _REQUEST_MSG_BYTES)
                    yield from server.read_extent(file, extent)
                    yield from fabric.transfer(io_addr, client,
                                               extent.length)
            else:
                # Multi-extent: run the per-extent ops under the
                # lightweight fan-out (plain sub-generators on the fast
                # kernel; a Process per extent on the reference kernel).
                yield fan_out(self.env, (self._extent_op(handle, e, write)
                                         for e in extents))
        if write:
            if data is not None and file.functional:
                file.write_payload(offset, data)
            file.extend_to(offset + nbytes)
            return nbytes
        if file.functional:
            return file.read_payload(offset, nbytes)
        return nbytes

    def _token(self, file_id: int):
        tok = self._tokens.get(file_id)
        if tok is None:
            tok = self._token_cls(self.env, capacity=1)
            self._tokens[file_id] = tok
        return tok

    # -- stats -------------------------------------------------------------------
    def cache_hit_rate(self) -> float:
        hits = sum(s.cache.hits for s in self.servers)
        misses = sum(s.cache.misses for s in self.servers)
        total = hits + misses
        return hits / total if total else 0.0

    def total_bytes_moved(self) -> int:
        return sum(n.stats.bytes_read + n.stats.bytes_written
                   for n in self.machine.io_nodes)


class PFS(ParallelFileSystem):
    """Intel Paragon Parallel File System: 64 KB stripe units, round-robin
    across the I/O partition."""

    default_stripe_unit = 64 * 1024


class PIOFS(ParallelFileSystem):
    """IBM SP-2 PIOFS: 32 KB basic striping units (BSUs), files spread
    across the I/O nodes' SSA disk arrays.

    PIOFS serializes consistency metadata for *shared-file writes* on a
    per-file mode token: every write call to a file opened by more than
    one process first acquires the token for ``token_service_s``.  With
    thousands of tiny writes per dump this token, not the disks, is what
    the unoptimized BTIO queues on — collective I/O sidesteps it by
    issuing one call per process.
    """

    default_stripe_unit = 32 * 1024
    #: Token hold time per shared-file write call.  The token check and
    #: acquisition run inline in the base class's ``_transfer`` (enabled
    #: by this attribute being non-zero) so PIOFS adds no generator frame
    #: of its own to the data path.
    token_service_s = 0.00012

    def __init__(self, machine: Machine, functional: bool = False,
                 stripe_unit: Optional[int] = None):
        # PIOFS always stripes in BSUs regardless of the machine default.
        super().__init__(machine, functional=functional,
                         stripe_unit=(stripe_unit if stripe_unit is not None
                                      else self.default_stripe_unit))
