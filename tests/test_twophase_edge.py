"""Edge-case tests for two-phase collective I/O."""

import pytest

from repro.iolib import IORequest, PassionIO, TwoPhaseIO
from repro.machine import Machine, paragon_small
from repro.mp import Communicator
from repro.pfs import PFS
from repro.trace import IOOp, TraceCollector

KB = 1024


def _setup(n_ranks, functional=False, trace=None):
    machine = Machine(paragon_small(max(n_ranks, 4), 2))
    fs = PFS(machine, functional=functional)
    comm = Communicator(machine, n_ranks)
    interface = PassionIO(fs, trace=trace or TraceCollector())
    return machine, fs, comm, interface


def _run(machine, comm, program):
    procs = comm.spawn(program)
    machine.env.run(machine.env.all_of(procs))
    return procs


class TestEdgeCases:
    def test_single_rank_collective(self):
        machine, fs, comm, interface = _setup(1, functional=True)
        tp = TwoPhaseIO(comm)
        out = {}
        def program(rank, comm):
            f = yield from interface.open(rank, "solo", create=True)
            reqs = [IORequest(k * KB, KB, bytes([k + 1]) * KB)
                    for k in range(4)]
            yield from tp.collective_write(rank, f, reqs)
            out["read"] = yield from tp.collective_read(rank, f, reqs)
        _run(machine, comm, program)
        assert out["read"][2] == b"\x03" * KB

    def test_zero_length_requests_ignored(self):
        machine, fs, comm, interface = _setup(2)
        tp = TwoPhaseIO(comm)
        written = {}
        def program(rank, comm):
            f = yield from interface.open(rank, "z", create=True)
            reqs = [IORequest(0, 0), IORequest(KB, KB)] if rank == 0 else []
            written[rank] = yield from tp.collective_write(rank, f, reqs)
        _run(machine, comm, program)
        assert sum(written.values()) == KB

    def test_single_giant_request(self):
        machine, fs, comm, interface = _setup(4)
        tp = TwoPhaseIO(comm)
        def program(rank, comm):
            f = yield from interface.open(rank, "g", create=True)
            reqs = [IORequest(0, 1024 * KB)] if rank == 0 else []
            yield from tp.collective_write(rank, f, reqs)
        _run(machine, comm, program)
        assert fs.lookup("g").size == 1024 * KB

    def test_duplicate_offsets_across_ranks_no_crash(self):
        """Two ranks writing the same region: one of them wins."""
        machine, fs, comm, interface = _setup(2, functional=True)
        tp = TwoPhaseIO(comm)
        def program(rank, comm):
            f = yield from interface.open(rank, "dup", create=True)
            payload = bytes([rank + 1]) * KB
            yield from tp.collective_write(
                rank, f, [IORequest(0, KB, payload)])
        _run(machine, comm, program)
        data = fs.lookup("dup").read_payload(0, KB)
        assert data in (b"\x01" * KB, b"\x02" * KB)

    def test_functional_write_without_payload_fails(self):
        machine, fs, comm, interface = _setup(2, functional=True)
        tp = TwoPhaseIO(comm)
        def program(rank, comm):
            f = yield from interface.open(rank, "np", create=True)
            yield from tp.collective_write(rank, f,
                                           [IORequest(rank * KB, KB)])
        procs = comm.spawn(program)
        with pytest.raises(ValueError, match="payload"):
            machine.env.run(machine.env.all_of(procs))

    def test_custom_alignment_respected(self):
        machine, fs, comm, interface = _setup(2)
        tp = TwoPhaseIO(comm, align=4 * KB)
        def program(rank, comm):
            f = yield from interface.open(rank, "al", create=True)
            reqs = [IORequest((k * 2 + rank) * KB, KB) for k in range(8)]
            yield from tp.collective_write(rank, f, reqs)
        _run(machine, comm, program)
        # Domain boundary must land on the 4 KB alignment.
        domains = tp._domains(0, 16 * KB, 4 * KB)
        assert domains[0][1] % (4 * KB) == 0

    def test_stripe_aligned_domains_no_slower_than_byte_domains(
            self, monkeypatch):
        """BTIO Class A collective on 36 processors: 32 KB-aligned file
        domains cost at most 1.25x the I/O time of 1-byte domains."""
        from repro.apps.btio import BTIOConfig, run_btio
        from repro.machine import sp2

        init = TwoPhaseIO.__init__

        def io_time(align):
            monkeypatch.setattr(
                TwoPhaseIO, "__init__",
                lambda self, comm, align_=None: init(self, comm, align))
            cfg = BTIOConfig(class_name="A", version="collective",
                             measured_dumps=2)
            return run_btio(sp2(36), cfg, 36).io_time

        assert io_time(32 * KB) <= 1.25 * io_time(1)

    def test_tuple_requests_accepted(self):
        """Plain (offset, nbytes) tuples coerce to IORequest."""
        machine, fs, comm, interface = _setup(2)
        tp = TwoPhaseIO(comm)
        def program(rank, comm):
            f = yield from interface.open(rank, "t", create=True)
            yield from tp.collective_write(rank, f, [(rank * KB, KB)])
        _run(machine, comm, program)
        assert fs.lookup("t").size == 2 * KB

    def test_collective_read_of_sparse_requests(self):
        machine, fs, comm, interface = _setup(3, functional=True)
        tp = TwoPhaseIO(comm)
        blob = bytes(range(256)) * 64        # 16 KB
        f0 = fs.create("sp")
        f0.write_payload(0, blob)
        f0.extend_to(len(blob))
        got = {}
        def program(rank, comm):
            f = yield from interface.open(rank, "sp")
            # Rank 1 asks for nothing.
            reqs = [] if rank == 1 else [IORequest(rank * 97, 31)]
            got[rank] = yield from tp.collective_read(rank, f, reqs)
        _run(machine, comm, program)
        assert got[1] == []
        assert got[0][0] == blob[0:31]
        assert got[2][0] == blob[194:225]


class TestCallCountReduction:
    def test_io_phase_calls_bounded_by_ranks(self):
        trace = TraceCollector()
        machine, fs, comm, interface = _setup(4, trace=trace)
        tp = TwoPhaseIO(comm)
        def program(rank, comm):
            f = yield from interface.open(rank, "c", create=True)
            reqs = [IORequest((k * 4 + rank) * 512, 512)
                    for k in range(128)]
            yield from tp.collective_write(rank, f, reqs)
        _run(machine, comm, program)
        # 512 application requests -> at most one write (plus possibly a
        # read-modify-write read) per rank.
        assert trace.aggregate(IOOp.WRITE).count <= 4
        assert trace.aggregate(IOOp.READ).count <= 4
