"""Tests for two-phase collective I/O, including functional round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from array import array

from repro.iolib import (IORequest, PassionIO, RunList, TwoPhaseIO,
                         merge_intervals)
from repro.machine import Machine, paragon_small
from repro.mp import Communicator
from repro.pfs import PFS
from repro.trace import IOOp, TraceCollector

KB = 1024


class TestMergeIntervals:
    def test_disjoint_kept(self):
        assert merge_intervals([(0, 5), (10, 15)]) == [(0, 5), (10, 15)]

    def test_adjacent_merged(self):
        assert merge_intervals([(0, 5), (5, 9)]) == [(0, 9)]

    def test_overlap_merged(self):
        assert merge_intervals([(0, 8), (4, 12)]) == [(0, 12)]

    def test_unsorted_input(self):
        assert merge_intervals([(10, 12), (0, 3)]) == [(0, 3), (10, 12)]

    def test_empty_intervals_dropped(self):
        assert merge_intervals([(5, 5), (1, 2)]) == [(1, 2)]

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 200)),
                    max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_merged_cover_same_points(self, raw):
        intervals = [(a, a + n) for a, n in raw]
        merged = merge_intervals(intervals)
        # Merged intervals are sorted, disjoint, non-empty.
        for (a0, a1), (b0, b1) in zip(merged, merged[1:]):
            assert a1 < b0
        assert all(a < b for a, b in merged)
        # Point-coverage identical (sampled at interval endpoints).
        def covered(x, ivs):
            return any(a <= x < b for a, b in ivs)
        for a, b in intervals:
            for x in (a, b - 1):
                if a < b:
                    assert covered(x, intervals) == covered(x, merged)


class TestIORequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            IORequest(-1, 5)
        with pytest.raises(ValueError):
            IORequest(0, -5)
        with pytest.raises(ValueError):
            IORequest(0, 5, payload=b"xx")

    def test_end(self):
        assert IORequest(10, 5).end == 15


class TestRunList:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunList([0, -1], [4, 4])
        with pytest.raises(ValueError):
            RunList([0, 8], [4, -4])
        with pytest.raises(ValueError):
            RunList([0, 8], [4])
        with pytest.raises(ValueError):
            RunList([0, 8], [4, 4], [b"abcd"])
        with pytest.raises(ValueError):
            RunList([0, 8], [4, 4], [b"abcd", b"xx"])

    def test_of_normalises_requests_once(self):
        runs = RunList.of([IORequest(8, 4), (0, 2)])
        assert runs.offsets == array("q", [8, 0])
        assert runs.lengths == array("q", [4, 2])
        assert runs.payloads is None and len(runs) == 2
        mixed = RunList.of([IORequest(0, 2, b"ab"), (4, 1)])
        assert mixed.payloads == [b"ab", None]
        assert RunList.of(runs) is runs
        with pytest.raises(ValueError):
            RunList.of([(0, 2, b"abc")])


#: Strided runs of 3 ranks: interleaved 700-byte runs with gaps, so
#: domain boundaries split runs and the owners' spans have holes.
def _strided(rank, n=9, payloads=False):
    offsets = [(k * 3 + rank) * 1000 for k in range(n)]
    data = [bytes([rank * 32 + k + 1]) * 700 for k in range(n)]
    return offsets, [700] * n, (data if payloads else None)


def _as_requests(rank, payloads=False):
    offsets, lengths, data = _strided(rank, payloads=payloads)
    return [IORequest(o, n, None if data is None else data[i])
            for i, (o, n) in enumerate(zip(offsets, lengths))]


def _as_runs(rank, payloads=False):
    return RunList(*_strided(rank, payloads=payloads))


class TestRunListInput:
    def test_functional_round_trip(self):
        """Collective write then collective read, both given run lists
        with payloads, returns the payloads and leaves the holes zero."""
        P = 3
        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine, functional=True)
        comm = Communicator(machine, P)
        tp = TwoPhaseIO(comm, align=KB)
        interface = PassionIO(fs)
        got = {}

        def program(rank, comm):
            f = yield from interface.open(rank, "runs.dat", create=True)
            yield from tp.collective_write(
                rank, f, _as_runs(rank, payloads=True))
            got[rank] = yield from tp.collective_read(
                rank, f, _as_runs(rank))

        machine.env.run(machine.env.all_of(comm.spawn(program)))
        f = fs.lookup("runs.dat")
        for rank in range(P):
            offsets, lengths, data = _strided(rank, payloads=True)
            assert got[rank] == data
            for off, payload in zip(offsets, data):
                assert f.read_payload(off, 700) == payload
                assert f.read_payload(off + 700, 300) == bytes(300)

    def test_requests_and_run_lists_trace_identically(self):
        """The same collective given as IORequest lists and as run lists
        produces identical I/O traces and the same end time."""
        from repro.sim.diff import capture_trace

        def scenario(make):
            machine = Machine(paragon_small(4, 2))
            fs = PFS(machine)
            comm = Communicator(machine, 3)
            tp = TwoPhaseIO(comm)
            interface = PassionIO(fs, trace=TraceCollector())
            totals = {}

            def program(rank, comm):
                f = yield from interface.open(rank, "t.dat", create=True)
                written = yield from tp.collective_write(rank, f, make(rank))
                read = yield from tp.collective_read(rank, f, make(rank))
                totals[rank] = (written, read)

            machine.env.run(machine.env.all_of(comm.spawn(program)))
            return machine.env.now, totals

        by_requests, by_runs = [], []
        with capture_trace(by_requests):
            end_requests = scenario(_as_requests)
        with capture_trace(by_runs):
            end_runs = scenario(_as_runs)
        assert by_requests and by_requests == by_runs
        assert end_requests == end_runs


def _collective(n_ranks, make_requests, functional=True, op="write"):
    """Run a collective write (and read-back) over n_ranks; returns
    (machine, fs, per-rank results)."""
    machine = Machine(paragon_small(max(n_ranks, 4), 2))
    fs = PFS(machine, functional=functional)
    comm = Communicator(machine, n_ranks)
    tp = TwoPhaseIO(comm)
    interface = PassionIO(fs)
    results = {}

    def program(rank, comm):
        f = yield from interface.open(rank, "coll.dat", create=True)
        reqs = make_requests(rank)
        if op == "write":
            results[rank] = yield from tp.collective_write(rank, f, reqs)
        else:
            results[rank] = yield from tp.collective_read(rank, f, reqs)
        yield from f.close()

    procs = comm.spawn(program)
    machine.env.run(machine.env.all_of(procs))
    return machine, fs, results


class TestCollectiveWrite:
    def test_interleaved_writes_round_trip(self):
        P = 4
        def reqs(rank):
            return [IORequest((k * P + rank) * 1000, 1000,
                              bytes([rank * 16 + k]) * 1000)
                    for k in range(6)]
        _, fs, _ = _collective(P, reqs)
        f = fs.lookup("coll.dat")
        for rank in range(P):
            for k in range(6):
                off = (k * P + rank) * 1000
                assert f.read_payload(off, 1000) == \
                    bytes([rank * 16 + k]) * 1000, (rank, k)

    def test_full_coverage_needs_no_preread(self):
        P = 2
        trace = TraceCollector()
        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine)
        comm = Communicator(machine, P)
        tp = TwoPhaseIO(comm)
        interface = PassionIO(fs, trace=trace)
        def program(rank, comm):
            f = yield from interface.open(rank, "c.dat", create=True)
            reqs = [IORequest((k * P + rank) * 32 * KB, 32 * KB)
                    for k in range(8)]
            yield from tp.collective_write(rank, f, reqs)
        procs = comm.spawn(program)
        machine.env.run(machine.env.all_of(procs))
        assert trace.aggregate(IOOp.READ).count == 0

    def test_one_io_phase_write_per_rank(self):
        P = 4
        trace = TraceCollector()
        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine)
        comm = Communicator(machine, P)
        tp = TwoPhaseIO(comm)
        interface = PassionIO(fs, trace=trace)
        def program(rank, comm):
            f = yield from interface.open(rank, "c.dat", create=True)
            reqs = [IORequest((k * P + rank) * 4 * KB, 4 * KB)
                    for k in range(64)]
            yield from tp.collective_write(rank, f, reqs)
        procs = comm.spawn(program)
        machine.env.run(machine.env.all_of(procs))
        # 256 application requests became at most P file-system writes.
        assert trace.aggregate(IOOp.WRITE).count <= P

    def test_holes_preserve_existing_data(self):
        P = 2
        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine, functional=True)
        comm = Communicator(machine, P)
        tp = TwoPhaseIO(comm)
        interface = PassionIO(fs)
        def program(rank, comm):
            f = yield from interface.open(rank, "h.dat", create=True)
            if rank == 0:
                # Pre-fill the whole region independently.
                yield from f.pwrite(0, 40 * KB, b"\xAA" * (40 * KB))
            yield from comm.barrier(rank)
            # Collective write covering only scattered pieces.
            reqs = [IORequest((4 * k + rank) * 2 * KB, KB,
                              bytes([rank + 1]) * KB) for k in range(5)]
            yield from tp.collective_write(rank, f, reqs)
        procs = comm.spawn(program)
        machine.env.run(machine.env.all_of(procs))
        f = fs.lookup("h.dat")
        # Written pieces present...
        assert f.read_payload(0, KB) == b"\x01" * KB
        assert f.read_payload(2 * KB, KB) == b"\x02" * KB
        # ...and the hole between them still holds the old data.
        assert f.read_payload(KB, KB) == b"\xAA" * KB

    def test_empty_requests_everywhere(self):
        _, _, results = _collective(3, lambda rank: [], functional=False)
        assert all(v == 0 for v in results.values())

    def test_some_ranks_empty(self):
        def reqs(rank):
            if rank == 0:
                return [IORequest(0, 10 * KB, b"z" * (10 * KB))]
            return []
        _, fs, _ = _collective(3, reqs)
        assert fs.lookup("coll.dat").read_payload(0, 5) == b"zzzzz"


class TestCollectiveRead:
    def test_read_returns_each_ranks_pieces(self):
        P = 3
        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine, functional=True)
        comm = Communicator(machine, P)
        tp = TwoPhaseIO(comm)
        interface = PassionIO(fs)
        blob = bytes(range(256)) * ((30 * KB) // 256)
        f0 = fs.create("r.dat")
        f0.write_payload(0, blob)
        f0.extend_to(len(blob))
        got = {}
        def program(rank, comm):
            f = yield from interface.open(rank, "r.dat", create=False)
            reqs = [IORequest((k * P + rank) * 512, 512) for k in range(8)]
            got[rank] = yield from tp.collective_read(rank, f, reqs)
        procs = comm.spawn(program)
        machine.env.run(machine.env.all_of(procs))
        for rank in range(P):
            for k in range(8):
                off = (k * P + rank) * 512
                assert got[rank][k] == blob[off:off + 512], (rank, k)

    def test_timing_mode_returns_byte_total(self):
        def reqs(rank):
            return [IORequest(rank * 8 * KB, 8 * KB)]
        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine)
        comm = Communicator(machine, 2)
        tp = TwoPhaseIO(comm)
        interface = PassionIO(fs)
        out = {}
        def program(rank, comm):
            f = yield from interface.open(rank, "t.dat", create=True)
            yield from f.pwrite(0, 64 * KB)
            yield from comm.barrier(rank)
            out[rank] = yield from tp.collective_read(rank, f, reqs(rank))
        procs = comm.spawn(program)
        machine.env.run(machine.env.all_of(procs))
        assert out == {0: 8 * KB, 1: 8 * KB}

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_random_request_sets_round_trip(self, seed):
        """Collective write then collective read returns what was written."""
        import random
        rng = random.Random(seed)
        P = rng.choice([2, 3, 4])
        # Non-overlapping random pieces, assigned randomly to ranks.
        starts = sorted(rng.sample(range(0, 100), rng.randint(1, 12)))
        pieces = []
        for i, s in enumerate(starts):
            limit = (starts[i + 1] - s) if i + 1 < len(starts) else 4
            length = rng.randint(1, max(1, limit)) * 256
            pieces.append((s * 256, length))
        by_rank = {r: [] for r in range(P)}
        for i, (off, ln) in enumerate(pieces):
            payload = bytes([i % 251 + 1]) * ln
            by_rank[rng.randrange(P)].append(IORequest(off, ln, payload))

        machine = Machine(paragon_small(4, 2))
        fs = PFS(machine, functional=True)
        comm = Communicator(machine, P)
        tp = TwoPhaseIO(comm)
        interface = PassionIO(fs)
        got = {}
        def program(rank, comm):
            f = yield from interface.open(rank, "rr.dat", create=True)
            yield from tp.collective_write(rank, f, by_rank[rank])
            got[rank] = yield from tp.collective_read(
                rank, f, by_rank[rank])
        procs = comm.spawn(program)
        machine.env.run(machine.env.all_of(procs))
        for rank in range(P):
            for req, back in zip(by_rank[rank], got[rank]):
                assert back == req.payload


class TestDomains:
    @staticmethod
    def _domain_bytes(requests, align):
        """Bytes each rank writes in the I/O phase of one collective
        write of ``requests[rank]``: the size of its file domain when
        the requests cover the whole range."""
        machine = Machine(paragon_small(4, 2))
        comm = Communicator(machine, len(requests))
        interface = PassionIO(PFS(machine), trace=TraceCollector())
        tp = TwoPhaseIO(comm, align=align)
        written = {}

        def program(rank, comm):
            f = yield from interface.open(rank, "dom", create=True)
            written[rank] = yield from tp.collective_write(
                rank, f, requests[rank])
        machine.env.run(machine.env.all_of(comm.spawn(program)))
        return [written[r] for r in range(len(requests))]

    def test_domains_are_aligned_and_cover_range(self):
        quarter = 250 * KB
        written = self._domain_bytes(
            [[IORequest(r * quarter, quarter)] for r in range(4)],
            align=64 * KB)
        assert written == [256 * KB, 256 * KB, 256 * KB, 232 * KB]
        # A range shorter than P aligned domains leaves the last empty.
        written = self._domain_bytes(
            [[IORequest(r * 25 * KB, 25 * KB)] for r in range(4)],
            align=64 * KB)
        assert written == [64 * KB, 36 * KB, 0, 0]

    def test_empty_range_gives_empty_domains(self):
        assert self._domain_bytes([[IORequest(5, 0)]] * 3, align=64) \
            == [0, 0, 0]
