"""Randomized differential sweeps: fast kernel vs reference kernel.

Every test here builds a small machine/application scenario from a
seed, runs it once on each simulation kernel through
:func:`repro.sim.diff.diff_scenario`, and requires the application-level
I/O trace (operation, rank, start, duration, bytes, file — bitwise
float equality) and the final results to be identical.  Fifty seeds of
the mixed workload cover the fast paths in combination — inline sleeps,
reusable sleep entries, inline and deferred fan-out starts, Container
grants, write-behind — under randomized contention the directed tests
in ``test_sim_fastpath2.py`` can't enumerate.
"""

import random

import pytest

from repro.machine import Machine, paragon_large, paragon_small, sp2
from repro.mp import Communicator
from repro.pfs import PFS, PIOFS
from repro.iolib.base import IOInterface


def _draw_shape(rnd):
    """One randomized machine + file system + stripe unit.

    Beyond the small-Paragon shapes the original sweep used, this draws
    the other two platforms of the paper — the large Paragon (12/16/64
    I/O-node partitions) and the SP-2 under PIOFS — and mixes odd,
    non-power-of-two stripe units in with the natural ones, so striping
    arithmetic is diffed where requests straddle stripes unevenly.
    """
    shape = rnd.choice(["paragon_small", "paragon_large", "sp2"])
    if shape == "paragon_small":
        machine = Machine(paragon_small(n_compute=rnd.randint(2, 4),
                                        n_io=rnd.choice([2, 4])))
        stripe = rnd.choice([4096, 16384, 65536, 12000])
        fs = PFS(machine, stripe_unit=stripe)
    elif shape == "paragon_large":
        machine = Machine(paragon_large(n_compute=rnd.randint(4, 8),
                                        n_io=rnd.choice([12, 16, 64])))
        stripe = rnd.choice([4096, 65536, 131072, 20000])
        fs = PFS(machine, stripe_unit=stripe)
    else:
        machine = Machine(sp2(n_compute=rnd.randint(5, 10)))
        stripe = rnd.choice([8192, 32768, 50000])
        fs = PIOFS(machine, stripe_unit=stripe)
    return machine, fs, stripe


def _mixed_workload(seed: int):
    """Builder for one randomized scenario (machine + per-rank program).

    Everything — machine shape, stripe unit, per-rank op sequences — is
    derived from ``seed`` alone, so the two kernel runs see exactly the
    same workload.
    """

    def build():
        rnd = random.Random(seed)
        n_compute = rnd.randint(2, 4)
        n_io = rnd.choice([2, 4])
        machine = Machine(paragon_small(n_compute=n_compute, n_io=n_io))
        stripe = rnd.choice([4096, 16384, 65536])
        fs = PFS(machine, stripe_unit=stripe)
        iface = IOInterface(fs)
        comm = Communicator(machine)
        env = machine.env

        # Round plan shared by all ranks: collective rounds must be
        # entered by everyone, I/O rounds are per-rank randomized.
        rounds = [rnd.choice(["io", "io", "io", "sleep", "allgather",
                              "barrier"])
                  for _ in range(rnd.randint(4, 9))]
        # Per-rank op parameters, pre-drawn so spawn order can't shift
        # the random stream between kernels.
        plans = {}
        for rank in range(n_compute):
            ops = []
            for kind in rounds:
                if kind == "io":
                    ops.append((rnd.choice(["read", "write", "seek"]),
                                rnd.randrange(0, 4 * stripe),
                                rnd.randrange(1, 3 * stripe)))
                elif kind == "sleep":
                    ops.append(("sleep", rnd.uniform(0.0, 0.01), 0))
                else:
                    ops.append((kind, rnd.randrange(64, 4096), 0))
            plans[rank] = ops

        def rank_program(rank):
            f = yield from iface.open(rank, "shared.dat", create=True,
                                      stripe_unit=stripe)
            moved = 0
            for op, a, b in plans[rank]:
                if op == "read":
                    yield from f.pread(a, b)
                    moved += b
                elif op == "write":
                    yield from f.pwrite(a, b)
                    moved += b
                elif op == "seek":
                    yield from f.seek(a)
                elif op == "sleep":
                    yield a
                elif op == "allgather":
                    yield from comm.allgather(rank, rank, a)
                elif op == "barrier":
                    yield from comm.barrier(rank)
            yield from f.close()
            return (rank, moved, env.now)

        procs = [env.process(rank_program(r)) for r in range(n_compute)]
        env.run(env.all_of(procs))
        stats = machine.fabric.stats
        return {
            "now": env.now,
            "ranks": [p.value for p in procs],
            "cache_hit_rate": fs.cache_hit_rate(),
            "bytes_moved": fs.total_bytes_moved(),
            "fabric": (stats.messages, stats.bytes_moved,
                       stats.total_transfer_time),
        }

    return build


@pytest.mark.parametrize("seed", range(50))
def test_mixed_workload_trace_identical(kernel_diff, seed):
    report = kernel_diff(_mixed_workload(seed), label=f"mixed-{seed}")
    assert report.fast_events > 0, "scenario recorded no I/O events"


def _shaped_workload(seed: int):
    """Like :func:`_mixed_workload`, but the machine itself is drawn
    from the full shape space (large Paragon, SP-2/PIOFS, odd stripes)."""

    def build():
        rnd = random.Random(10_000 + seed)
        machine, fs, stripe = _draw_shape(rnd)
        n_compute = machine.config.n_compute
        iface = IOInterface(fs)
        comm = Communicator(machine)
        env = machine.env

        rounds = [rnd.choice(["io", "io", "io", "sleep", "allgather",
                              "barrier"])
                  for _ in range(rnd.randint(4, 8))]
        plans = {}
        for rank in range(n_compute):
            ops = []
            for kind in rounds:
                if kind == "io":
                    ops.append((rnd.choice(["read", "write", "seek"]),
                                rnd.randrange(0, 4 * stripe),
                                rnd.randrange(1, 3 * stripe)))
                elif kind == "sleep":
                    ops.append(("sleep", rnd.uniform(0.0, 0.01), 0))
                else:
                    ops.append((kind, rnd.randrange(64, 4096), 0))
            plans[rank] = ops

        def rank_program(rank):
            f = yield from iface.open(rank, "shaped.dat", create=True,
                                      stripe_unit=stripe)
            moved = 0
            for op, a, b in plans[rank]:
                if op == "read":
                    yield from f.pread(a, b)
                    moved += b
                elif op == "write":
                    yield from f.pwrite(a, b)
                    moved += b
                elif op == "seek":
                    yield from f.seek(a)
                elif op == "sleep":
                    yield a
                elif op == "allgather":
                    yield from comm.allgather(rank, rank, a)
                elif op == "barrier":
                    yield from comm.barrier(rank)
            yield from f.close()
            return (rank, moved, env.now)

        procs = [env.process(rank_program(r)) for r in range(n_compute)]
        env.run(env.all_of(procs))
        stats = machine.fabric.stats
        return {
            "machine": machine.config.name,
            "stripe": stripe,
            "now": env.now,
            "ranks": [p.value for p in procs],
            "cache_hit_rate": fs.cache_hit_rate(),
            "bytes_moved": fs.total_bytes_moved(),
            "fabric": (stats.messages, stats.bytes_moved,
                       stats.total_transfer_time),
        }

    return build


@pytest.mark.parametrize("seed", range(36))
def test_shaped_workload_trace_identical(kernel_diff, seed):
    report = kernel_diff(_shaped_workload(seed), label=f"shaped-{seed}")
    assert report.fast_events > 0, "scenario recorded no I/O events"


def test_shaped_sweep_covers_all_platforms():
    """The 36 shaped seeds must actually hit every machine family."""
    names = set()
    for seed in range(36):
        rnd = random.Random(10_000 + seed)
        machine, _, _ = _draw_shape(rnd)
        names.add(machine.config.name.split("[")[0])
    assert names == {"paragon-small", "paragon-large", "sp2"}


def test_two_phase_collective_diff(kernel_diff):
    """Two-phase collective write + independent read-back on PIOFS
    (token path, comm fan-outs, functional data) is kernel-identical."""
    from repro.iolib.passion.twophase import IORequest, TwoPhaseIO

    def build():
        machine = Machine(sp2(n_compute=4))
        fs = PIOFS(machine, functional=True)
        iface = IOInterface(fs)
        comm = Communicator(machine)
        tp = TwoPhaseIO(comm)
        env = machine.env
        record = 1 << 14

        def rank_program(rank):
            f = yield from iface.open(rank, "tp.dat", create=True)
            reqs = [IORequest(off * record, record,
                              bytes([rank]) * record)
                    for off in range(rank, 16, 4)]
            written = yield from tp.collective_write(rank, f, reqs)
            back = yield from f.pread(rank * record, record)
            yield from f.close()
            return (rank, written, back == bytes([rank]) * record)

        procs = [env.process(rank_program(r)) for r in range(4)]
        env.run(env.all_of(procs))
        return {"now": env.now, "ranks": [p.value for p in procs]}

    kernel_diff(build, label="two-phase")


def test_write_behind_backpressure_diff(kernel_diff):
    """Sustained small writes that fill the servers' write-behind buffer
    (Container back-pressure + background flush) are kernel-identical."""
    def build():
        machine = Machine(paragon_small(n_compute=2, n_io=2))
        fs = PFS(machine, stripe_unit=4096)
        iface = IOInterface(fs)
        env = machine.env

        def writer(rank):
            f = yield from iface.open(rank, "wb.dat", create=True)
            for i in range(80):
                yield from f.pwrite((rank * 80 + i) * 1024, 1024)
            yield from f.close()
            return env.now

        procs = [env.process(writer(r)) for r in range(2)]
        env.run(env.all_of(procs))
        # Drain the write-behind buffers so the flush tail is compared too.
        drains = [env.process(s.drain()) for s in fs.servers]
        env.run(env.all_of(drains))
        buffered = sum(s.writes_buffered for s in fs.servers)
        return {"now": env.now, "ranks": [p.value for p in procs],
                "buffered": buffered,
                "flush_runs": sum(s.flush_runs for s in fs.servers)}

    report = kernel_diff(build, label="write-behind")
    assert report.fast_result["buffered"] > 0


def test_diff_detects_an_actual_divergence():
    """The oracle itself must be able to fail: a builder whose result
    depends on the kernel must produce a non-ok report."""
    from repro.sim import Environment
    from repro.sim.diff import diff_scenario

    def build():
        env = Environment()
        return env.fast

    report = diff_scenario(build, label="kernel-sensitive")
    assert not report.ok
    assert not report.results_equal
    assert "DIFFER" in report.format()


def test_capture_nesting_rejected():
    from repro.sim.diff import capture_trace

    with capture_trace([]):
        with pytest.raises(RuntimeError):
            with capture_trace([]):
                pass  # pragma: no cover
