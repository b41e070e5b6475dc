"""Regression tests for the fast kernel's fast paths.

Each test runs the same scripted scenario on the fast and the reference
kernel (explicit ``Environment(fast=...)``, or the ``kernel_diff``
fixture) and asserts both the expected behaviour and fast/reference
equality — the directed counterparts of the randomized differential
sweeps in ``test_kernel_diff.py``.  They pin the failure modes the fast
paths had to engineer around: wake *ordering* under Container
contention, sibling order around inline and deferred fan-out starts,
and ``run(until=...)`` landing exactly on a boundary an inline sleep
would otherwise run across.
"""

import pytest

from repro.sim import (AllOf, Container, Environment, FanOut, Process,
                       fan_out)

BOTH_KERNELS = pytest.mark.parametrize("fast", [True, False],
                                       ids=["fast", "reference"])


def _run_both(scenario):
    """Run ``scenario(env)`` (returning a log) on both kernels; the logs
    must be identical.  Returns the fast kernel's log."""
    logs = {}
    for fast in (True, False):
        logs[fast] = scenario(Environment(fast=fast))
    assert logs[True] == logs[False], (
        "fast and reference kernels disagree:\n"
        f"  fast:      {logs[True]!r}\n"
        f"  reference: {logs[False]!r}")
    return logs[True]


class TestContainerOrdering:
    def test_contended_wake_order_is_fifo(self):
        """Blocked putters drain strictly FIFO with head blocking: a
        queued put that would fit must wait for the one ahead of it."""
        def scenario(env):
            c = Container(env, capacity=10)
            log = []

            def putter(name, amount, delay):
                yield delay
                yield c.put(amount)
                log.append((name, "put", env.now, c.level))

            def getter(name, amount, delay):
                yield delay
                yield c.get(amount)
                log.append((name, "get", env.now, c.level))

            env.process(putter("A", 6, 0.0))
            env.process(putter("B", 6, 0.5))   # blocks (6+6 > 10)
            env.process(putter("C", 5, 0.75))  # blocks too, behind B
            env.process(getter("G", 5, 1.0))   # level 1 -> B drains (7);
                                               # C (5) must keep waiting
            env.process(getter("H", 7, 2.0))   # level 0 -> C drains (5)
            env.run()
            return log

        log = _run_both(scenario)
        assert [entry[0] for entry in log] == ["A", "G", "B", "H", "C"]

    def test_try_put_try_get_fast_kernel_only(self):
        """try_put/try_get grant inline only on the fast kernel under a
        solo dispatch; either way the resulting level is identical."""
        outcomes = {}

        def scenario(env):
            c = Container(env, capacity=5)
            log = []

            def prog():
                yield 1.0
                took = c.try_put(2)
                log.append(("try_put", took))
                if not took:
                    yield c.put(2)
                log.append(("level", c.level))
                took = c.try_get(2)
                log.append(("try_get", took))
                if not took:
                    yield c.get(2)
                log.append(("level", c.level))

            env.run(env.process(prog()))
            return log

        for fast in (True, False):
            outcomes[fast] = scenario(Environment(fast=fast))
        # Inline grants on the fast kernel, event fallback on reference —
        # but the observable container state is the same.
        assert outcomes[True] == [("try_put", True), ("level", 2),
                                  ("try_get", True), ("level", 0)]
        assert outcomes[False] == [("try_put", False), ("level", 2),
                                   ("try_get", False), ("level", 0)]

    def test_try_put_never_jumps_waiting_getter(self):
        def scenario(env):
            c = Container(env, capacity=10)
            log = []

            def getter():
                yield c.get(3)       # waits: container empty
                log.append(("got", env.now))

            def putter():
                yield 1.0
                # A getter is waiting, so the inline grant must refuse and
                # the put must go through the event path that wakes it.
                log.append(("try", c.try_put(3)))
                if not c.try_put(3):
                    yield c.put(3)
                log.append(("put-done", env.now))

            env.process(getter())
            env.process(putter())
            env.run()
            return (log, c.level)

        log, level = _run_both(scenario)
        assert ("try", False) in log
        assert level == 0


class TestCoalescedTimeouts:
    def test_zero_timeout_chains_interleave_identically(self):
        """Two processes ping-ponging zero timeouts: each waits behind
        the peer's entry at the same instant, so the interleaving
        matches the reference kernel exactly."""
        def scenario(env):
            log = []

            def p(name, n):
                for i in range(n):
                    yield env.timeout(0)
                    log.append((name, i))

            env.process(p("a", 5))
            env.process(p("b", 5))
            env.run()
            return log

        log = _run_both(scenario)
        assert log == [(n, i) for i in range(5) for n in ("a", "b")]


class TestRunUntil:
    def test_until_number_on_coalesced_sleep_boundary(self):
        """run(until=t) where t is exactly a wake time: the run, which
        steps one event at a time on both kernels, must stop at t with
        the later wake intact."""
        for fast in (True, False):
            env = Environment(fast=fast)
            log = []

            def clocker():
                for _ in range(6):
                    yield 1.0
                    log.append(env.now)

            env.process(clocker())
            env.run(until=3.0)
            assert env.now == 3.0
            assert log == [1.0, 2.0, 3.0]
            env.run(until=6.0)
            assert env.now == 6.0
            assert log == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_until_event_not_coalesced_past_stop(self):
        """Dispatching the stop event itself is not solo, so its waiter
        cannot sleep inline past the stop point (the reference kernel
        halts right there)."""
        for fast in (True, False):
            env = Environment(fast=fast)
            stop = env.timeout(5.0)
            log = []

            def waiter():
                yield stop
                log.append(env.now)
                for _ in range(3):
                    yield 1.0
                    log.append(env.now)

            env.process(waiter())
            env.run(until=stop)
            assert env.now == 5.0
            assert log == [5.0], (
                "run(until=event) consumed events past the stop point")
            env.run()
            assert log == [5.0, 6.0, 7.0, 8.0]

    def test_until_number_timeout_chain_via_events(self):
        # Same boundary check through explicit Timeout events rather
        # than bare-number sleeps.
        for fast in (True, False):
            env = Environment(fast=fast)
            log = []

            def clocker():
                for _ in range(4):
                    yield env.timeout(1.0)
                    log.append(env.now)

            env.process(clocker())
            env.run(until=2.0)
            assert env.now == 2.0
            assert log == [1.0, 2.0]
            env.run()
            assert log == [1.0, 2.0, 3.0, 4.0]


class TestFanOut:
    def test_fan_out_matches_reference_shape(self):
        """fan_out-driven children produce the same completion order and
        times as the AllOf+Process reference shape."""
        def scenario(env):
            log = []

            def child(name, delays):
                for d in delays:
                    yield d
                    log.append((name, env.now))
                return name

            def parent():
                yield fan_out(env, (child(i, [0.5 * (i + 1), 0.25])
                                    for i in range(3)))
                log.append(("joined", env.now))

            env.run(env.process(parent()))
            return log

        log = _run_both(scenario)
        assert log[-1] == ("joined", 1.75)

    def test_fan_out_child_failure_propagates(self):
        def scenario(env):
            def child_ok():
                yield 1.0

            def child_bad():
                yield 0.5
                raise KeyError("child-bug")

            def parent():
                try:
                    yield fan_out(env, [child_ok(), child_bad()])
                except KeyError:
                    return ("caught", env.now)

            return env.run(env.process(parent()))

        assert _run_both(scenario) == ("caught", 0.5)

    def test_fan_out_empty_completes_immediately(self):
        def scenario(env):
            def parent():
                yield fan_out(env, [])
                return env.now

            return env.run(env.process(parent()))

        assert _run_both(scenario) == 0


def _caught_error(env, bad):
    """Yield ``bad`` (a non-event or a negative delay), catch the error
    thrown back, then wait on an ordinary timeout."""
    try:
        yield bad
    except (RuntimeError, ValueError) as exc:
        caught = type(exc).__name__
    value = yield env.timeout(5, value="five")
    return caught, env.now, value


class TestResumeLoop:
    """Processes and fan-out children run on one resume loop,
    ``Process._resume``: same error path, same value, same bookkeeping
    on both kernels."""

    BAD = pytest.mark.parametrize("bad", ["not an event", -1.0],
                                  ids=["non-event", "negative-delay"])

    @BAD
    def test_yield_after_caught_error_is_handled(self, kernel_diff, bad):
        """After catching the error, the generator's next yield is an
        ordinary yield: it waits on the timeout and gets its value."""
        def builder():
            env = Environment()
            return env.run(env.process(_caught_error(env, bad)))

        result = kernel_diff(builder).fast_result
        assert result[1:] == (5, "five")

    @BAD
    def test_fan_out_child_yield_after_caught_error(self, kernel_diff, bad):
        def builder():
            env = Environment()
            log = []

            def child():
                log.append((yield from _caught_error(env, bad)))

            def parent():
                yield fan_out(env, [child(), child()])
                log.append(("joined", env.now))

            env.run(env.process(parent()))
            return log

        log = kernel_diff(builder).fast_result
        assert [entry[1:] for entry in log[:2]] == [(5, "five")] * 2
        assert log[2] == ("joined", 5)

    @BOTH_KERNELS
    def test_uncaught_non_event_fails_the_process(self, fast):
        env = Environment(fast=fast)

        def prog():
            yield "not an event"

        with pytest.raises(RuntimeError, match="yielded a non-event"):
            env.run(env.process(prog()))

    @pytest.mark.parametrize("n_children", [0, 1, 2])
    def test_fan_out_value_is_none(self, kernel_diff, n_children):
        def builder():
            env = Environment()

            def child(k):
                yield 0.5 * k
                return k

            def parent():
                value = yield fan_out(
                    env, [child(k) for k in range(n_children)])
                return value, env.now

            return env.run(env.process(parent()))

        value, _ = kernel_diff(builder).fast_result
        assert value is None

    @BOTH_KERNELS
    def test_active_process_is_parent_after_inline_starts(self, fast):
        env = Environment(fast=fast)
        seen = []

        def child():
            seen.append(("child", env.active_process is parent))
            yield 0.5

        def prog():
            fan = fan_out(env, [child(), child()])
            seen.append(("issued", env.active_process is parent))
            yield fan
            seen.append(("joined", env.active_process is parent))

        parent = env.process(prog())
        env.run(parent)
        # The fast kernel starts the children inline, from the parent's
        # frame; the reference kernel starts them as processes later.
        assert ("issued", True) in seen and ("joined", True) in seen
        assert ("child", True) not in seen
        assert env.active_process is None


def _container_op(box, op):
    """Generator: one Container operation of kind ``op`` (the try_ forms
    fall back to the event when the synchronous grant is refused)."""
    if op == "put":
        yield box.put(1)
    elif op == "get":
        yield box.get(1)
    elif op == "try_put":
        if not box.try_put(1):
            yield box.put(1)
    else:
        if not box.try_get(1):
            yield box.get(1)


def _released_ranks(env, n_ranks, program, log):
    """Start ``n_ranks`` processes that wait on one gate event, which a
    releaser fires at t=1.0: every rank resumes from the same multi-
    callback (non-solo) dispatch.  The releaser then sleeps 0, a NORMAL
    entry at the release instant queued ahead of anything the ranks
    push.  Returns the all-ranks event."""
    gate = env.event()

    def rank(r):
        yield gate
        result = yield from program(r)
        return result

    def releaser():
        yield 1.0
        gate.succeed()
        yield 0
        log.append(("releaser", env.now))

    procs = [env.process(rank(r)) for r in range(n_ranks)]
    env.process(releaser())
    return env.all_of(procs)


class TestFanOutStarts:
    """Fan-out children start exactly where the reference kernel pops
    their ``Initialize`` entries: inline under a solo dispatch with no
    URGENT entry pending at now, else from one deferred start entry."""

    @pytest.mark.parametrize("op", ["put", "get", "try_put", "try_get"])
    def test_container_op_in_first_segment_waits_for_siblings(
            self, kernel_diff, op):
        """A child whose first segment touches a Container must not take
        the synchronous grant ahead of a sibling that has not started:
        the reference kernel starts the sibling first."""
        def builder():
            env = Environment()
            box = Container(env, capacity=10, init=5)
            log = []

            def c0():
                yield from _container_op(box, op)
                log.append(("c0", env.now, box.level))

            def c1():
                log.append(("c1", env.now, box.level))
                yield 0.5
                log.append(("c1 slept", env.now))

            def parent():
                yield fan_out(env, [c0(), c1()])
                log.append(("joined", env.now))

            env.run(env.process(parent()))
            return log

        log = kernel_diff(builder).fast_result
        assert log[0][0] == "c1"

    def test_nested_fan_out_in_first_segment(self, kernel_diff):
        """A child that fans out before its first yield: the reference
        starts the grandchildren after every sibling has started."""
        def builder():
            env = Environment()
            log = []

            def grandchild(k, j):
                log.append(("grandchild", k, j, env.now))
                yield 0.25

            def child(k):
                log.append(("child", k, env.now))
                yield fan_out(env, [grandchild(k, j) for j in range(2)])
                log.append(("child done", k, env.now))

            def parent():
                yield fan_out(env, [child(k) for k in range(3)])
                log.append(("joined", env.now))

            env.run(env.process(parent()))
            return log

        log = kernel_diff(builder).fast_result
        assert [e[0] for e in log[:4]] == ["child"] * 3 + ["grandchild"]

    def test_fan_outs_from_barrier_released_ranks(self, kernel_diff):
        """Every rank issues its fan-out from one multi-callback dispatch,
        so every start is deferred; children that sleep, hit a shared
        Container and finish at once must interleave as the reference's
        per-child processes do."""
        def builder():
            env = Environment()
            box = Container(env, capacity=10)
            log = []

            def child(r, k):
                log.append(("start", r, k, env.now))
                if k == 0:
                    yield box.put(1)
                elif k == 1:
                    yield 0.25 * (r + 1)
                    yield 0
                log.append(("end", r, k, env.now, box.level))
                return (r, k)

            def program(r):
                fan = fan_out(env, [child(r, k) for k in range(3)])
                log.append(("issued", r, env.now))
                yield fan
                log.append(("joined", r, env.now))
                yield fan_out(env, [child(r, k) for k in (1, 2)])
                log.append(("again", r, env.now))

            env.run(_released_ranks(env, 4, program, log))
            return log, env.now

        kernel_diff(builder)

    def test_fan_out_with_urgent_entry_pending(self, kernel_diff):
        """Two processes spawned just before the fan-out are URGENT
        entries at now: the reference runs both before the children's
        Initialize entries, so the fast kernel defers the starts."""
        def builder():
            env = Environment()
            log = []

            def other(name):
                log.append((name + " starts", env.now))
                yield 0

            def child(k):
                log.append(("child", k, env.now))
                yield 0.5
                log.append(("child done", k, env.now))

            def parent():
                yield 1.0
                env.process(other("first"))
                env.process(other("second"))
                yield fan_out(env, [child(k) for k in range(3)])
                log.append(("joined", env.now))

            env.run(env.process(parent()))
            return log

        log = kernel_diff(builder).fast_result
        assert [e[0] for e in log[:3]] == ["first starts", "second starts",
                                           "child"]

    @pytest.mark.parametrize("released", [False, True],
                             ids=["inline", "deferred"])
    @pytest.mark.parametrize("gens", [[42], ["ok", 42]],
                             ids=["bad", "ok-bad"])
    def test_non_generator_raises_into_caller(self, kernel_diff, released,
                                              gens):
        """A non-generator raises TypeError into the caller when the
        fan-out is built, before any child (valid ones included) starts,
        whether the start would be inline or deferred."""
        def builder():
            env = Environment()
            log = []

            def good():
                log.append(("good starts", env.now))
                yield 0.5

            def program(r):
                try:
                    yield fan_out(env, [good() if g == "ok" else g
                                        for g in gens])
                except TypeError as exc:
                    log.append(("caught", r, str(exc), env.now))
                yield 1.0
                log.append(("done", r, env.now))

            if released:
                procs = _released_ranks(env, 2, program, log)
            else:
                procs = env.process(program(0))
            env.run(procs)
            return log, env.now

        log = kernel_diff(builder).fast_result[0]
        assert ("caught", 0, "42 is not a generator", 1.0 if released
                else 0.0) in log
        assert not any(e[0] == "good starts" for e in log)

    @pytest.mark.parametrize("released", [False, True],
                             ids=["inline", "deferred"])
    def test_child_fails_in_first_segment(self, kernel_diff, released):
        def builder():
            env = Environment()
            log = []

            def bad(r):
                log.append(("bad", r, env.now))
                raise KeyError(r)
                yield  # pragma: no cover - makes this a generator

            def good(r):
                log.append(("good", r, env.now))
                yield 0.5
                log.append(("good done", r, env.now))

            def program(r):
                try:
                    yield fan_out(env, [good(r), bad(r), good(r + 10)])
                except KeyError as exc:
                    log.append(("caught", exc.args[0], env.now))
                yield 1.0
                log.append(("rank done", r, env.now))

            if released:
                env.run(_released_ranks(env, 3, program, log))
            else:
                env.run(env.process(program(0)))
            return log

        log = kernel_diff(builder).fast_result
        assert ("caught", 0, 1.0 if released else 0.0) in log

    @pytest.mark.parametrize("released", [False, True],
                             ids=["inline", "deferred"])
    def test_empty_generator_list(self, kernel_diff, released):
        """An empty fan-out is met at once with no start entry, like
        ``AllOf(env, [])``, wherever it is issued."""
        def builder():
            env = Environment()
            log = []

            def program(r):
                log.append(("issue", r, env.now))
                yield fan_out(env, [])
                log.append(("met", r, env.now))
                yield 0.25
                log.append(("after", r, env.now))

            if released:
                env.run(_released_ranks(env, 3, program, log))
            else:
                env.run(env.process(program(0)))
            return log, env.now

        kernel_diff(builder)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast", "reference"])
    def test_fan_out_shape_per_kernel(self, monkeypatch, fast):
        """The fast kernel never builds a Process for a fan-out (inline,
        deferred, failing or empty); the reference kernel keeps the
        AllOf-over-processes oracle shape."""
        built = []
        init = Process.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting_init)
        env = Environment(fast=fast)
        shapes, log = [], []

        def child(k):
            if k == 2:
                raise KeyError(k)
            yield 0.5 * k

        def program(r):
            for gens in ([child(0), child(1)], [], [child(2), child(1)]):
                fan = fan_out(env, gens)
                shapes.append(type(fan))
                try:
                    yield fan
                except KeyError:
                    pass

        env.run(_released_ranks(env, 3, program, log))
        env.run(env.process(program(3)))
        # 3 ranks + the releaser + the solo program.
        if fast:
            assert set(shapes) == {FanOut}
            assert len(built) == 5
        else:
            assert set(shapes) == {AllOf}
            assert len(built) == 5 + 4 * 4


def _machine(n_compute=6, fast=None):
    from repro.machine import Machine, MachineConfig
    return Machine(MachineConfig(n_compute=n_compute, n_io=1),
                   env=Environment(fast=fast))


class TestCollectiveMessages:
    """``Fabric.send_all``, the collectives' fan-out: one
    :class:`~repro.sim.process.Message` per message on the fast kernel,
    a ``transfer`` generator per message under ``fan_out`` on the
    reference kernel, and identical event streams."""

    @BOTH_KERNELS
    def test_collective_shape_per_kernel(self, monkeypatch, fast):
        """An allgather and an alltoallv build no generator, _FanChild
        or Request per message on the fast kernel; the reference kernel
        builds a transfer generator and a Process per message."""
        from collections import Counter

        from repro.machine.network.fabric import Fabric
        from repro.mp import Communicator
        from repro.sim import Request
        from repro.sim.process import Message, _FanChild

        built = Counter()

        def count(cls):
            init = cls.__init__

            def counting_init(self, *args, **kwargs):
                built[cls.__name__] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        for cls in (Process, _FanChild, Request, Message):
            count(cls)
        transfer = Fabric.transfer

        def counting_transfer(self, *args):
            built["transfer"] += 1
            return transfer(self, *args)

        monkeypatch.setattr(Fabric, "transfer", counting_transfer)
        size = 4
        comm = Communicator(_machine(size, fast=fast), size)

        def program(rank, comm):
            got = yield from comm.allgather(rank, rank, 64)
            inbound = yield from comm.alltoallv(
                rank, {dst: (rank, dst) for dst in range(size)},
                {dst: 128 * (dst + 1) for dst in range(size)})
            return got, sorted(inbound.items())

        procs = comm.spawn(program)
        comm.env.run(comm.env.all_of(procs))
        messages = 2 * size * (size - 1)
        assert comm.machine.fabric.stats.messages == messages
        assert procs[1].value == (list(range(size)),
                                  [(src, (src, 1)) for src in range(size)])
        if fast:
            assert built == {"Process": size, "Message": messages}
        else:
            assert built["transfer"] == messages
            assert built["Process"] == size + messages
            assert built["Message"] == built["_FanChild"] == 0

    def test_fan_outs_converge_on_one_nic_fifo(self, kernel_diff):
        """Three ranks' fan-outs share two receiver NICs: each NIC grants
        in start order (not by size), and every completion time is the
        FIFO sum of the wire times ahead of it."""
        sizes = {0: (40_000, 10_000), 1: (30_000, 50_000),
                 2: (5_000, 20_000)}
        receivers = (3, 4)

        def builder():
            machine = _machine()
            env, fabric = machine.env, machine.fabric
            log = []

            def rank(r):
                yield fabric.send_all(r, list(zip(receivers, sizes[r])))
                stats = fabric.stats
                log.append((r, env.now, stats.messages, stats.bytes_moved,
                            stats.total_transfer_time,
                            [fabric.nic_queue_length(d) for d in receivers]))

            env.run(env.all_of([env.process(rank(r)) for r in sizes]))
            return log

        log = kernel_diff(builder).fast_result
        wire = _machine().fabric.wire_time
        done = {d: 0.0 for d in receivers}
        expected = []
        for r in sizes:
            for d, nbytes in zip(receivers, sizes[r]):
                done[d] += wire(r, d, nbytes)
            expected.append((r, max(done.values())))
        assert [(entry[0], entry[1]) for entry in log] == expected
        assert log[-1][2:4] == (6, sum(map(sum, sizes.values())))

    def test_collectives_from_barrier_released_ranks(self, kernel_diff,
                                                     monkeypatch):
        """Ranks released by one multi-callback dispatch defer their
        fan-out starts; allgather and alltoallv (with some zero sizes)
        still interleave exactly as the reference's processes do."""
        from repro.mp import Communicator

        deferred = []
        deferred_start = FanOut._deferred_start

        def counting(self, start):
            deferred.append(len(start._value))
            deferred_start(self, start)

        monkeypatch.setattr(FanOut, "_deferred_start", counting)
        size = 4

        def builder():
            machine = _machine(size)
            comm = Communicator(machine, size)
            env = machine.env
            log = []

            def program(r):
                got = yield from comm.allgather(r, r, 64 * (r + 1))
                log.append(("allgather", r, env.now, got))
                inbound = yield from comm.alltoallv(
                    r, {dst: (r, dst) for dst in range(size)},
                    {dst: 1000 * ((r + dst) % 3) for dst in range(size)})
                log.append(("alltoallv", r, env.now,
                            sorted(inbound.items())))

            env.run(_released_ranks(env, size, program, log))
            stats = machine.fabric.stats
            return (log, env.now, stats.messages, stats.bytes_moved,
                    stats.total_transfer_time)

        kernel_diff(builder)
        # The fast run deferred every rank's allgather start.
        assert deferred[:size] == [size - 1] * size

    def test_send_all_with_urgent_entry_pending(self, kernel_diff):
        """Two processes spawned just before the send are URGENT entries
        at now: the reference runs both before the transfer processes
        start, so the fast kernel defers the message starts.  With
        jitter armed, the deferred messages draw their delays after the
        others' transfers, as they start, not when they are built."""
        from repro import faults
        from repro.faults import FaultPlan

        def builder():
            machine = _machine()
            FaultPlan(faults=(faults.fabric_jitter(
                start=0.0, end=2.0, max_jitter_s=1e-4),)).arm(machine, None)
            env, fabric = machine.env, machine.fabric
            log = []

            def other(name, dst):
                log.append((name, env.now))
                yield from fabric.transfer(5, dst, 7_000)
                log.append((name + " sent", env.now))

            def parent():
                yield 1.0
                env.process(other("first", 1))
                env.process(other("second", 2))
                yield fabric.send_all(0, [(1, 3_000), (2, 3_000),
                                          (3, 3_000)])
                log.append(("parent sent", env.now, fabric.stats.messages))

            env.run(env.process(parent()))
            env.run()
            return log, env.now, fabric.stats.total_transfer_time

        log, _, _ = kernel_diff(builder).fast_result
        # The others' transfers take NICs 1 and 2 ahead of the parent's
        # deferred messages, which queue behind them.
        assert [e[0] for e in log] == ["first", "second", "first sent",
                                       "second sent", "parent sent"]

    @BOTH_KERNELS
    @pytest.mark.parametrize("horizon", [False, True],
                             ids=["run-until-event", "run-until-number"])
    def test_granted_message_sleeps_wire_time(self, fast, horizon):
        """A message granted by a transfer that then goes on sleeping
        sleeps its wire time inline under a solo dispatch; under
        ``run(until=<number>)`` (no solo dispatch) it keeps a heap entry
        and the horizon stops it mid-wire, as the reference's timeout."""
        machine = _machine(fast=fast)
        env, fabric = machine.env, machine.fabric

        def holder():
            yield from fabric.transfer(0, 3, 20_000)
            yield 1.0

        def rank():
            yield fabric.send_all(1, [(3, 20_000)])

        procs = [env.process(holder()), env.process(rank())]
        first = fabric.wire_time(0, 3, 20_000)
        second = fabric.wire_time(1, 3, 20_000)
        assert second < 1.0
        if horizon:
            env.run(until=first + second / 2)
            assert (fabric.stats.messages, fabric.nic_queue_length(3)) == (
                1, 1)
        env.run(procs[1])
        assert (env.now, fabric.stats.messages) == (first + second, 2)
        assert fabric.stats.total_transfer_time == first + (first + second)

    @pytest.mark.parametrize("kind", ["fabric_jitter", "fabric_partition"])
    def test_allgather_under_fabric_faults(self, kernel_diff, kind):
        """The fault hook is evaluated as each message starts, in start
        order, on both kernels: jitter draws its per-message sequence
        and a partition stalls crossing messages to the window's end."""
        from repro import faults
        from repro.faults import FaultPlan
        from repro.mp import Communicator

        if kind == "fabric_jitter":
            spec = faults.fabric_jitter(start=0.0, end=0.5,
                                        max_jitter_s=1e-4)
        else:
            spec = faults.fabric_partition(start=0.0, end=0.5,
                                           group=[0, 1])
        size = 4

        def builder():
            machine = _machine(size)
            FaultPlan(faults=(spec,), seed=3).arm(machine, None)
            comm = Communicator(machine, size)
            env = machine.env
            log = []

            def program(rank, comm):
                for round_ in range(2):
                    got = yield from comm.allgather(rank, (rank, round_),
                                                    512)
                    log.append((rank, round_, env.now, got[-1]))
                    yield 0.75

            procs = comm.spawn(program)
            env.run(env.all_of(procs))
            return (log, machine.fabric.fault.messages,
                    machine.fabric.stats.total_transfer_time)

        log, drawn, _ = kernel_diff(builder).fast_result
        if kind == "fabric_jitter":
            assert drawn == size * (size - 1)   # only round 0 is in window
        else:
            assert min(t for _, round_, t, _ in log if round_ == 0) > 0.5

    @BOTH_KERNELS
    def test_send_all_empty_and_self_message(self, fast):
        """An empty send is met at once with value None; a message to the
        sender's own node raises ValueError before any message starts."""
        machine = _machine(fast=fast)
        env, fabric = machine.env, machine.fabric
        log = []

        def prog():
            yield 0.5
            value = yield fabric.send_all(1, [])
            log.append(("empty", env.now, value))
            try:
                fabric.send_all(1, [(2, 10), (1, 10)])
            except ValueError as exc:
                log.append(("self", str(exc)))
            yield 0.25
            log.append(("after", env.now, fabric.stats.messages,
                        fabric.nic_queue_length(2)))

        env.run(env.process(prog()))
        assert log == [("empty", 0.5, None),
                       ("self", "message from node 1 to itself"),
                       ("after", 0.75, 0, 0)]


class TestSleepProtocol:
    @BOTH_KERNELS
    def test_sleep_yields_match_timeouts(self, fast):
        env = Environment(fast=fast)

        def prog():
            yield 2.0
            yield env.timeout(1.0)
            yield 0
            return env.now

        assert env.run(env.process(prog())) == 3.0

    @BOTH_KERNELS
    def test_negative_sleep_raises(self, fast):
        env = Environment(fast=fast)

        def prog():
            try:
                yield -0.5
            except ValueError:
                return "caught"

        assert env.run(env.process(prog())) == "caught"

    @BOTH_KERNELS
    def test_fan_out_child_negative_sleep_fails_fan(self, fast):
        env = Environment(fast=fast)

        def bad_child():
            yield -1.0

        def parent():
            try:
                yield fan_out(env, [bad_child()])
            except ValueError:
                return "caught"

        assert env.run(env.process(parent())) == "caught"


class TestSleepEntries:
    """Contended bare-number sleeps: the fast kernel pushes each sleeper's
    reusable wake where the reference kernel pushes a fresh Timeout."""

    def test_fan_out_child_repeated_contended_sleeps(self):
        """Two fan-out children whose sleeps keep interleaving: every
        sleep is contended, and each resumes its child exactly once."""
        def scenario(env):
            log = []

            def child(name, delay, n):
                for i in range(n):
                    yield delay
                    log.append((name, i, env.now))

            def parent():
                yield fan_out(env, [child("a", 1.0, 4),
                                    child("b", 1.5, 3)])
                log.append(("joined", env.now))

            env.run(env.process(parent()))
            return log

        log = _run_both(scenario)
        assert [e[:2] for e in log if e[0] == "a"] == [("a", i)
                                                       for i in range(4)]
        assert [e[:2] for e in log if e[0] == "b"] == [("b", i)
                                                       for i in range(3)]
        assert log[-1] == ("joined", 4.5)

    @BOTH_KERNELS
    def test_finished_process_freed_without_gc(self, fast):
        """A finished process must not sit in a reference cycle through
        its wake (process -> wake -> bound resume -> process), or it
        would live until the cyclic collector runs.  Processes take no
        weak references (slots), so watch their generators, which only
        the processes hold."""
        import gc
        import weakref

        env = Environment(fast=fast)

        def sleeper(delays):
            for d in delays:
                yield d

        gens = [sleeper([1.0, 1.0, 1.0]),
                sleeper([0.5, 1.0, 1.0])]   # contends with the first
        refs = [weakref.ref(g) for g in gens]
        a, b = (env.process(g) for g in gens)
        del gens
        gc.disable()
        try:
            env.run(env.all_of([a, b]))
            del a, b
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
