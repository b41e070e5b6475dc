"""Tests for Resource, Store, Container."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Container, Environment, Resource, Store
from repro.sim.exceptions import SimulationError


def _hold(env, res, log, name, hold_time=2):
    with res.request() as req:
        yield req
        log.append((env.now, name, "acquire"))
        yield env.timeout(hold_time)
    log.append((env.now, name, "release"))


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self, env):
        res = Resource(env, capacity=2)
        log = []
        for n in "abc":
            env.process(_hold(env, res, log, n))
        env.run()
        acquires = [(t, n) for t, n, kind in log if kind == "acquire"]
        assert acquires == [(0, "a"), (0, "b"), (2, "c")]

    def test_fifo_ordering(self, env):
        res = Resource(env, capacity=1)
        log = []
        for n in "abcd":
            env.process(_hold(env, res, log, n, hold_time=1))
        env.run()
        acquires = [n for _, n, kind in log if kind == "acquire"]
        assert acquires == list("abcd")

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)
        log = []
        for n in "abc":
            env.process(_hold(env, res, log, n, hold_time=10))
        env.run(until=1)
        assert res.count == 1
        assert res.queue_length == 2

    def test_release_of_waiting_request_cancels_it(self, env):
        res = Resource(env, capacity=1)
        held = res.request()   # grabs the slot
        with res.request():
            assert res.queue_length == 1
        # Leaving the block before the grant cancels, not releases.
        assert res.queue_length == 0
        assert res.count == 1
        with held:
            pass
        assert res.count == 0

    def test_all_work_completes_under_contention(self, env):
        res = Resource(env, capacity=3)
        done = []
        def worker(env, i):
            with res.request() as req:
                yield req
                yield env.timeout(1)
            done.append(i)
        for i in range(20):
            env.process(worker(env, i))
        env.run()
        assert sorted(done) == list(range(20))
        # 20 jobs, 3 at a time, 1s each -> ceil(20/3) rounds.
        assert env.now == 7


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        got = []
        def producer(env):
            for i in range(3):
                yield store.put(i)
        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)
        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        def consumer(env):
            item = yield store.get()
            return (item, env.now)
        def producer(env):
            yield env.timeout(5)
            yield store.put("late")
        c = env.process(consumer(env))
        env.process(producer(env))
        assert env.run(c) == ("late", 5)

    def test_bounded_capacity_blocks_producer(self, env):
        store = Store(env, capacity=1)
        times = []
        def producer(env):
            for i in range(3):
                yield store.put(i)
                times.append(env.now)
        def consumer(env):
            for _ in range(3):
                yield env.timeout(10)
                yield store.get()
        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        # First put immediate; each later put waits for a get.
        assert times == [0, 10, 20]

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len_reflects_buffered_items(self, env):
        store = Store(env)
        def producer(env):
            yield store.put("x")
            yield store.put("y")
        env.process(producer(env))
        env.run()
        assert len(store) == 2


class TestContainer:
    def test_init_bounds_checked(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=10, init=11)
        with pytest.raises(ValueError):
            Container(env, capacity=0)

    def test_put_then_get_levels(self, env):
        c = Container(env, capacity=100)
        def p(env):
            yield c.put(30)
            yield c.get(10)
            return c.level
        assert env.run(env.process(p(env))) == 20

    def test_get_blocks_until_enough(self, env):
        c = Container(env, capacity=100)
        def getter(env):
            yield c.get(50)
            return env.now
        def putter(env):
            for _ in range(5):
                yield env.timeout(1)
                yield c.put(10)
        g = env.process(getter(env))
        env.process(putter(env))
        assert env.run(g) == 5

    def test_put_blocks_at_capacity(self, env):
        c = Container(env, capacity=10, init=8)
        def putter(env):
            yield c.put(5)
            return env.now
        def getter(env):
            yield env.timeout(3)
            yield c.get(4)
        p = env.process(putter(env))
        env.process(getter(env))
        assert env.run(p) == 3

    def test_oversized_request_fails(self, env):
        c = Container(env, capacity=10)
        def p(env):
            yield c.get(11)
        with pytest.raises(SimulationError):
            env.run(env.process(p(env)))

    @given(amounts=st.lists(st.integers(min_value=1, max_value=50),
                            min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, amounts):
        """Total put == total got + level, always."""
        env = Environment()
        c = Container(env, capacity=10_000)
        def putter(env):
            for a in amounts:
                yield c.put(a)
        got = []
        def getter(env):
            for a in amounts:
                yield c.get(a)
                got.append(a)
        env.process(putter(env))
        env.process(getter(env))
        env.run()
        assert sum(got) == sum(amounts)
        assert c.level == 0
