"""Tests for the discrete-event engine: environment, events, run loop."""

import pytest

from repro.sim import (
    AllOf,
    EmptySchedule,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


class TestEnvironmentBasics:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_can_be_set(self):
        assert Environment(initial_time=5.5).now == 5.5

    def test_step_on_empty_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_run_until_past_time_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_number_advances_clock_exactly(self):
        env = Environment()
        env.timeout(3.0)
        env.run(until=7.5)
        assert env.now == 7.5

    def test_run_until_drains_only_due_events(self):
        env = Environment()
        t1, t2 = env.timeout(1.0), env.timeout(10.0)
        env.run(until=5.0)
        assert t1.processed
        assert not t2.processed

    def test_run_with_no_events_returns_none(self):
        assert Environment().run() is None


class TestRunHorizon:
    """run(until=number) semantics pinned against the inlined run loop."""

    def test_event_exactly_at_horizon_is_processed(self):
        env = Environment()
        t = env.timeout(5.0)
        env.run(until=5.0)
        assert t.processed
        assert env.now == 5.0

    def test_event_just_past_horizon_is_not_processed(self):
        env = Environment()
        t = env.timeout(5.0 + 1e-9)
        env.run(until=5.0)
        assert not t.processed
        assert env.now == 5.0

    def test_clock_advances_past_empty_queue(self):
        env = Environment()
        env.run(until=42.0)
        assert env.now == 42.0

    def test_clock_advances_to_horizon_after_last_event(self):
        env = Environment()
        env.timeout(1.0)
        env.run(until=9.0)
        assert env.now == 9.0

    def test_horizon_equal_to_now_is_allowed(self):
        env = Environment(initial_time=3.0)
        env.run(until=3.0)
        assert env.now == 3.0

    def test_successive_horizons_accumulate(self):
        env = Environment()
        fired = []
        for d in (1.0, 2.0, 3.0):
            t = env.timeout(d)
            t.callbacks.append(lambda e, d=d: fired.append(d))
        env.run(until=1.5)
        assert fired == [1.0]
        env.run(until=2.0)
        assert fired == [1.0, 2.0]
        env.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert env.now == 10.0

    def test_failed_event_still_raises_within_horizon(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=1.0)


class TestTimeoutFastPath:
    """The Timeout constructor schedules itself without Environment.schedule;
    these pin the invariants that shortcut must preserve."""

    def test_timeout_is_triggered_at_birth(self, env):
        t = env.timeout(2.0, value="v")
        assert t.triggered
        assert not t.processed
        assert t.ok

    def test_timeout_interleaves_fifo_with_other_events(self, env):
        order = []
        a = env.timeout(1.0)
        b = env.event()
        b.callbacks.append(lambda e: order.append("event"))
        a.callbacks.append(lambda e: order.append("timeout"))
        env.run(until=0.5)
        b.succeed()           # scheduled at 0.5, after the pending timeout's
        env.run()             # entry but processed first (earlier time)
        assert order == ["event", "timeout"]

    def test_timeout_sequence_ids_stay_fifo_with_schedule(self, env):
        order = []
        t1 = env.timeout(1.0)
        ev = env.event()
        ev._value = None
        env.schedule(ev, delay=1.0)
        t2 = env.timeout(1.0)
        for tag, e in (("t1", t1), ("ev", ev), ("t2", t2)):
            e.callbacks.append(lambda _, tag=tag: order.append(tag))
        env.run()
        assert order == ["t1", "ev", "t2"]

    def test_timeout_cannot_be_retriggered(self, env):
        t = env.timeout(1.0)
        with pytest.raises(RuntimeError):
            t.succeed()
        env.run()
        with pytest.raises(RuntimeError):
            t.succeed()

    def test_zero_delay_timeout_fires_at_now(self, env):
        stamps = []
        def p(env):
            yield env.timeout(3.5)
            yield env.timeout(0)
            stamps.append(env.now)
        env.process(p(env))
        env.run()
        assert stamps == [3.5]


class TestEvents:
    def test_event_starts_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(AttributeError):
            env.event().value

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_then_succeed_raises(self, env):
        ev = env.event().fail(ValueError("x"))
        def waiter(env):
            try:
                yield ev
            except ValueError:
                pass
        env.process(waiter(env))
        with pytest.raises(RuntimeError):
            ev.succeed()
        env.run()  # the waiter defuses the failure

    def test_undefused_failure_propagates_through_run(self, env):
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        ev = env.event().fail(RuntimeError("boom"))
        def waiter(env):
            try:
                yield ev
            except RuntimeError:
                return "caught"
        proc = env.process(waiter(env))
        env.run()  # no raise: the waiting process defused it
        assert proc.value == "caught"

    def test_callbacks_fire_on_processing(self, env):
        seen = []
        ev = env.event()
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        env.run()
        assert seen == ["hello"]


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_fires_at_right_time(self, env):
        times = []
        t = env.timeout(4.25)
        t.callbacks.append(lambda e: times.append(env.now))
        env.run()
        assert times == [4.25]

    def test_timeout_carries_value(self, env):
        t = env.timeout(1, value="payload")
        env.run()
        assert t.value == "payload"

    def test_zero_delay_fires_immediately_in_order(self, env):
        order = []
        for name in "abc":
            t = env.timeout(0)
            t.callbacks.append(lambda e, n=name: order.append(n))
        env.run()
        assert order == ["a", "b", "c"]

    def test_events_process_in_time_order(self, env):
        order = []
        for delay in (5, 1, 3, 2, 4):
            t = env.timeout(delay)
            t.callbacks.append(lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1, 2, 3, 4, 5]


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "done"
        assert env.run(env.process(proc(env))) == "done"

    def test_raises_event_exception(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("inside")
        with pytest.raises(ValueError, match="inside"):
            env.run(env.process(proc(env)))

    def test_run_dry_before_event_raises(self, env):
        ev = env.event()  # never triggered
        env.timeout(1)
        with pytest.raises(RuntimeError, match="ran dry"):
            env.run(ev)

    def test_stops_exactly_when_event_processes(self, env):
        def proc(env):
            yield env.timeout(3)
        env.timeout(100)
        env.run(env.process(proc(env)))
        assert env.now == 3


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        t1, t2 = env.timeout(1, "a"), env.timeout(4, "b")
        result = env.run(AllOf(env, [t1, t2]))
        assert result == {t1: "a", t2: "b"}
        assert env.now == 4

    def test_empty_condition_fires_immediately(self, env):
        result = env.run(AllOf(env, []))
        assert result == {}

    def test_condition_propagates_failure(self, env):
        def failer(env):
            yield env.timeout(1)
            raise RuntimeError("child failed")
        cond = AllOf(env, [env.process(failer(env)), env.timeout(10)])
        with pytest.raises(RuntimeError, match="child failed"):
            env.run(cond)

    def test_condition_on_already_processed_events(self, env):
        t = env.timeout(1, "early")
        env.run(until=2)
        result = env.run(AllOf(env, [t]))
        assert result == {t: "early"}

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.timeout(1), other.timeout(1)])
