"""Additional engine tests: scheduling order, nested joins, edge cases."""

from repro.sim import AllOf, Environment


class TestSchedulingOrder:
    def test_urgent_priority_processed_first(self, env):
        order = []
        a = env.event()
        b = env.event()
        a.callbacks.append(lambda e: order.append("normal"))
        b.callbacks.append(lambda e: order.append("urgent"))
        a._value = None
        b._value = None
        env.schedule(a, priority=1)
        env.schedule(b, priority=0)
        env.run()
        assert order == ["urgent", "normal"]

    def test_fifo_within_same_time_and_priority(self, env):
        order = []
        for i in range(5):
            t = env.timeout(1.0)
            t.callbacks.append(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_simultaneous_process_wakeups_ordered_by_creation(self, env):
        order = []
        def p(env, name):
            yield env.timeout(2.0)
            order.append(name)
        for name in "abc":
            env.process(p(env, name))
        env.run()
        assert order == ["a", "b", "c"]


class TestNestedConditions:
    def test_condition_of_conditions(self, env):
        inner1 = AllOf(env, [env.timeout(1), env.timeout(2)])
        inner2 = AllOf(env, [env.timeout(3)])
        outer = AllOf(env, [inner1, inner2])
        env.run(outer)
        assert env.now == 3


class TestEnvironmentEdgeCases:
    def test_clock_monotone_across_heterogeneous_events(self, env):
        stamps = []
        def p(env):
            for d in (0.5, 0.0, 2.0, 0.0):
                yield env.timeout(d)
                stamps.append(env.now)
        env.process(p(env))
        env.run()
        assert stamps == sorted(stamps)

    def test_two_environments_are_independent(self):
        e1, e2 = Environment(), Environment()
        e1.timeout(5)
        e2.timeout(1)
        e1.run()
        assert e1.now == 5
        assert e2.now == 0

    def test_run_until_event_value_none(self, env):
        def p(env):
            yield env.timeout(1)
        assert env.run(env.process(p(env))) is None

    def test_active_process_visible_during_execution(self, env):
        seen = []
        def p(env):
            seen.append(env.active_process)
            yield env.timeout(1)
        proc = env.process(p(env))
        env.run()
        assert seen == [proc]
        assert env.active_process is None
