"""Tests for generator processes: lifecycle, returns, errors."""

import pytest



class TestLifecycle:
    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_runs_and_returns_value(self, env):
        def p(env):
            yield env.timeout(1)
            return 99
        assert env.run(env.process(p(env))) == 99

    def test_process_is_alive_until_done(self, env):
        def p(env):
            yield env.timeout(5)
        proc = env.process(p(env))
        env.run(until=2)
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_process_without_yield_finishes_at_time_zero(self, env):
        def p(env):
            return 7
            yield  # pragma: no cover
        proc = env.process(p(env))
        env.run(proc)
        assert env.now == 0
        assert proc.value == 7

    def test_sequential_waits_accumulate_time(self, env):
        def p(env):
            yield env.timeout(1)
            yield env.timeout(2)
            yield env.timeout(3)
            return env.now
        assert env.run(env.process(p(env))) == 6

    def test_yielding_non_event_raises_inside_process(self, env):
        # Numbers are valid yields (the sleep protocol) — anything else
        # non-Event must be rejected.
        def p(env):
            try:
                yield "42"
            except RuntimeError as exc:
                return f"caught: non-event" if "non-event" in str(exc) else "?"
        assert env.run(env.process(p(env))) == "caught: non-event"

    def test_yielding_bare_number_sleeps(self, env):
        def p(env):
            yield 2
            yield 1.5
            return env.now
        assert env.run(env.process(p(env))) == 3.5

    def test_yielding_negative_number_raises_inside_process(self, env):
        def p(env):
            try:
                yield -1.0
            except ValueError:
                return "caught"
        assert env.run(env.process(p(env))) == "caught"

    def test_process_waits_on_another_process(self, env):
        def child(env):
            yield env.timeout(3)
            return "child-result"
        def parent(env):
            result = yield env.process(child(env))
            return (result, env.now)
        assert env.run(env.process(parent(env))) == ("child-result", 3)

    def test_waiting_on_finished_process_returns_instantly(self, env):
        def child(env):
            yield env.timeout(1)
            return "v"
        def parent(env, c):
            yield env.timeout(5)       # child finished long ago
            result = yield c
            return (result, env.now)
        c = env.process(child(env))
        assert env.run(env.process(parent(env, c))) == ("v", 5)

    def test_child_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("child-bug")
        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                return "handled"
        assert env.run(env.process(parent(env))) == "handled"

    def test_unhandled_process_exception_escapes_run(self, env):
        def p(env):
            yield env.timeout(1)
            raise IndexError("boom")
        env.process(p(env))
        with pytest.raises(IndexError):
            env.run()
