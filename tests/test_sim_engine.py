"""Unit tests for the DES engine: events, processes, composition."""

import pytest

from repro.sim import Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [1.5, 4.0]


def test_run_until_stops_and_sets_clock():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=10.25)
    assert env.now == 10.25


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_events_fire_in_time_then_fifo_order():
    env = Environment()
    order = []

    def make(tag, delay):
        def proc():
            yield env.timeout(delay)
            order.append(tag)
        return proc

    env.process(make("b", 2.0)())
    env.process(make("a", 1.0)())
    env.process(make("a2", 1.0)())
    env.run()
    assert order == ["a", "a2", "b"]


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        results.append(value)

    env.process(parent())
    env.run()
    assert results == [42]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_manual_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append((env.now, value))

    def trigger():
        yield env.timeout(3.0)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(3.0, "hello")]


def test_event_double_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_all_of_waits_for_slowest():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([env.timeout(1.0), env.timeout(5.0), env.timeout(3.0)])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_any_of_returns_on_fastest():
    env = Environment()
    done = []

    def proc():
        yield env.any_of([env.timeout(4.0), env.timeout(1.0)])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [1.0]


def test_any_of_failure_propagates():
    env = Environment()
    caught = []

    def failing():
        yield env.timeout(1.0)
        raise KeyError("dead")

    def proc():
        try:
            yield env.any_of([env.process(failing()), env.timeout(9.0)])
        except KeyError:
            caught.append(env.now)

    env.process(proc())
    env.run()
    assert caught == [1.0]


def test_yield_non_event_raises_inside_process():
    env = Environment()
    caught = []

    def bad():
        try:
            yield 42  # type: ignore[misc]
        except SimulationError:
            caught.append(True)

    env.process(bad())
    env.run()
    assert caught == [True]


def test_waiting_on_already_processed_event():
    env = Environment()
    t = env.timeout(1.0)
    seen = []

    def late_waiter():
        yield env.timeout(5.0)
        yield t  # already fired at t=1
        seen.append(env.now)

    env.process(late_waiter())
    env.run()
    assert seen == [5.0]


def test_call_soon_keeps_succeed_order():
    """call_soon runs where an event succeed()-ed at the same moment
    would: after heap entries already due now, before later ones."""
    env = Environment()
    order = []

    def note(label):
        return lambda *_: order.append((label, env.now))

    def proc():
        yield env.timeout(1.0)
        env.timeout(0.0).callbacks.append(note("due before"))
        env.call_soon(note("soon"))
        env.timeout(0.0).callbacks.append(note("due after"))
        env.call_soon(note("soon 2"))

    env.process(proc())
    env.run()
    assert order == [("due before", 1.0), ("soon", 1.0),
                     ("due after", 1.0), ("soon 2", 1.0)]
