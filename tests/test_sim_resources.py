"""Unit tests for Resource, FifoLink, Container, and Store primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (Container, Environment, FifoLink, Resource,
                       SimulationError, Store)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            starts.append((tag, env.now))
            yield env.timeout(hold)

    env.process(user("a", 5.0))
    env.process(user("b", 5.0))
    env.process(user("c", 5.0))
    env.run()
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(10.0)

    for i, tag in enumerate(["first", "second", "third"]):
        env.process(user(tag, float(i)))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_utilization_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=4)
    checks = []

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    def observer():
        yield env.timeout(0.5)
        checks.append((res.count, res.queue_length, res.utilization))

    for _ in range(6):
        env.process(user())
    env.process(observer())
    env.run()
    assert checks == [(4, 2, 1.0)]


def test_resource_release_while_queued_withdraws():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    def quitter():
        req = res.request()
        yield env.timeout(1.0)
        req.release()  # gives up before being granted

    def patient():
        yield env.timeout(0.5)
        with res.request() as req:
            yield req
            order.append(env.now)

    env.process(holder())
    env.process(quitter())
    env.process(patient())
    env.run()
    assert order == [10.0]


def test_resource_resize_admits_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    starts = []

    def user(tag):
        with res.request() as req:
            yield req
            starts.append((tag, env.now))
            yield env.timeout(10.0)

    def grow():
        yield env.timeout(2.0)
        res.resize(3)

    for tag in "abc":
        env.process(user(tag))
    env.process(grow())
    env.run()
    assert starts == [("a", 0.0), ("b", 2.0), ("c", 2.0)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.resize(0)


def _run_nic(arrivals, holds, via_link):
    """Push messages through one NIC and log every callback in the
    order it runs: each departure, plus probe timers that land exactly
    on departure instants (a probe started at a message's arrival with
    its hold, and one started at a departure with the next message's
    hold), so any change in same-instant order shows."""
    env = Environment()
    nic = FifoLink(env) if via_link else Resource(env, capacity=1)
    log = []

    def probe(label, delay):
        env.timeout(delay).callbacks.append(
            lambda ev: log.append((label, env.now)))

    def message(i):
        yield env.timeout(arrivals[i])
        probe(f"arrival-probe {i}", holds[i])
        if via_link:
            yield nic.transmit(holds[i])
        else:
            with nic.request() as req:
                yield req
                yield env.timeout(holds[i])
        log.append((f"depart {i}", env.now))
        probe(f"departure-probe {i}", holds[(i + 1) % len(holds)])

    for i in range(len(arrivals)):
        env.process(message(i))
    env.run()
    return log


@settings(max_examples=200, deadline=None)
@given(
    messages=st.lists(
        st.tuples(
            # Gap to the previous arrival; zero gaps make simultaneous
            # arrivals, and gaps below a hold make a queue.
            st.one_of(st.just(0.0),
                      st.floats(min_value=0.0, max_value=5e-3),
                      st.sampled_from([1e-4, 2.5e-4, 1e-3])),
            st.one_of(st.floats(min_value=0.0, max_value=4000.0),
                      st.sampled_from([0.5, 1.25, 125.0, 1250.0]))),
        min_size=1, max_size=30),
    bandwidth=st.sampled_from([1.25e6, 6e3, 1e5]),
)
def test_property_fifo_link_matches_fifo_resource(messages, bandwidth):
    """The one-event FIFO link departs every message at exactly (==,
    not approx) the time the grant-then-hold Resource path does, and
    in the same order relative to every other event at that instant."""
    arrivals = []
    t = 0.0
    for gap, _ in messages:
        t += gap
        arrivals.append(t)
    holds = [size_kb / bandwidth for _, size_kb in messages]
    assert _run_nic(arrivals, holds, via_link=True) \
        == _run_nic(arrivals, holds, via_link=False)


def test_fifo_link_depth_counts_queued_and_serializing():
    env = Environment()
    nic = FifoLink(env)
    seen = []

    def burst():
        for _ in range(3):
            nic.transmit(1.0)
        seen.append(nic.depth)          # one serializing, two queued
        yield env.timeout(1.5)
        seen.append(nic.depth)          # first gone
        yield env.timeout(2.0)
        seen.append(nic.depth)          # all departed by t=3
        yield nic.transmit(0.5)         # idle again: departs now + hold
        seen.append((env.now, nic.depth))

    env.process(burst())
    env.run()
    assert seen == [3, 2, 0, (4.0, 0)]


def test_container_get_blocks_until_put():
    env = Environment()
    tank = Container(env, capacity=100.0, init=0.0)
    got = []

    def consumer():
        yield tank.get(10.0)
        got.append(env.now)

    def producer():
        yield env.timeout(3.0)
        yield tank.put(10.0)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [3.0]
    assert tank.level == 0.0


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10.0, init=10.0)
    done = []

    def producer():
        yield tank.put(5.0)
        done.append(env.now)

    def consumer():
        yield env.timeout(2.0)
        yield tank.get(5.0)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert done == [2.0]
    assert tank.level == 10.0


def test_container_rejects_bad_init():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=5.0, init=6.0)


def test_store_fifo_semantics():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in ["x", "y", "z"]:
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    env.process(consumer())
    env.process(producer())
    env.run()
    assert [item for _, item in received] == ["x", "y", "z"]


def test_store_bounded_blocks_producer():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put(1)
        times.append(env.now)
        yield store.put(2)
        times.append(env.now)

    def consumer():
        yield env.timeout(4.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [0.0, 4.0]
