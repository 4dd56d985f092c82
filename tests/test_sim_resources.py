"""Unit tests for the Resource and FifoLink primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FifoLink, Resource, SimulationError


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


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


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

