"""Tests for OTLP trace export/import: what a round trip keeps."""

from itertools import islice

import pytest

from repro.apps import build_app
from repro.core import simulate
from repro.obs import otlp_json_to_traces, traces_to_otlp_json
from repro.tracing import Span, Trace

US = 1e-6


def make_trace(user=7):
    child = Span(service="cache", operation="get", start=1.0, end=2.0,
                 app_time=0.5, net_time=0.2)
    root = Span(service="web", operation="get", start=0.0, end=3.0,
                app_time=1.0, net_time=0.3, block_time=0.1,
                children=[child])
    return Trace(operation="get", root=root, user=user)


def round_trip(traces):
    return otlp_json_to_traces(traces_to_otlp_json(traces))


def test_round_trip_preserves_structure_and_times():
    original = [make_trace(user=1), make_trace(user=2)]
    restored = round_trip(original)
    assert len(restored) == 2
    for orig, back in zip(original, restored):
        assert back.operation == orig.operation
        assert back.user == orig.user
        assert back.latency == pytest.approx(orig.latency, abs=1e-5)
        assert [s.service for s in back.root.walk()] == \
            [s.service for s in orig.root.walk()]
        assert back.root.children[0].app_time == pytest.approx(
            orig.root.children[0].app_time, abs=1e-5)


def test_child_and_trace_order_survive_import():
    """Children come back in dispatch order, not start-time or service
    order, past the 16-span and 16-trace hex boundaries."""
    names = [f"svc-{(7 * i) % 20:02d}" for i in range(20)]
    traces = []
    for t in range(18):
        kids = [Span(service=name, operation="op",
                     start=(t * 1000 + 500 - 10 * i) * US,
                     end=(t * 1000 + 600) * US)
                for i, name in enumerate(names)]
        root = Span(service="fe", operation=f"op{t}",
                    start=t * 1000 * US, end=(t * 1000 + 900) * US,
                    children=kids)
        traces.append(Trace(operation=f"op{t}", root=root, user=t))
    back = round_trip(traces)
    assert [t.operation for t in back] == [f"op{t}" for t in range(18)]
    for trace in back:
        assert [c.service for c in trace.root.children] == names


def test_times_round_to_the_microsecond():
    """Timing attributes are exported in whole microseconds and span
    bounds in whole nanoseconds; import returns exactly those."""
    leaf = Span(service="store", operation="op",
                start=1.0000004444, end=1.0012345678,
                app_time=123.4567e-6, net_time=8.5001e-6,
                net_process_time=2.4999e-6, block_time=0.4e-6)
    root = Span(service="fe", operation="op", start=1.0, end=1.002,
                children=[leaf])
    back = round_trip([Trace(operation="op", root=root)])[0]
    span = back.root.children[0]
    assert span.app_time == 123e-6
    assert span.net_time == 9e-6
    assert span.net_process_time == 2e-6
    assert span.block_time == 0.0
    assert span.start == 1000000444 / 1e9
    assert span.end == 1001234568 / 1e9


def test_retry_count_and_status_round_trip():
    child = Span(service="cache", operation="get", start=1.0, end=1.5,
                 app_time=0.1, retries=3, status="timeout")
    root = Span(service="web", operation="get", start=0.0, end=2.0,
                app_time=0.5, retries=1, children=[child])
    trace = Trace(operation="get", root=root, user=9)
    restored = round_trip([trace])[0]
    back_root = restored.root
    assert back_root.retries == 1
    assert back_root.status == "ok"
    assert back_root.children[0].retries == 3
    assert back_root.children[0].status == "timeout"
    assert restored.retry_count() == trace.retry_count() == 4


def test_real_simulation_traces_round_trip():
    result = simulate(build_app("banking"), qps=20, duration=4.0,
                      n_machines=3, seed=41)
    traces = list(islice(result.collector.traces, 20))
    restored = round_trip(traces)
    assert len(restored) == 20
    for orig, back in zip(traces, restored):
        assert back.latency == pytest.approx(orig.latency, abs=2e-6)
        assert len(back.spans()) == len(orig.spans())
