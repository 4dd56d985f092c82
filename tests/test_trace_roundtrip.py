"""Export round-trip regression: the OTLP trace format must be lossless.

The cloner rebuilds applications from exported traces, so export →
import → re-export must be byte-identical, including the fields a
naive exporter drops: the trace's user, retries, non-ok status, child
order, and annotations.  A field that survives import but re-exports
differently would silently skew every clone built from a file instead
of a live collector.
"""

import pytest

from repro.apps import build_app
from repro.core.experiment import simulate
from repro.obs import otlp_json_to_traces, traces_to_otlp_json
from repro.tracing.span import Span, Trace

US = 1e-6


def _decorated_traces():
    """Hand-built traces exercising every lossy-prone field."""
    traces = []
    for i in range(4):
        o = i * 5000.0
        leaf = Span(service="store", operation="op", start=(o + 200) * US,
                    end=(o + 450) * US, app_time=180e-6, net_time=40e-6,
                    net_process_time=12e-6, block_time=7e-6,
                    status="timeout" if i == 3 else "ok", retries=i % 3)
        mid = Span(service="logic", operation="op", start=(o + 80) * US,
                   end=(o + 700) * US, app_time=95e-6, net_time=30e-6,
                   children=[leaf])
        mid.annotations["stale_read"] = bool(i % 2)
        root = Span(service="fe", operation="op", start=o * US,
                    end=(o + 900) * US, app_time=60e-6, net_time=85e-6,
                    children=[mid])
        root.annotations["home_region"] = "us-east"
        root.annotations["hop_count"] = i
        root.annotations["lag_s"] = 0.25 * i
        traces.append(Trace(operation="op", root=root, user=17 + i))
    return traces


@pytest.fixture(scope="module")
def simulated_traces():
    app = build_app("media_service")
    result = simulate(app, qps=40, duration=6, n_machines=3, seed=9)
    return list(result.collector.traces)


class TestOtlpRoundTrip:
    def test_simulated_run_roundtrips_byte_identical(
            self, simulated_traces):
        first = traces_to_otlp_json(simulated_traces)
        second = traces_to_otlp_json(otlp_json_to_traces(first))
        assert first == second

    def test_decorated_spans_roundtrip_byte_identical(self):
        first = traces_to_otlp_json(_decorated_traces())
        second = traces_to_otlp_json(otlp_json_to_traces(first))
        assert first == second

    def test_annotations_survive_with_types(self):
        back = otlp_json_to_traces(
            traces_to_otlp_json(_decorated_traces()))
        root = back[1].root
        assert root.annotations["home_region"] == "us-east"
        assert root.annotations["hop_count"] == 1
        assert root.annotations["lag_s"] == pytest.approx(0.25)
        assert root.children[0].annotations["stale_read"] is True
        assert back[0].root.children[0].annotations["stale_read"] \
            is False

    def test_fields_survive_import(self):
        back = otlp_json_to_traces(
            traces_to_otlp_json(_decorated_traces()))
        worst = back[3]
        assert [t.user for t in back] == [17, 18, 19, 20]
        assert worst.root.annotations == {
            "home_region": "us-east", "hop_count": 3, "lag_s": 0.75}
        leaf = worst.root.children[0].children[0]
        assert leaf.status == "timeout"
        assert leaf.retries == 0
        assert back[0].root.children[0].children[0].status == "ok"
        assert back[2].root.children[0].children[0].retries == 2
        assert leaf.net_process_time == pytest.approx(12e-6)
        assert leaf.block_time == pytest.approx(7e-6)
