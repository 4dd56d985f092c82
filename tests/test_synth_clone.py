"""Tests for trace-driven application cloning.

Covers the three inference layers on hand-built traces (structure,
serial-vs-parallel dispatch, criticality), the SYN002 unclonable-set
errors, the registry integration, and — the acceptance bar — a full
cross-validation: clone a ``social_network`` trace export and check the
re-simulated per-tier p50/p95/p99 tables stay inside the documented
tolerance.
"""

import pytest

from repro.analysis_static.topology import TopologyError
from repro.apps import build_app, reset_registry
from repro.apps.synth import (CloneConfig, clone_from_traces,
                              percentile_table, topology_json,
                              validate_clone)
from repro.core.experiment import simulate
from repro.core.provisioning import balanced_provision
from repro.obs import otlp_json_to_traces, traces_to_otlp_json
from repro.resilience.degrade import CRIT_SHEDDABLE
from repro.tracing.span import Span, Trace

US = 1e-6


def _span(service, start_us, end_us, app_us=50.0, net_us=10.0,
          children=(), status="ok"):
    return Span(service=service, operation="op", start=start_us * US,
                end=end_us * US, app_time=app_us * US,
                net_time=net_us * US, status=status,
                children=list(children))


def _mixed_dispatch_trace(offset_us=0.0):
    """fe calls a (serial), then b and c in parallel."""
    o = offset_us
    a = _span("svc-a", o + 100, o + 200)
    b = _span("svc-b", o + 250, o + 400)
    c = _span("svc-c", o + 250, o + 380)
    root = _span("fe", o, o + 1000, app_us=120.0, net_us=250.0,
                 children=[a, b, c])
    root.annotations["criticality"] = CRIT_SHEDDABLE
    return Trace(operation="op", root=root)


@pytest.fixture(autouse=True)
def _clean_registry():
    reset_registry()
    yield
    reset_registry()


LOOSE = CloneConfig(min_service_samples=1)


class TestStructureInference:
    def test_serial_and_parallel_groups_recovered(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        result = clone_from_traces(traces, name="dispatch",
                                   config=LOOSE)
        root = result.app.operations["op"].root
        groups = [[node.service for node in group]
                  for group in root.groups]
        assert groups == [["svc-a"], ["svc-b", "svc-c"]]

    def test_root_criticality_comes_from_annotations(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        result = clone_from_traces(traces, name="crit", config=LOOSE)
        assert result.app.operations["op"].criticality == \
            CRIT_SHEDDABLE

    def test_minority_shapes_are_ignored(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        # A degraded minority where the parallel pair was dropped.
        for i in range(5):
            o = (100 + i) * 2000.0
            a = _span("svc-a", o + 100, o + 200)
            traces.append(Trace(operation="op", root=_span(
                "fe", o, o + 500, children=[a])))
        result = clone_from_traces(traces, name="modal", config=LOOSE)
        root = result.app.operations["op"].root
        assert sum(len(group) for group in root.groups) == 3

    def test_service_time_means_recovered(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        result = clone_from_traces(traces, name="means", config=LOOSE)
        assert result.app.services["fe"].work_mean == \
            pytest.approx(120e-6)
        assert result.app.services["svc-a"].work_mean == \
            pytest.approx(50e-6)


class TestUnclonableSets:
    def test_empty_set_raises_syn002(self):
        with pytest.raises(TopologyError) as err:
            clone_from_traces([], name="empty")
        assert all(f.code == "SYN002" for f in err.value.findings)

    def test_failure_only_set_raises_syn002(self):
        traces = [Trace(operation="op",
                        root=_span("fe", 0, 1000, status="timeout"))]
        with pytest.raises(TopologyError) as err:
            clone_from_traces(traces, name="failures")
        assert all(f.code == "SYN002" for f in err.value.findings)

    def test_mixed_entry_tiers_raise_syn002(self):
        traces = (
            [Trace(operation="op", root=_span("fe-a", i * 2000,
                                              i * 2000 + 500))
             for i in range(10)]
            + [Trace(operation="op", root=_span("fe-b", i * 2000,
                                                i * 2000 + 500))
               for i in range(10, 20)]
        )
        with pytest.raises(TopologyError, match="entry tier"):
            clone_from_traces(traces, name="mixed")

    def test_thin_tiers_warn_but_clone(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(6)]
        result = clone_from_traces(
            traces, name="thin",
            config=CloneConfig(min_service_samples=50))
        assert any(f.code == "SYN002" for f in result.warnings)
        assert len(result.app.services) == 4


class TestRegistryIntegration:
    def test_register_makes_the_clone_buildable(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        clone_from_traces(traces, name="regclone", config=LOOSE,
                          register=True)
        assert build_app("regclone").name == "regclone"

    def test_duplicate_registration_raises(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        clone_from_traces(traces, name="dupclone", config=LOOSE,
                          register=True)
        with pytest.raises(ValueError, match="already registered"):
            clone_from_traces(traces, name="dupclone", config=LOOSE,
                              register=True)


class TestOtlpInput:
    def test_otlp_export_clones_like_live_traces(self):
        """``synth clone`` reads an OTLP file; the clone it infers must
        match the one built from the collector's traces directly."""
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(30)]
        live = clone_from_traces(traces, name="otlp", config=LOOSE)
        loaded = clone_from_traces(
            otlp_json_to_traces(traces_to_otlp_json(traces)),
            name="otlp", config=LOOSE)
        assert topology_json(loaded.app) == topology_json(live.app)


class TestPercentileTable:
    def test_contains_end_to_end_and_tier_rows(self):
        traces = [_mixed_dispatch_trace(i * 2000.0) for i in range(10)]
        table = percentile_table(traces)
        assert set(table) == {"(end-to-end)", "fe", "svc-a", "svc-b",
                              "svc-c"}
        assert table["(end-to-end)"]["p50"] == pytest.approx(1000e-6)
        assert table["svc-a"]["samples"] == 10.0


class TestCloneFidelity:
    """The acceptance bar: clone a real app's export, re-simulate,
    compare per-tier percentile tables within documented tolerance."""

    def test_synthetic_chain_clone_is_faithful(self):
        app = build_app("synth:chain:n8:seed1")
        result = simulate(app, qps=50, duration=8, n_machines=3,
                          seed=2)
        traces = [t for t in result.collector.traces
                  if t.start >= result.warmup]
        clone = clone_from_traces(traces, name="chain-clone")
        report = validate_clone(traces, clone, qps=50, duration=8,
                                n_machines=3, seed=4)
        assert report.ok, report.render()

    def test_social_network_clone_is_faithful(self):
        app = build_app("social_network")
        replicas = balanced_provision(app, target_qps=120)
        result = simulate(app, qps=80, duration=15, n_machines=4,
                          replicas=replicas, seed=11)
        traces = [t for t in result.collector.traces
                  if t.start >= result.warmup]
        clone = clone_from_traces(traces, name="sn-clone")
        # Everything the original exercises must come back.
        assert len(clone.app.services) >= 30
        assert len(clone.app.operations) >= 8
        report = validate_clone(traces, clone, qps=80, duration=15,
                                n_machines=4, seed=5)
        assert report.compared_tiers >= 20
        assert report.ok, report.render()
