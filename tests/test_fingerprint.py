"""Cross-version result fingerprints.

``test_determinism`` checks that two runs of one build agree.  These
tests pin what fixed slices produce, so an engine change meant as a
pure speed-up (fewer events, fewer objects, inlined hot paths) cannot
move a single latency, status or issued count without failing here.
The first three digests were recorded before the NIC and
processor-sharing fast paths landed.  The rest pin the run-assembly
paths (the region harness, utilization monitors and autoscaler, and
the CLI's provisioning and fault setup) and were recorded before those
paths were merged.  The two OTLP digests pin the exact bytes of the
trace export and were recorded before the exporter became a one-pass
text writer.  If a digest changes, the change reordered simulated
events, moved an observer or altered the export encoding, and the fix
belongs in the code, not in the digest.
"""

import hashlib
import json

from repro.apps.registry import build_app
from repro.arch import XEON
from repro.chaos import FaultSchedule, run_chaos_scenario
from repro.cli import main
from repro.cluster import Cluster, UtilizationAutoscaler
from repro.core import Deployment
from repro.core.experiment import run_experiment, simulate
from repro.core.provisioning import balanced_provision, provision_for_load
from repro.obs import to_prometheus_text, traces_to_otlp_json
from repro.region import RegionOutage, run_region_scenario, two_region_topology
from repro.resilience import ResiliencePolicy, arm_degradation
from repro.services import Application, CallNode, Operation, seq
from repro.services.datastores import memcached, nginx
from repro.sim import Environment
from repro.sim.rng import RandomStreams
from repro.workload.users import UserPopulation


def fingerprint(result) -> str:
    """sha256 over the exact latency vector, status counts and issued
    count of one run."""
    digest = hashlib.sha256()
    for latency in result.latencies():
        digest.update(float(latency).hex().encode())
        digest.update(b",")
    status = sorted(result.collector.status_counts.items())
    digest.update(repr(status).encode())
    digest.update(str(result.generator.issued).encode())
    return digest.hexdigest()


def test_social_network_slice_fingerprint():
    app = build_app("social_network")
    replicas = balanced_provision(app, target_qps=120.0)
    result = simulate(app, qps=80.0, duration=6.0, n_machines=6,
                      replicas=replicas, seed=11)
    assert result.generator.issued > 400
    assert fingerprint(result) == (
        "34f167d55ae1ffc6c98adb5c40c76ae8b48e734a9162cd70654b59a54d7e8fc7")


def test_social_network_high_load_fingerprint():
    # Near saturation, deterministic protocol costs make NIC departures
    # and CPU wake-ups land on exactly equal float times, so this slice
    # also pins the order of same-instant events.
    app = build_app("social_network")
    replicas = balanced_provision(app, target_qps=150.0, target_util=0.5)
    result = simulate(app, qps=5000.0, duration=0.4, n_machines=6,
                      replicas=replicas, seed=41)
    assert result.generator.issued > 1500
    assert fingerprint(result) == (
        "c65cf5174784f6cd7ab91cc95c5547b54a55bc6b649db9abe48dfd60afb7883e")


def test_synth_mesh_chaos_cell_fingerprint():
    app = build_app("synth:mesh:n16:seed3")
    # The synth-matrix cell stance: per-attempt timeout at the QoS
    # target, one budgeted retry, a propagated deadline.
    policy = ResiliencePolicy(rpc_timeout=app.qos_latency, max_retries=1,
                              retry_budget_ratio=0.2,
                              deadline=app.qos_latency * 4,
                              propagate_deadline=True)
    replicas = balanced_provision(app, target_qps=120.0)
    run = run_chaos_scenario(app, "machine_crash", qps=60.0, duration=6.0,
                             n_machines=4, seed=3, replicas=replicas,
                             default_policy=policy)
    result = run.result
    assert run.scorecard.fault_count == 1
    assert result.collector.status_counts.get("timeout", 0) > 0
    assert fingerprint(result) == (
        "ef96736e45f4c6f8ff51fbabca31218de67b27cef347c41440af51e093a39db3")


def canonical_digest(payload) -> str:
    """sha256 over a JSON-shaped payload with every float as
    ``float.hex``, so digests compare exact bits, not printed digits."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {str(k): exact(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [exact(v) for v in value]
        return value

    text = json.dumps(exact(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_region_outage_fingerprint():
    app = build_app("social_network")
    topology = two_region_topology(machines=3)
    primary = topology.names[0]
    run = run_region_scenario(
        app, FaultSchedule([RegionOutage(primary, start=6.0,
                                         duration=6.0)]),
        topology=topology, qps=60.0, duration=20.0, seed=7,
        replicas=balanced_provision(app, target_qps=90.0),
        scenario="region-outage")
    assert run.scorecard.fault_count == 1
    payload = {
        "scorecard": run.scorecard.to_dict(),
        "utilization": {
            region: {service: series.points
                     for service, series in result.utilization.items()}
            for region, result in run.region_results.items()},
    }
    assert canonical_digest(payload) == (
        "430a8cb4eefa778fa81d6fa38c11c6429a288704bc95d16cce8e75a8a7d98e20")


def test_autoscaled_experiment_fingerprint():
    env = Environment()
    app = Application(
        name="two-tier",
        services={"web": nginx("web", work_mean=5e-3),
                  "cache": memcached("cache")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        qos_latency=0.05)
    deployment = Deployment(env, app, Cluster.homogeneous(env, XEON, 4),
                            cores={"web": 1, "cache": 2}, seed=1)
    scaler = UtilizationAutoscaler(env, deployment, period=2.0,
                                   scale_in_threshold=0.3,
                                   startup_delay=3.0, cooldown=2.0)
    scaler.start()
    # Overload the front tier, then let load fall away so the
    # autoscaler both scales out and scales back in.
    result = run_experiment(
        deployment, lambda t: 320.0 if t < 20.0 else 40.0,
        duration=40.0, seed=2, metrics=True)
    actions = {event.action for event in scaler.events}
    assert actions == {"scale_out", "scale_in"}
    payload = {
        "utilization": {service: series.points
                        for service, series in result.utilization.items()},
        "events": [[e.time, e.service, e.action, e.utilization,
                    e.instances] for e in scaler.events],
        "prometheus": to_prometheus_text(result.metrics,
                                         now=result.duration),
    }
    assert canonical_digest(payload) == (
        "450bf49232f524573ed26d575de01c6991fff871216955d09b6ddcd86efb38a5")


def test_report_qos_json_fingerprint(capsys):
    assert main(["report", "qos", "social_network", "--qps", "80",
                 "--duration", "6", "--machines", "4", "--seed", "3",
                 "--delay", "mongo-posts:0.05", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8a65e09dac794211d6846d0bc32506eceb0065ad2611da9fea19f782f9c29e28")


def test_report_degradation_json_fingerprint(capsys):
    assert main(["report", "degradation", "social_network", "--qps",
                 "120", "--duration", "8", "--machines", "6", "--seed",
                 "23", "--slow", "mongo-timeline:6", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["degradation_events"] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fee616f0a5f106717473b2c0c601e8a375f0432d1f05c404e08db6d302af02e2")


def otlp_digest(traces) -> str:
    """sha256 of the exact OTLP JSON text :func:`traces_to_otlp_json`
    writes for ``traces``."""
    return hashlib.sha256(
        traces_to_otlp_json(traces).encode()).hexdigest()


def test_social_network_slice_otlp_fingerprint():
    app = build_app("social_network")
    replicas = balanced_provision(app, target_qps=120.0)
    result = simulate(app, qps=80.0, duration=6.0, n_machines=6,
                      replicas=replicas, seed=11)
    assert otlp_digest(result.collector.traces) == (
        "073e24d0ae8c636459a031a054836b5ac6e010bc4251b7d57b62dc18dcccb424")


def test_degraded_retried_run_otlp_fingerprint():
    # The `report degradation --slow mongo-timeline:6` scenario under a
    # tight per-attempt timeout with one retry and a Zipf user
    # population: spans carry timeout statuses, retry counts, user ids
    # and str/bool/float annotations.  A few roots also get annotations
    # no simulator layer writes today (non-finite and extreme floats,
    # ints, non-ASCII keys and values) so the pin covers every branch
    # of the attribute encoding.
    app = build_app("social_network")
    manager, shedder = arm_degradation(app, qps=120.0)
    policy = ResiliencePolicy(rpc_timeout=0.01, max_retries=1)
    result = simulate(
        app, qps=120.0, duration=3.0, n_machines=6,
        replicas=provision_for_load(app, 120.0), seed=23,
        default_policy=policy, shedder=shedder, degradation=manager,
        setup=lambda d: d.slow_down_service("mongo-timeline", 6.0),
        users=UserPopulation(1000, 1.1, RandomStreams(4)))
    traces = list(result.collector.traces)
    spans = [span for trace in traces for span in trace.root.walk()]
    assert {"ok", "timeout"} <= {span.status for span in spans}
    assert any(span.retries for span in spans)
    assert all(trace.user is not None for trace in traces)
    kinds = {type(value) for span in spans
             for value in span.annotations.values()}
    assert {str, bool, float} <= kinds
    extras = [float("nan"), float("inf"), -float("inf"), 1e300, -0.0,
              2 ** 70, "café \"q\" \\ \n\t\x01", "\U0001f600"]
    for i, trace in enumerate(traces[::50]):
        trace.root.annotations[f"extraµ{i}"] = extras[i % len(extras)]
    assert otlp_digest(traces) == (
        "4aa1fa3cbe37be1ad9bd9aa26cd98be0c4ff729c2dd97ab28be6d7839842ea6e")
