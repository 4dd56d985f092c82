"""Determinism regression: same seed => byte-identical results.

This is the property simlint exists to protect (and the prerequisite
for every figure the repo reproduces): two runs of the same experiment
with the same seed must produce *byte-identical* exported traces and
percentile tables, not just statistically similar ones.
"""

from repro.apps.registry import build_app
from repro.core.experiment import simulate
from repro.stats.tables import format_table
from repro.obs import traces_to_otlp_json

SEED = 1234


def run_social_network():
    """One short social_network experiment; returns exported artifacts."""
    app = build_app("social_network")
    result = simulate(app, qps=40.0, duration=4.0, n_machines=6,
                      seed=SEED)
    traces_json = traces_to_otlp_json(result.collector.traces)
    rows = [[f"p{int(p * 100)}", f"{result.tail(p) * 1e6:.3f}"]
            for p in (0.50, 0.90, 0.95, 0.99)]
    rows.append(["mean", f"{result.mean_latency() * 1e6:.3f}"])
    rows.append(["throughput", f"{result.throughput():.6f}"])
    per_service = sorted(result.collector.per_service)
    service_rows = [
        [name, f"{result.service_tail(name, 0.99) * 1e6:.3f}"]
        for name in per_service]
    table = format_table(["metric", "value (us)"], rows + service_rows)
    return traces_json, table


def test_same_seed_runs_are_byte_identical():
    traces_a, table_a = run_social_network()
    traces_b, table_b = run_social_network()
    assert traces_a.encode() == traces_b.encode()
    assert table_a.encode() == table_b.encode()
    # Sanity: the run actually simulated traffic.
    assert len(traces_a) > 1000
    assert "p99" in table_a


def run_chaos():
    """One multi-fault chaos run with every RNG-consuming mechanism on:
    lossy link retransmits, health-probe false positives, crash +
    slowdown + gray failure, and the metrics scraper."""
    from repro.chaos import (ChaosScenario, DatastoreSlowdown,
                             FaultSchedule, GrayFailure,
                             LinkDegradation, MachineCrash,
                             run_chaos_scenario)
    from repro.cluster import HealthCheckConfig
    from repro.obs import to_prometheus_text
    from repro.services import Application, CallNode, Operation, seq
    from repro.services.datastores import memcached, nginx

    app = Application(
        name="two-tier",
        services={"web": nginx("web", work_mean=1e-3),
                  "cache": memcached("cache")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        qos_latency=0.05)

    def builder(deployment, duration):
        return FaultSchedule([
            MachineCrash(deployment.instances_of("web")[0].machine,
                         start=2.0, duration=3.0),
            DatastoreSlowdown("cache", factor=6.0, start=3.0,
                              duration=2.0),
            GrayFailure("web", replica=1, start=4.0, duration=2.0),
            LinkDegradation("client", "cloud", loss_rate=0.2,
                            rto=0.01, start=5.0, duration=2.0),
        ])

    scenario = ChaosScenario(name="multi", description="",
                             builder=builder)
    run = run_chaos_scenario(
        app, scenario, qps=40.0, duration=8.0, n_machines=4,
        replicas={"web": 3, "cache": 1},
        cores={"web": 1, "cache": 2}, seed=SEED,
        failover=HealthCheckConfig(probe_interval=0.25,
                                   unhealthy_threshold=2,
                                   false_positive_rate=0.05,
                                   provision_delay=1.0))
    otlp = traces_to_otlp_json(run.result.collector.traces)
    prom = to_prometheus_text(run.result.metrics)
    log = [(e.time, e.fault, e.kind, e.phase) for e in run.log.events]
    health = [(e.time, e.service, e.instance, e.kind)
              for e in run.health.events]
    return otlp, prom, log, health


def test_same_seed_chaos_runs_are_byte_identical():
    """The chaos contract: a multi-fault schedule with failover replays
    byte-identically from its seed, across the trace export, the
    Prometheus export, the chaos log, and the health-event stream."""
    otlp_a, prom_a, log_a, health_a = run_chaos()
    otlp_b, prom_b, log_b, health_b = run_chaos()
    assert otlp_a.encode() == otlp_b.encode()
    assert prom_a.encode() == prom_b.encode()
    assert log_a == log_b
    assert health_a == health_b
    # Sanity: the schedule really ran (4 injects + 4 reverts) and the
    # checker really acted.
    assert len(log_a) == 8
    assert any(kind == "detected" for _, _, _, kind in health_a)


def run_region():
    """One two-region run with the full multi-region surface active:
    geo front door (probes + failover), async replication, a region
    outage, and a long-haul partition."""
    import json

    from repro.obs import to_prometheus_text
    from repro.region import (InterRegionPartition, RegionOutage,
                              run_region_scenario, two_region_topology)
    from repro.services import Application, CallNode, Operation, seq
    from repro.services.datastores import mongodb, nginx

    app = Application(
        name="geo-web",
        services={"web": nginx("web", work_mean=1e-3),
                  "store": mongodb("store")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="store"))))},
        qos_latency=0.1,
        regions=["us-east", "eu-west"],
        service_regions={"store": "us-east"})
    faults = [
        RegionOutage("us-east", start=2.0, duration=3.0),
        InterRegionPartition("us-east", "eu-west", start=6.0,
                             duration=1.0),
    ]
    run = run_region_scenario(
        app, faults,
        topology=two_region_topology(machines=2, rtt=0.02,
                                     primary_share=0.6),
        qps=40.0, duration=8.0, mode="failover", seed=SEED,
        replicas={"web": 2, "store": 1})
    otlp = traces_to_otlp_json(run.frontdoor.collector.traces)
    prom = to_prometheus_text(run.result.metrics)
    log = [(e.time, e.fault, e.kind, e.phase) for e in run.log.events]
    card = json.dumps(run.scorecard.to_dict(), sort_keys=True)
    return otlp, prom, log, card, run.frontdoor.event_tuples()


def test_same_seed_region_runs_are_byte_identical():
    """The multi-region contract: a region outage plus a long-haul
    partition, probed and failed over by the front door, replays
    byte-identically across the OTLP export (including the
    home/served-region and staleness annotations), the Prometheus
    export, the chaos log, the global scorecard, and the front-door
    event stream."""
    otlp_a, prom_a, log_a, card_a, events_a = run_region()
    otlp_b, prom_b, log_b, card_b, events_b = run_region()
    assert otlp_a.encode() == otlp_b.encode()
    assert prom_a.encode() == prom_b.encode()
    assert log_a == log_b
    assert card_a.encode() == card_b.encode()
    assert events_a == events_b
    # Sanity: the schedule ran (2 injects + 2 reverts), the front door
    # acted, and failed-over traffic was annotated.
    assert len(log_a) == 4
    assert any(kind == "ejected" for _, _, _, kind in events_a)
    assert "repro.served_region" in otlp_a


def test_different_seeds_diverge():
    """The equality above is meaningful: a different seed shifts the
    event sequence, so the exported traces differ."""
    app = build_app("social_network")
    a = simulate(app, qps=40.0, duration=2.0, n_machines=6, seed=1)
    b = simulate(build_app("social_network"), qps=40.0, duration=2.0,
                 n_machines=6, seed=2)
    assert traces_to_otlp_json(a.collector.traces) != \
        traces_to_otlp_json(b.collector.traces)


def run_predict(train_seed=11, eval_seed=12):
    """Train a predictor on one seeded run, score a second: returns
    every byte-stable artifact of the predict pipeline."""
    from repro.predict import (OnlineLogisticModel, run_scenario,
                               predict_scenario)
    from repro.predict.labels import (episodes_for_labeling, label_rows,
                                      split_xy)

    spec = predict_scenario("backpressure")
    train = run_scenario(spec, train_seed)
    examples = label_rows(train.tracker.matrix(),
                          episodes_for_labeling(train.report),
                          horizon=8.0)
    x, y = split_xy(examples)
    model = OnlineLogisticModel(seed=train_seed)
    model.fit(x, y)
    scored = run_scenario(spec, eval_seed, model=model, threshold=0.6)
    return ("\n".join(train.tracker.export_lines()),
            repr(model.to_dict()),
            "\n".join(scored.predictor.export_lines()))


def test_same_seed_predict_runs_are_byte_identical():
    """The predict contract: feature matrix, learned weights, and the
    prediction event log all replay byte-identically from the seed."""
    features_a, weights_a, events_a = run_predict()
    features_b, weights_b, events_b = run_predict()
    assert features_a.encode() == features_b.encode()
    assert weights_a.encode() == weights_b.encode()
    assert events_a.encode() == events_b.encode()
    # Sanity: the run produced features and the model actually alerted.
    assert len(features_a.splitlines()) > 10
    assert len(events_a.splitlines()) >= 1
