"""Tests for machine-crash mechanics: drain, freeze and restore."""

import pytest

from repro.arch import XEON
from repro.chaos import ChaosContext, FaultSchedule, MachineCrash
from repro.cluster import Cluster
from repro.core import Deployment, run_experiment
from repro.services import Application, CallNode, Operation, seq
from repro.services.datastores import memcached, nginx
from repro.sim import Environment


def two_tier():
    return Application(
        name="two-tier",
        services={"web": nginx("web", work_mean=1e-3),
                  "cache": memcached("cache")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        qos_latency=0.05)


def build(replicas_web=3):
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 4)
    deployment = Deployment(env, two_tier(), cluster,
                            replicas={"web": replicas_web, "cache": 1},
                            cores={"web": 1, "cache": 2}, seed=61)
    return env, cluster, deployment, ChaosContext(deployment)


def crash(machine, **kwargs):
    """A warm restart: no cold-cache penalty on revert."""
    return MachineCrash(machine, cold_cache=False, **kwargs)


def test_fail_drains_replicated_tier():
    env, cluster, deployment, ctx = build()
    victim = deployment.instances_of("web")[0].machine
    fault = crash(victim)
    fault.inject(ctx)
    assert fault.active
    assert victim.down
    lb = deployment.load_balancer("web")
    assert all(inst.machine is not victim for inst in lb.instances)
    assert not fault.record.frozen or victim.instances
    fault.revert(ctx)
    assert not fault.active
    assert not victim.down
    assert len(lb.instances) == 3


def test_singleton_tier_freezes_machine():
    env, cluster, deployment, ctx = build()
    victim = deployment.instances_of("cache")[0].machine
    fault = crash(victim)
    fault.inject(ctx)
    assert fault.record.frozen
    assert victim.slow_factor < 0.1
    fault.revert(ctx)
    assert victim.slow_factor == 1.0


def test_double_fail_rejected():
    env, cluster, deployment, ctx = build()
    fault = crash(cluster.machines[0])
    fault.inject(ctx)
    with pytest.raises(RuntimeError):
        fault.inject(ctx)
    fault.revert(ctx)
    with pytest.raises(RuntimeError):
        fault.revert(ctx)


def test_repair_before_fail_rejected():
    env, cluster, deployment, ctx = build()
    fault = crash(cluster.machines[0])
    with pytest.raises(RuntimeError):
        fault.revert(ctx)


def test_freeze_restores_original_slow_factor():
    """A machine already degraded before the crash must come back at
    its degraded speed, not get silently healed by the restart."""
    env, cluster, deployment, ctx = build()
    victim = deployment.instances_of("cache")[0].machine
    victim.set_slow_factor(0.5)
    fault = crash(victim)
    fault.inject(ctx)
    assert fault.record.frozen
    assert victim.slow_factor < 0.1
    fault.revert(ctx)
    assert victim.slow_factor == 0.5


def test_repair_leaves_unfrozen_machine_untouched():
    """Draining (no freeze) must not touch the machine's speed."""
    env, cluster, deployment, ctx = build()
    machines = {inst.machine for inst in deployment.instances_of("web")}
    machines -= {deployment.instances_of("cache")[0].machine}
    victim = next(iter(machines))
    victim.set_slow_factor(0.7)
    fault = crash(victim)
    fault.inject(ctx)
    assert not fault.record.frozen
    assert victim.slow_factor == 0.7
    fault.revert(ctx)
    assert victim.slow_factor == 0.7


def test_drained_instances_rejoin_lb():
    env, cluster, deployment, ctx = build()
    victim = deployment.instances_of("web")[0].machine
    lb = deployment.load_balancer("web")
    before = set(lb.instances)
    fault = crash(victim)
    fault.inject(ctx)
    record = fault.record
    assert set(lb.instances) < before
    fault.revert(ctx)
    # The exact same instance objects return to rotation.
    assert set(lb.instances) == before
    assert record.drained == []
    assert fault.record is None


def test_scheduled_outage_degrades_then_recovers():
    env, cluster, deployment, ctx = build()
    victim = deployment.instances_of("web")[0].machine
    FaultSchedule([crash(victim, start=10.0, duration=15.0)]).arm(
        deployment)
    result = run_experiment(deployment, 600, duration=40.0, warmup=2.0,
                            seed=62)
    # During the outage, 2/3 of web capacity remains: latency rises.
    during = result.collector.end_to_end.mean(start=12.0, end=24.0)
    before = result.collector.end_to_end.mean(start=2.0, end=10.0)
    after = result.collector.end_to_end.mean(start=30.0, end=40.0)
    assert during > before
    assert after < during
    assert len(deployment.load_balancer("web").instances) == 3


def test_schedule_past_rejected():
    # Schedule times count from arming, so the only past is a
    # negative start.
    env, cluster, deployment, ctx = build()
    with pytest.raises(ValueError):
        crash(cluster.machines[0], start=-1.0)
