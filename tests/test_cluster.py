"""Tests for machines, cluster, load balancers, rate limiting."""

import pytest

from repro.arch import THUNDERX, XEON
from repro.cluster import (
    Cluster,
    KeyHash,
    LeastOutstanding,
    Machine,
    RoundRobin,
    ServiceInstance,
    TokenBucket,
)
from repro.services.datastores import mongodb, nginx
from repro.sim import Environment


def make_instances(env, n=3, cores=2):
    machine = Machine(env, "m0", XEON)
    return [ServiceInstance(env, nginx(f"svc"), machine, cores=cores)
            for _ in range(n)]


# -- machine / instance ------------------------------------------------------

def test_machine_core_speed_nominal():
    env = Environment()
    m = Machine(env, "m", XEON)
    assert m.core_speed() == pytest.approx(1.0)


def test_thunderx_much_slower_per_core():
    env = Environment()
    m = Machine(env, "t", THUNDERX)
    assert m.core_speed() == pytest.approx(0.35 * 1.8 / 2.5)


def test_frequency_cap_slows_compute_bound_instance():
    env = Environment()
    m = Machine(env, "m", XEON)
    inst = ServiceInstance(env, nginx("web"), m, cores=2)
    rate_before = inst.cpu.rate
    m.set_frequency(1.25)
    assert inst.cpu.rate < rate_before


def test_frequency_cap_barely_affects_io_bound():
    env = Environment()
    m = Machine(env, "m", XEON)
    db = ServiceInstance(env, mongodb("mongo"), m, cores=2)
    rate_before = db.cpu.rate
    m.set_frequency(1.0)
    # beta=0.15: even at 40% clock the rate drops by < 20%.
    assert db.cpu.rate > 0.8 * rate_before


def test_slow_factor_degrades_rate():
    env = Environment()
    m = Machine(env, "m", XEON)
    inst = ServiceInstance(env, nginx("web"), m, cores=2)
    rate_before = inst.cpu.rate
    m.set_slow_factor(0.25)
    assert inst.cpu.rate < 0.5 * rate_before
    with pytest.raises(ValueError):
        m.set_slow_factor(0.0)


def test_core_accounting():
    env = Environment()
    m = Machine(env, "m", XEON)
    ServiceInstance(env, nginx("a"), m, cores=8)
    ServiceInstance(env, nginx("b"), m, cores=8)
    assert m.allocated_cores == 16
    assert m.free_cores == XEON.cores_per_server - 16


def test_instance_detach():
    env = Environment()
    m = Machine(env, "m", XEON)
    inst = ServiceInstance(env, nginx("a"), m, cores=4)
    assert m.instances == [inst]
    inst.detach()
    assert m.instances == []


# -- cluster ------------------------------------------------------------------

def test_homogeneous_cluster_and_zones():
    env = Environment()
    cloud = Cluster.homogeneous(env, XEON, 3)
    edge = Cluster.homogeneous(env, THUNDERX, 2, zone="edge",
                               name_prefix="e")
    merged = cloud.merge(edge)
    assert len(merged) == 5
    assert len(merged.zone("edge")) == 2
    assert len(merged.zone("cloud")) == 3


def test_heal_restores_full_speed():
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 4)
    cluster.machines[2].set_slow_factor(0.3)
    assert cluster.machines[2].slow_factor == 0.3
    cluster.heal()
    assert all(m.slow_factor == 1.0 for m in cluster.machines)


def test_cluster_set_frequency_applies_everywhere():
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 3)
    cluster.set_frequency(1.5)
    assert all(m.freq.current_ghz == 1.5 for m in cluster.machines)


# -- load balancers ------------------------------------------------------------

def test_round_robin_cycles():
    env = Environment()
    insts = make_instances(env, 3)
    lb = RoundRobin(insts)
    picks = [lb.pick() for _ in range(6)]
    assert picks == insts + insts


def test_least_outstanding_prefers_idle():
    env = Environment()
    insts = make_instances(env, 3)
    insts[0].outstanding = 5
    insts[1].outstanding = 1
    insts[2].outstanding = 3
    lb = LeastOutstanding(insts)
    assert lb.pick() is insts[1]


def test_key_hash_is_stable():
    env = Environment()
    insts = make_instances(env, 4)
    lb = KeyHash(insts)
    assert lb.pick(key=7) is lb.pick(key=7)
    assert lb.pick(key=7) is insts[7 % 4]
    assert lb.pick(key=None) is insts[0]


def test_pin_routes_everything_to_one_replica():
    env = Environment()
    insts = make_instances(env, 3)
    lb = RoundRobin(insts)
    lb.pin(2)
    assert all(lb.pick() is insts[2] for _ in range(5))
    lb.unpin()
    assert lb.pick() is not None
    with pytest.raises(IndexError):
        lb.pin(9)


def test_remove_protects_last_replica():
    env = Environment()
    insts = make_instances(env, 2)
    lb = RoundRobin(insts)
    lb.remove(insts[0])
    with pytest.raises(ValueError):
        lb.remove(insts[1])


# -- token bucket ------------------------------------------------------------

def test_token_bucket_admits_within_rate():
    env = Environment()
    bucket = TokenBucket(env, rate_per_s=10.0, burst=5)
    admitted = sum(bucket.allow() for _ in range(5))
    assert admitted == 5
    assert not bucket.allow()  # burst exhausted, no time has passed
    assert bucket.dropped == 1


def test_token_bucket_refills_over_time():
    env = Environment()
    bucket = TokenBucket(env, rate_per_s=10.0, burst=5)
    for _ in range(5):
        bucket.allow()

    def later():
        yield env.timeout(1.0)  # 10 tokens refill (capped at burst=5)
        assert bucket.allow()

    env.process(later())
    env.run()
    assert bucket.drop_fraction < 1.0


def test_token_bucket_set_rate_and_validation():
    env = Environment()
    bucket = TokenBucket(env, rate_per_s=10.0)
    bucket.set_rate(1.0)
    with pytest.raises(ValueError):
        bucket.set_rate(0.0)
    with pytest.raises(ValueError):
        TokenBucket(env, rate_per_s=0.0)
    with pytest.raises(ValueError):
        TokenBucket(env, rate_per_s=1.0, burst=0)
