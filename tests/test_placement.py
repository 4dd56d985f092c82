"""Tests for placement strategies (spread vs bin-pack)."""

import pytest

from repro.arch import XEON
from repro.cluster import Cluster
from repro.cluster.placement import (
    BinPackPlacer,
    PlacementError,
    SpreadPlacer,
    memory_of,
)
from repro.core import Deployment
from repro.services import Application, CallNode, Operation, seq
from repro.services.datastores import memcached, mongodb, nginx
from repro.sim import Environment


def machines(n=4):
    env = Environment()
    return env, Cluster.homogeneous(env, XEON, n).machines


def test_memory_of_by_kind():
    assert memory_of(memcached("mc")) == 4096.0
    assert memory_of(mongodb("db")) == 8192.0
    assert memory_of(nginx("web")) == 512.0


def test_spread_places_replicas_apart():
    env, ms = machines(4)
    placer = SpreadPlacer(ms)
    svc = nginx("web")
    chosen = [placer.place(svc, cores=2).machine_id for _ in range(4)]
    # All four replicas land on distinct machines.
    assert len(set(chosen)) == 4


def test_spread_oversubscribes_softly():
    env, ms = machines(1)
    placer = SpreadPlacer(ms)
    svc = nginx("web")
    # One 40-core machine, ask for 3 x 20 cores: third oversubscribes
    # instead of failing.
    for _ in range(3):
        machine = placer.place(svc, cores=20)
        assert machine is ms[0]


def test_binpack_fills_then_opens():
    env, ms = machines(3)
    placer = BinPackPlacer(ms)
    svc = nginx("web")
    first = [placer.place(svc, cores=10) for _ in range(4)]
    # 4 x 10 cores fit on the first 40-core machine.
    assert all(m is ms[0] for m in first)
    # The fifth spills to machine 2 (tracker sees allocated cores via
    # the machine, which only counts *instantiated* replicas — so we
    # instantiate through a Deployment below for the integration view).


def test_binpack_memory_constrains():
    env, ms = machines(2)
    placer = BinPackPlacer(ms, memory_per_machine_mb=10000.0)
    db = mongodb("db")  # 8 GB each
    assert placer.place(db, cores=2) is ms[0]
    assert placer.place(db, cores=2) is ms[1]  # no memory left on m0
    with pytest.raises(PlacementError):
        placer.place(db, cores=2)


def two_tier():
    return Application(
        name="two-tier",
        services={"web": nginx("web"), "cache": memcached("cache")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        qos_latency=0.05)


def test_deployment_binpack_consolidates():
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 4)
    dep = Deployment(env, two_tier(), cluster,
                     replicas={"web": 3, "cache": 3},
                     placement="binpack")
    used = {i.machine.machine_id
            for s in dep.service_names() for i in dep.instances_of(s)}
    assert used == {"m0"}  # 6 x 2 cores fit one 40-core machine

    env2 = Environment()
    cluster2 = Cluster.homogeneous(env2, XEON, 4)
    spread = Deployment(env2, two_tier(), cluster2,
                        replicas={"web": 3, "cache": 3},
                        placement="spread")
    used2 = {i.machine.machine_id
             for s in spread.service_names()
             for i in spread.instances_of(s)}
    assert len(used2) == 4


def test_deployment_rejects_unknown_placement():
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 2)
    with pytest.raises(ValueError):
        Deployment(env, two_tier(), cluster, placement="tetris")

