"""The benchmark's workloads: fixed simulated inputs, seeded from outside.

A workload is a scenario the simulator turns into results: an app, an
open-loop Poisson arrival rate in *simulated* time, a cluster size, a
simulated duration, and what is armed on top (observability, resilience
policy, fault schedule, health-checked failover).  Only the seed comes
from the command line, so a claim can be re-checked on a seed nobody
tuned against.  Nothing in this module imports ``repro`` at import time:
the worker times that import itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    qps: float
    machines: int
    #: Simulated seconds per simulation; the first 20% are warmup.
    sim_seconds: float
    #: Simulations per benchmark run, each on its own seed derived from
    #: the run's seed; the simulated metrics pool all of them.
    sims: int
    #: Seed used when the command line gives none.
    default_seed: int
    #: Provision replicas for ``qps * headroom``.
    headroom: float
    why: str
    drop_operations: Tuple[str, ...] = ()
    #: Attach a MetricsRegistry and export OTLP + Prometheus text.
    observed: bool = False
    #: Chaos scenario armed with health-checked failover, under the
    #: synth-matrix cell resilience policy on every callee.
    chaos: Optional[str] = None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="social-bare", app="social_network", qps=80.0,
            machines=6, sim_seconds=30.0, sims=4, default_seed=11,
            headroom=1.5,
            drop_operations=("composePost-video",),
            why="engine hot path alone (sim.engine, sim.ps, net.fabric, "
                "core.deployment); obs and resilience do no work"),
        Workload(
            name="social-observed", app="social_network", qps=80.0,
            machines=6, sim_seconds=30.0, sims=4, default_seed=11,
            headroom=1.5,
            drop_operations=("composePost-video",), observed=True,
            why="same simulation plus metrics registry, every trace "
                "kept, OTLP and Prometheus files written: obs cost"),
        Workload(
            name="mesh-chaos", app="synth:mesh:n64:seed3", qps=80.0,
            machines=8, sim_seconds=5.0, sims=2, default_seed=7,
            headroom=2.0,
            chaos="machine_crash",
            why="64-service mesh under a machine crash with retries, "
                "deadlines and failover: resilience, chaos, health"),
    )
}


def sim_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th simulation; the first is ``seed``."""
    return seed + 1000 * index
