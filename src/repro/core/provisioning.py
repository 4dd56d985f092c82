"""Balanced provisioning (Sec. 3.8).

The paper provisions each end-to-end service so that "no single
microservice introduces early bottlenecks": starting from a fair
allocation, saturated tiers are upsized until all tiers saturate at
about the same load.  The fixed point of that iteration is the
allocation where every tier has just enough servers to sit at a common
utilization at the target load — which we can compute directly from the
per-service demand:

    servers_s = ceil(lambda_s * S_s / target_util)

:func:`balanced_provision` returns per-service replica counts;
:func:`provision_iteratively` reproduces the paper's upsize loop against
the analytic model (useful to show both land in the same place).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..arch.platform import XEON, Platform
from ..services.app import Application
from ..analytic.model import AnalyticModel

__all__ = ["LOAD_HEADROOM", "MIN_PROVISION_QPS", "balanced_provision",
           "provision_for_load", "provision_iteratively"]

#: The load-provisioning rule of the CLI and the profiler: size every
#: tier for 1.5x the offered load, and never for less than 50 QPS, so a
#: light run still gets a realistic replica spread.
LOAD_HEADROOM = 1.5
MIN_PROVISION_QPS = 50


def balanced_provision(app: Application, target_qps: float,
                       target_util: float = 0.6,
                       cores_per_replica: int = 2,
                       platform: Platform = XEON,
                       mix: Optional[Mapping[str, float]] = None
                       ) -> Dict[str, int]:
    """Replica counts so every tier runs at ``target_util`` at the
    target load."""
    if target_qps <= 0:
        raise ValueError("target_qps must be > 0")
    if not 0 < target_util < 1:
        raise ValueError("target_util must be in (0,1)")
    if cores_per_replica < 1:
        raise ValueError("cores_per_replica must be >= 1")
    model = AnalyticModel(app, replicas=1, cores=cores_per_replica,
                          platform=platform, mix=mix)
    replicas: Dict[str, int] = {}
    for service, demand in model.demands.items():
        arrival = target_qps * demand.visits
        per_visit = model.service_time(service)
        servers = math.ceil(arrival * per_visit / target_util) \
            if arrival * per_visit > 0 else 1
        replicas[service] = max(1, math.ceil(servers / cores_per_replica))
    return replicas


def provision_for_load(app: Application, qps: float,
                       headroom: float = LOAD_HEADROOM,
                       floor: float = MIN_PROVISION_QPS) -> Dict[str, int]:
    """Balanced replica counts for running ``app`` at ``qps``, sized
    for ``headroom`` times the load and at least ``floor`` QPS."""
    return balanced_provision(app, target_qps=max(qps * headroom, floor))


def provision_iteratively(app: Application, target_qps: float,
                          target_util: float = 0.6,
                          cores_per_replica: int = 2,
                          platform: Platform = XEON,
                          mix: Optional[Mapping[str, float]] = None,
                          max_rounds: int = 1000) -> Dict[str, int]:
    """The paper's loop: start fair, upsize the most saturated tier
    until no tier exceeds the utilization target at ``target_qps``."""
    replicas = {service: 1 for service in app.services}
    for _ in range(max_rounds):
        model = AnalyticModel(app, replicas=replicas,
                              cores=cores_per_replica, platform=platform,
                              mix=mix)
        utils = model.utilizations(target_qps)
        worst = max(utils, key=utils.get)
        if utils[worst] <= target_util:
            return replicas
        replicas[worst] += 1
    raise RuntimeError("provisioning did not converge; raise max_rounds")
