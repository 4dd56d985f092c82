"""The experiment harness: deployments, QoS, provisioning, the suite."""

from .deployment import Deployment
from .experiment import ExperimentResult, run_experiment, simulate
from .provisioning import (balanced_provision, provision_for_load,
                           provision_iteratively)
from .qos import QoSTarget
from .report import render_report
from .suite import DeathStarBench

__all__ = [
    "DeathStarBench",
    "Deployment",
    "ExperimentResult",
    "QoSTarget",
    "balanced_provision",
    "render_report",
    "provision_for_load",
    "provision_iteratively",
    "run_experiment",
    "simulate",
]
