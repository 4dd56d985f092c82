"""A cluster: the set of machines a deployment can place instances on."""

from __future__ import annotations

from typing import Iterable, List

from ..arch.platform import Platform
from ..sim.engine import Environment
from .machine import NIC_10G_KB_PER_S, Machine

__all__ = ["Cluster"]


class Cluster:
    """A set of machines, possibly spanning zones (cloud + edge)."""

    def __init__(self, machines: Iterable[Machine]):
        self.machines: List[Machine] = list(machines)
        if not self.machines:
            raise ValueError("cluster needs at least one machine")
        self.env = self.machines[0].env

    @classmethod
    def homogeneous(cls, env: Environment, platform: Platform,
                    n_machines: int,
                    nic_bandwidth_kb_s: float = NIC_10G_KB_PER_S,
                    zone: str = "cloud",
                    name_prefix: str = "m") -> "Cluster":
        """Build ``n_machines`` identical servers."""
        if n_machines < 1:
            raise ValueError("n_machines must be >= 1")
        machines = [
            Machine(env, f"{name_prefix}{i}", platform,
                    nic_bandwidth_kb_s=nic_bandwidth_kb_s, zone=zone)
            for i in range(n_machines)
        ]
        return cls(machines)

    def __len__(self) -> int:
        return len(self.machines)

    def zone(self, zone: str) -> List[Machine]:
        """Machines in the given zone."""
        return [m for m in self.machines if m.zone == zone]

    def merge(self, other: "Cluster") -> "Cluster":
        """A cluster containing both machine sets (cloud + edge swarm)."""
        return Cluster(self.machines + other.machines)

    def heal(self) -> None:
        """Restore every machine to full speed and nominal frequency."""
        for machine in self.machines:
            machine.set_slow_factor(1.0)
            machine.freq.uncap()
            for inst in machine.instances:
                inst.refresh_rate()

    def set_frequency(self, freq_ghz: float) -> None:
        """RAPL-cap every machine (the Fig. 12 sweep)."""
        for machine in self.machines:
            machine.set_frequency(freq_ghz)
