"""Placement strategies: packing replicas onto machines.

Fig. 1 of the paper contrasts monolith scale-out with microservices,
whose independently-deployed tiers can be "bin-packed on the same
physical server" by complementary resource needs.  This module provides
the placement policies a deployment can use:

* :class:`SpreadPlacer` — most-free-cores first with rotation (the
  default): maximizes fault isolation by spreading each tier's replicas
  across machines.
* :class:`BinPackPlacer` — first-fit-decreasing on (cores, memory):
  minimizes the number of machines used, the consolidation strategy
  cloud operators bill by.

A deployment runs one placer per zone (cloud vs. edge), so a service
only lands on machines in its own zone.

A placement decision returns the machine; capacity accounting covers
both cores and memory.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..services.definition import ServiceDefinition
from .machine import Machine

__all__ = ["PlacementError", "SpreadPlacer", "BinPackPlacer"]

#: Default memory footprint per instance when the service doesn't say
#: (most logic tiers are small; stores declare their own).
_DEFAULT_MEMORY_MB = 512.0


class PlacementError(Exception):
    """No machine can host the requested instance."""


def memory_of(definition: ServiceDefinition) -> float:
    """Per-instance memory footprint in MB.

    Derived from the service kind: caches and databases hold data,
    logic tiers mostly code + connections."""
    kind_defaults = {
        "cache": 4096.0,
        "database": 8192.0,
        "queue": 1024.0,
        "ml": 2048.0,
    }
    return kind_defaults.get(definition.kind, _DEFAULT_MEMORY_MB)


class _Tracker:
    """Book-keeping of allocated cores/memory per machine."""

    def __init__(self, machines: Sequence[Machine],
                 memory_per_machine_mb: float):
        self.machines = list(machines)
        self.memory_capacity = memory_per_machine_mb
        self.memory_used: Dict[str, float] = {
            m.machine_id: 0.0 for m in self.machines}

    def fits(self, machine: Machine, cores: int, memory_mb: float) -> bool:
        return (machine.free_cores >= cores and
                self.memory_used[machine.machine_id] + memory_mb
                <= self.memory_capacity)

    def commit(self, machine: Machine, memory_mb: float) -> None:
        self.memory_used[machine.machine_id] += memory_mb


class SpreadPlacer:
    """Spread replicas: pick the fitting machine with the most free
    cores, rotating among ties so one tier's replicas land apart.

    Capacity is *soft*: when nothing fits (edge devices running every
    on-board service on two cores genuinely oversubscribe), the
    least-loaded machine hosts the replica anyway — mirroring how
    containers without reservations share whatever CPU exists."""

    def __init__(self, machines: Sequence[Machine],
                 memory_per_machine_mb: float = 128 * 1024.0):
        self._tracker = _Tracker(machines, memory_per_machine_mb)
        self._cursor: Dict[str, int] = {}

    def place(self, definition: ServiceDefinition,
              cores: int) -> Machine:
        """Choose a machine for one replica (soft capacity)."""
        memory = memory_of(definition)
        machines = self._tracker.machines
        cursor = self._cursor.get(definition.name, 0)
        # Down machines (chaos crash faults) take no new replicas: a
        # replacement placed on the dead host would be born dead.
        live = [i for i in range(len(machines)) if not machines[i].down]
        if not live:
            live = list(range(len(machines)))
        candidates = [
            i for i in live
            if self._tracker.fits(machines[i], cores, memory)
        ]
        if not candidates:
            candidates = live  # oversubscribe
        best = min(candidates,
                   key=lambda i: (-machines[i].free_cores,
                                  (i - cursor) % len(machines)))
        self._cursor[definition.name] = (best + 1) % len(machines)
        self._tracker.commit(machines[best], memory)
        return machines[best]


class BinPackPlacer:
    """First-fit-decreasing consolidation: fill machines in order,
    opening a new one only when nothing earlier fits."""

    def __init__(self, machines: Sequence[Machine],
                 memory_per_machine_mb: float = 128 * 1024.0):
        self._tracker = _Tracker(machines, memory_per_machine_mb)

    def place(self, definition: ServiceDefinition,
              cores: int) -> Machine:
        """First machine (in order) with room for the replica."""
        memory = memory_of(definition)
        for machine in self._tracker.machines:
            if machine.down:
                continue
            if self._tracker.fits(machine, cores, memory):
                self._tracker.commit(machine, memory)
                return machine
        raise PlacementError(
            f"no machine fits {definition.name} "
            f"({cores} cores, {memory:.0f} MB)")

