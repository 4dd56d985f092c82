"""Server platform models.

The paper evaluates three hardware points (Sec. 4):

* a high-end two-socket Intel Xeon (E5-2660 v3 / E5-2699 v4) cluster,
* the same Xeon frequency-capped to 1.8 GHz via RAPL, and
* a Cavium ThunderX board: 2 sockets x 48 in-order cores at 1.8 GHz.

A platform here is a small value object mapping to simulator knobs: how
many cores per server, clock range, and a *single-thread speed factor*
relative to the nominal Xeon.  Service compute costs across the library
are calibrated in "seconds on the nominal Xeon core", so a platform's
effective rate is ``speed_factor * (freq / nominal_freq) ** sensitivity``
(see :mod:`repro.arch.frequency` for the sensitivity model).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Platform", "XEON", "XEON_1P8", "THUNDERX", "DRONE_SOC",
           "EC2_M5", "EC2_C5", "PLATFORMS"]


@dataclass(frozen=True)
class Platform:
    """A server (or edge-device) hardware model.

    ``single_thread_factor`` captures microarchitectural strength (width,
    OoO depth, caches) at equal clocks; in-order ThunderX cores are far
    weaker per-clock than a Xeon even at the same 1.8 GHz — the key fact
    behind Fig. 13.
    """

    name: str
    cores_per_server: int
    nominal_freq_ghz: float
    min_freq_ghz: float
    single_thread_factor: float
    in_order: bool = False

    def __post_init__(self):
        if self.cores_per_server < 1:
            raise ValueError("cores_per_server must be >= 1")
        if not (0 < self.min_freq_ghz <= self.nominal_freq_ghz):
            raise ValueError("need 0 < min_freq <= nominal_freq")
        if self.single_thread_factor <= 0:
            raise ValueError("single_thread_factor must be > 0")

    def core_speed(self, freq_ghz: float) -> float:
        """Raw single-thread speed at ``freq_ghz``, relative to the
        nominal Xeon core (frequency-proportional upper bound; per-service
        frequency sensitivity is applied separately)."""
        return self.single_thread_factor * (freq_ghz / XEON.nominal_freq_ghz)


#: Two-socket Xeon E5 v4 class server: 40 cores, 2.5 GHz nominal.
XEON = Platform(
    name="Intel Xeon E5",
    cores_per_server=40,
    nominal_freq_ghz=2.5,
    min_freq_ghz=1.0,
    single_thread_factor=1.0,
)

#: The same Xeon frequency-equalized to the ThunderX's 1.8 GHz (Fig. 13).
XEON_1P8 = Platform(
    name="Intel Xeon E5 @1.8GHz",
    cores_per_server=40,
    nominal_freq_ghz=1.8,
    min_freq_ghz=1.0,
    single_thread_factor=1.0,
)

#: Cavium ThunderX: 96 in-order cores at 1.8 GHz; weak per-thread.
THUNDERX = Platform(
    name="Cavium ThunderX",
    cores_per_server=96,
    nominal_freq_ghz=1.8,
    min_freq_ghz=1.8,
    single_thread_factor=0.35,
    in_order=True,
)

#: Parrot AR2.0-class drone SoC: one weak embedded core (Swarm-Edge).
DRONE_SOC = Platform(
    name="Drone SoC",
    cores_per_server=2,
    nominal_freq_ghz=1.0,
    min_freq_ghz=1.0,
    single_thread_factor=0.12,
    in_order=True,
)

#: AWS m5.12xlarge-class instance (48 vCPU) for the serverless study.
EC2_M5 = Platform(
    name="EC2 m5.12xlarge",
    cores_per_server=48,
    nominal_freq_ghz=2.5,
    min_freq_ghz=2.5,
    single_thread_factor=0.95,
)

#: AWS c5.18xlarge-class instance (72 vCPU) for the tail-at-scale study.
EC2_C5 = Platform(
    name="EC2 c5.18xlarge",
    cores_per_server=72,
    nominal_freq_ghz=3.0,
    min_freq_ghz=3.0,
    single_thread_factor=1.05,
)

PLATFORMS = {p.name: p for p in
             (XEON, XEON_1P8, THUNDERX, DRONE_SOC, EC2_M5, EC2_C5)}
