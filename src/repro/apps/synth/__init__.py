"""Synthetic applications: parametric topology generation, trace-driven
cloning, and the scenario-matrix harness.

Three entry points, one per half of the subsystem:

* :func:`generate` builds a deterministic topology from
  :class:`GeneratorParams` (six patterns, arbitrary size, seeded);
  ``build_app("synth:mesh:n32:seed7")`` resolves the same thing by
  name through the registry.
* :func:`clone_from_traces` infers a matching application from an
  exported trace set, cross-validated by :func:`validate_clone`.
* :func:`run_matrix` sweeps patterns x sizes x seeds with baseline and
  chaos smoke runs into one byte-stable report.
"""

from .clone import (CloneConfig, CloneResult, FidelityReport,
                    clone_from_traces, percentile_table, validate_clone)
from .generator import (GeneratorParams, generate, parse_spec,
                        topology_json)
from .matrix import MatrixReport, MatrixSpec, run_matrix

__all__ = [
    "CloneConfig", "CloneResult", "FidelityReport", "GeneratorParams",
    "MatrixReport", "MatrixSpec", "clone_from_traces", "generate",
    "parse_spec", "percentile_table", "run_matrix", "topology_json",
    "validate_clone",
]
