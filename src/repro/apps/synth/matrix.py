"""Scenario-matrix harness: patterns x sizes x seeds, one report.

Sweeps the generator envelope and smoke-runs every synthetic app twice:
a clean baseline (resilience on, no faults) and a chaos scenario from
:mod:`repro.chaos`.  The consolidated report is byte-stable for a given
matrix spec — same patterns, sizes, seeds, and load produce the same
JSON bytes — so CI can diff two runs to gate on determinism, and the
markdown rendering drops straight into a PR comment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...resilience.policy import ResiliencePolicy
from .generator import GeneratorParams, generate

__all__ = ["MatrixCell", "MatrixReport", "MatrixSpec", "run_matrix"]

#: The default sweep: every pattern the generator supports, three
#: decades of scale, two seeds (ISSUE acceptance: >=5 patterns x 3
#: sizes, deterministically).
DEFAULT_PATTERNS: Tuple[str, ...] = (
    "chain", "fanout", "branch", "tree", "ptree", "mesh")
DEFAULT_SIZES: Tuple[int, ...] = (8, 16, 32)
DEFAULT_SEEDS: Tuple[int, ...] = (1, 2)


@dataclass(frozen=True)
class MatrixSpec:
    """One sweep definition (the report embeds it verbatim)."""

    patterns: Tuple[str, ...] = DEFAULT_PATTERNS
    sizes: Tuple[int, ...] = DEFAULT_SIZES
    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    qps: float = 120.0
    duration: float = 12.0
    n_machines: int = 4
    #: Chaos scenario smoke-run per cell alongside the clean baseline;
    #: None skips the fault leg (pure determinism/latency sweep).
    scenario: Optional[str] = "machine_crash"

    def cells(self) -> List[Tuple[str, int, int]]:
        return [(pattern, size, seed)
                for pattern in self.patterns
                for size in self.sizes
                for seed in self.seeds]


@dataclass
class MatrixCell:
    """One (pattern, size, seed) cell's results."""

    app: str
    pattern: str
    size: int
    seed: int
    services: int
    operations: int
    qos_latency_us: float
    baseline_p50_ms: float
    baseline_p99_ms: float
    baseline_completion: float
    baseline_steady: bool
    chaos_scenario: Optional[str] = None
    chaos_fault_count: int = 0
    chaos_mttr_s: Optional[float] = None
    chaos_goodput_lost: float = 0.0
    chaos_blast_tiers: int = 0

    def to_dict(self) -> dict:
        row = {
            "app": self.app,
            "pattern": self.pattern,
            "size": self.size,
            "seed": self.seed,
            "services": self.services,
            "operations": self.operations,
            "qos_latency_us": round(self.qos_latency_us, 1),
            "baseline": {
                "p50_ms": round(self.baseline_p50_ms, 3),
                "p99_ms": round(self.baseline_p99_ms, 3),
                "completion": round(self.baseline_completion, 4),
                "steady_state_ok": self.baseline_steady,
            },
        }
        if self.chaos_scenario is not None:
            row["chaos"] = {
                "scenario": self.chaos_scenario,
                "fault_count": self.chaos_fault_count,
                "mttr_s": None if self.chaos_mttr_s is None
                else round(self.chaos_mttr_s, 3),
                "goodput_lost": round(self.chaos_goodput_lost, 4),
                "blast_radius_tiers": self.chaos_blast_tiers,
            }
        return row


@dataclass
class MatrixReport:
    """The consolidated sweep outcome."""

    spec: MatrixSpec
    cells: List[MatrixCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every cell completed its baseline with steady state held."""
        return bool(self.cells) and all(
            c.baseline_steady and c.baseline_completion > 0.9
            for c in self.cells)

    def to_dict(self) -> dict:
        return {
            "report": "synth-matrix",
            "ok": self.ok,
            "spec": {
                "patterns": list(self.spec.patterns),
                "sizes": list(self.spec.sizes),
                "seeds": list(self.spec.seeds),
                "qps": self.spec.qps,
                "duration": self.spec.duration,
                "n_machines": self.spec.n_machines,
                "scenario": self.spec.scenario,
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: int = 2) -> str:
        """Byte-stable serialization (sorted keys, rounded floats)."""
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True) + "\n"

    def render_markdown(self) -> str:
        lines = [
            "# synth scenario matrix",
            "",
            f"- patterns: {', '.join(self.spec.patterns)}",
            f"- sizes: {', '.join(str(s) for s in self.spec.sizes)}"
            f" | seeds: {', '.join(str(s) for s in self.spec.seeds)}",
            f"- load: {self.spec.qps:g} qps x "
            f"{self.spec.duration:g}s on {self.spec.n_machines} "
            f"machines | chaos: {self.spec.scenario or '(none)'}",
            f"- verdict: {'OK' if self.ok else 'DEGRADED'}",
            "",
            "| app | svcs | p50 ms | p99 ms | done | steady |"
            " faults | mttr s | goodput lost |",
            "|---|---:|---:|---:|---:|---|---:|---:|---:|",
        ]
        for c in self.cells:
            mttr = "-" if c.chaos_mttr_s is None \
                else f"{c.chaos_mttr_s:.2f}"
            lines.append(
                f"| {c.app} | {c.services} "
                f"| {c.baseline_p50_ms:.2f} | {c.baseline_p99_ms:.2f} "
                f"| {c.baseline_completion:.3f} "
                f"| {'yes' if c.baseline_steady else 'NO'} "
                f"| {c.chaos_fault_count} | {mttr} "
                f"| {c.chaos_goodput_lost:.3f} |")
        lines.append("")
        return "\n".join(lines)


def _cell_policy(app) -> ResiliencePolicy:
    """A modest default resilience stance for smoke cells: one retry,
    per-attempt timeout at the QoS target (tight enough to exercise
    hedging against faults, loose enough not to self-inflict).  The
    retry budget and propagated deadline are not optional niceties:
    with a retry at *every* tier, a deep generated graph amplifies a
    total-outage window by 2^depth attempts, and abandoned attempts
    keep computing at every tier below them — the exact metastable
    retry storm the resilience layer exists to stop."""
    return ResiliencePolicy(rpc_timeout=app.qos_latency, max_retries=1,
                            retry_budget_ratio=0.2,
                            deadline=app.qos_latency * 4,
                            propagate_deadline=True)


def run_matrix(spec: Optional[MatrixSpec] = None,
               progress=None) -> MatrixReport:
    """Run the sweep and return the consolidated report.

    Each cell builds its app fresh from the generator, provisions it
    for the offered load with 2x headroom (a machine crash on a
    single-replica deployment takes out whole tiers and turns the
    fault leg into a retry storm instead of a measurement), runs the
    baseline chaos scenario (steady-state probe, no faults) and the
    spec's fault scenario, then unregisters the spec name so cached
    validation state never leaks between cells.  ``progress`` is an
    optional ``callable(str)`` for per-cell status lines.
    """
    from ...chaos.harness import run_chaos_scenario
    from ...core.provisioning import provision_for_load
    from ..registry import unregister_app

    spec = spec or MatrixSpec()
    report = MatrixReport(spec=spec)
    for pattern, size, seed in spec.cells():
        params = GeneratorParams(pattern=pattern, size=size, seed=seed)
        app = generate(params)
        if progress is not None:
            progress(f"[{app.name}] baseline")
        policy = _cell_policy(app)
        replicas = provision_for_load(app, spec.qps, headroom=2.0,
                                      floor=20.0)
        base = run_chaos_scenario(
            app, "baseline", qps=spec.qps, duration=spec.duration,
            n_machines=spec.n_machines, seed=seed,
            replicas=replicas, default_policy=policy)
        result = base.result
        cell = MatrixCell(
            app=app.name, pattern=pattern, size=size, seed=seed,
            services=len(app.services),
            operations=len(app.operations),
            qos_latency_us=app.qos_latency * 1e6,
            baseline_p50_ms=result.tail(0.50) * 1e3,
            baseline_p99_ms=result.tail(0.99) * 1e3,
            baseline_completion=result.completion_ratio(),
            baseline_steady=base.scorecard.steady_state_ok)
        if spec.scenario:
            if progress is not None:
                progress(f"[{app.name}] chaos:{spec.scenario}")
            chaos = run_chaos_scenario(
                app, spec.scenario, qps=spec.qps,
                duration=spec.duration, n_machines=spec.n_machines,
                seed=seed, replicas=replicas, default_policy=policy)
            card = chaos.scorecard
            cell.chaos_scenario = spec.scenario
            cell.chaos_fault_count = card.fault_count
            cell.chaos_mttr_s = card.mttr
            cell.chaos_goodput_lost = card.goodput_lost
            cell.chaos_blast_tiers = len(card.blast_tiers)
        report.cells.append(cell)
        unregister_app(app.name)
    return report
