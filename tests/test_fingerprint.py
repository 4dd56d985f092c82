"""Cross-version result fingerprints.

``test_determinism`` checks that two runs of one build agree.  These
tests pin what three fixed slices produce, so an engine change meant as
a pure speed-up (fewer events, fewer objects, inlined hot paths) cannot
move a single latency, status or issued count without failing here.
The digests were recorded before the NIC and processor-sharing fast
paths landed; if one changes, the change reordered simulated events,
and the fix belongs in the code, not in the digest.
"""

import hashlib

from repro.apps.registry import build_app
from repro.chaos import run_chaos_scenario
from repro.core.experiment import simulate
from repro.core.provisioning import balanced_provision
from repro.resilience import ResiliencePolicy


def fingerprint(result) -> str:
    """sha256 over the exact latency vector, status counts and issued
    count of one run."""
    digest = hashlib.sha256()
    for latency in result.latencies():
        digest.update(float(latency).hex().encode())
        digest.update(b",")
    status = sorted(result.collector.status_counts.items())
    digest.update(repr(status).encode())
    digest.update(str(result.generator.issued).encode())
    return digest.hexdigest()


def test_social_network_slice_fingerprint():
    app = build_app("social_network")
    replicas = balanced_provision(app, target_qps=120.0)
    result = simulate(app, qps=80.0, duration=6.0, n_machines=6,
                      replicas=replicas, seed=11)
    assert result.generator.issued > 400
    assert fingerprint(result) == (
        "34f167d55ae1ffc6c98adb5c40c76ae8b48e734a9162cd70654b59a54d7e8fc7")


def test_social_network_high_load_fingerprint():
    # Near saturation, deterministic protocol costs make NIC departures
    # and CPU wake-ups land on exactly equal float times, so this slice
    # also pins the order of same-instant events.
    app = build_app("social_network")
    replicas = balanced_provision(app, target_qps=150.0, target_util=0.5)
    result = simulate(app, qps=5000.0, duration=0.4, n_machines=6,
                      replicas=replicas, seed=41)
    assert result.generator.issued > 1500
    assert fingerprint(result) == (
        "c65cf5174784f6cd7ab91cc95c5547b54a55bc6b649db9abe48dfd60afb7883e")


def test_synth_mesh_chaos_cell_fingerprint():
    app = build_app("synth:mesh:n16:seed3")
    # The synth-matrix cell stance: per-attempt timeout at the QoS
    # target, one budgeted retry, a propagated deadline.
    policy = ResiliencePolicy(rpc_timeout=app.qos_latency, max_retries=1,
                              retry_budget_ratio=0.2,
                              deadline=app.qos_latency * 4,
                              propagate_deadline=True)
    replicas = balanced_provision(app, target_qps=120.0)
    run = run_chaos_scenario(app, "machine_crash", qps=60.0, duration=6.0,
                             n_machines=4, seed=3, replicas=replicas,
                             default_policy=policy)
    result = run.result
    assert run.scorecard.fault_count == 1
    assert result.collector.status_counts.get("timeout", 0) > 0
    assert fingerprint(result) == (
        "ef96736e45f4c6f8ff51fbabca31218de67b27cef347c41440af51e093a39db3")
