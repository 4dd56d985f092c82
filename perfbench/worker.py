"""One simulation of a benchmark workload, in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload social-bare --seed 11 \
        [--mode full|setup|traced] [--spawned-at T]

The worker imports ``repro`` from the checkout's ``src/``, builds the
workload, runs it, and prints one JSON object as its last line of
output: host timings, peak RSS, and the simulated results the parent
checks.  ``--spawned-at`` is the parent's ``time.perf_counter()`` just
before it started this process (the same system-wide monotonic clock),
so set-up time counts interpreter start and imports.  ``--mode setup``
stops at the first simulated event; ``--mode traced`` wraps the layers
(:mod:`tracer`) and also reports per-layer metrics and writes the spans.
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

def _import_repro():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"worker: no repro package under {SRC}")
    # Import from cached bytecode, as an installed copy would, whatever
    # PYTHONDONTWRITEBYTECODE says; the cache lives under out/, so only
    # the first worker of a checkout compiles.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(OUT / "pycache")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"worker: repro resolved to {repro.__file__}, "
                         f"not the checkout's src/")
    # Everything a workload touches, so the import phase is complete.
    import repro.apps.registry  # noqa: F401
    import repro.chaos.scenarios  # noqa: F401
    import repro.cluster.health  # noqa: F401
    import repro.core.experiment  # noqa: F401
    import repro.core.provisioning  # noqa: F401
    import repro.obs  # noqa: F401


def build(wl, seed, mark):
    """Set the workload up to its first simulated event.

    ``mark(phase)`` is called as each set-up phase ends.  Returns the
    experiment result (not yet run), the chaos log and the health
    checker (both None without chaos)."""
    from repro.apps.registry import build_app
    from repro.core.experiment import simulate
    from repro.core.provisioning import balanced_provision
    from repro.resilience.policy import ResiliencePolicy

    app = build_app(wl.app)
    mark("build_app")
    replicas = balanced_provision(app, target_qps=wl.qps * wl.headroom)
    mark("provision")
    policy = None
    if wl.chaos is not None:
        # Chaos runs under the synth-matrix cell stance: per-attempt
        # timeout at the QoS target, one retry under a 20% budget, a
        # propagated deadline of four QoS targets.
        policy = ResiliencePolicy(
            rpc_timeout=app.qos_latency, max_retries=1,
            retry_budget_ratio=0.2, deadline=app.qos_latency * 4,
            propagate_deadline=True)
    armed = {"log": None, "health": None}

    def arm(deployment):
        mark("deployment")
        if wl.chaos is not None:
            from repro.chaos.scenarios import scenario
            from repro.cluster.health import HealthCheckConfig, HealthChecker
            schedule = scenario(wl.chaos).build(deployment, wl.sim_seconds)
            armed["log"] = schedule.arm(deployment)
            armed["health"] = HealthChecker(
                deployment, HealthCheckConfig()).start()

    mix = None
    if wl.drop_operations:
        mix = {op: weight for op, weight in app.default_mix().items()
               if op not in wl.drop_operations}
    registry = None
    if wl.observed:
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
    result = simulate(app, qps=wl.qps, duration=wl.sim_seconds,
                      n_machines=wl.machines, replicas=replicas, seed=seed,
                      default_policy=policy, setup=arm, mix=mix,
                      metrics=registry, run_env=False)
    mark("arm")
    return result, armed["log"], armed["health"]


def export(wl, result, traced):
    """Write OTLP JSON and Prometheus text as ``repro simulate
    --traces-out --metrics-out`` does; returns timings and sizes."""
    from repro.obs import to_prometheus_text, traces_to_otlp_json
    folder = OUT / wl.name
    folder.mkdir(parents=True, exist_ok=True)
    info = {}
    if traced:
        import tracemalloc
        tracemalloc.start()
    t0 = time.perf_counter()
    otlp = traces_to_otlp_json(result.collector.traces, indent=None)
    (folder / "traces.json").write_text(otlp)
    t1 = time.perf_counter()
    if traced:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        info["otlp_peak_alloc_mb"] = peak / 2**20
    prom = to_prometheus_text(result.metrics, now=result.duration)
    (folder / "metrics.prom").write_text(prom)
    t2 = time.perf_counter()
    info.update(otlp_s=t1 - t0, prom_s=t2 - t1,
                otlp_mb=len(otlp.encode()) / 1e6)
    return info


def check_exports(wl):
    """Parse the written files back: trace count and a known family."""
    folder = OUT / wl.name
    with open(folder / "traces.json") as fh:
        doc = json.load(fh)
    trace_ids = {span["traceId"]
                 for resource_spans in doc["resourceSpans"]
                 for scope in resource_spans["scopeSpans"]
                 for span in scope["spans"]}
    prom = (folder / "metrics.prom").read_text()
    return {"otlp_traces": len(trace_ids),
            "prom_has_requests_total": any(
                line.startswith("repro_requests_total")
                for line in prom.splitlines())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", default="full",
                        choices=("full", "setup", "traced"))
    parser.add_argument("--spawned-at", type=float, default=ENTRY)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    start = args.spawned_at

    _import_repro()
    phases = {"import": time.perf_counter() - start}
    last = [time.perf_counter()]

    def mark(phase):
        now = time.perf_counter()
        phases[phase] = now - last[0]
        last[0] = now

    tracer = tap = None
    if args.mode == "traced":
        from tracer import Tracer, install_layers
        tracer = Tracer()
        tap = install_layers(tracer)
        last[0] = time.perf_counter()
    result, log, health = build(wl, seed, mark)
    out = {"workload": wl.name, "seed": seed, "mode": args.mode,
           "setup_s": time.perf_counter() - start, "phases": phases}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    env = result.deployment.env
    covered0 = tracer.covered if tracer else 0.0
    t0 = time.perf_counter()
    env.run(until=wl.sim_seconds)
    t1 = time.perf_counter()
    covered = tracer.covered - covered0 if tracer else 0.0
    exports = {}
    if wl.observed:
        exports = export(wl, result, tracer is not None)
    t2 = time.perf_counter()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gen = result.generator
    collector = result.collector
    out["run_s"] = t1 - t0
    out["wall_s"] = t2 - t0
    out["requests_per_wall_s"] = gen.issued / out["wall_s"]
    out["exports"] = exports
    injected = [e for e in log.events if e.phase == "inject"] if log \
        else []
    detection = 0.0
    if health is not None and injected:
        found = health.first_detection(after=injected[0].time)
        detection = found - injected[0].time if found is not None else -1.0
    latencies = result.latencies()
    out["sim"] = {
        "events": env.events_scheduled,
        "issued": gen.issued,
        "collected": collector.total_collected,
        "in_flight": gen.in_flight,
        "ok": collector.ok_count,
        "status": dict(sorted(collector.status_counts.items())),
        "stored_traces": len(collector.traces),
        "completion_ratio": result.completion_ratio(),
        "p50_ms": result.tail(0.50) * 1e3,
        "p99_ms": result.tail(0.99) * 1e3,
        "latencies_ms": [float(v) * 1e3 for v in latencies],
        "faults": len(injected),
        "detection_s": detection,
    }
    if wl.observed:
        out["exports"].update(check_exports(wl))
    if tracer is not None:
        from tracer import layer_metrics
        tracer.uninstall()
        out["layers"] = layer_metrics(
            tracer, tap, run_wall=out["run_s"], covered=covered,
            issued=gen.issued, events=env.events_scheduled,
            sim_seconds=wl.sim_seconds, deployment=result.deployment,
            collector=collector, detection_s=max(detection, 0.0))
        out["counts"] = dict(sorted(tracer.counts.items()))
        out["spans"] = tracer.table()
        out["spans_kept"] = len(tracer.s_start)
        out["spans_dropped"] = tracer.spans_dropped
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{wl.name}-seed{seed}-spans.npz")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
