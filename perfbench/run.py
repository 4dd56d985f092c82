"""The repository benchmark: simulator host speed, set-up time and memory.

Usage::

    python3 perfbench/run.py --workload social-bare --seed 11 \
        --seconds 25 --trace 0

Each simulation runs in its own fresh process (``worker.py``), one at a
time: the simulator is single-threaded, so this process only waits.  A
run first simulates the workload on its fixed number of seeds derived
from ``--seed`` (:func:`workloads.sim_seed`), then repeats those
simulations while ``--seconds`` of host time remain.  The simulated
metrics pool the distinct simulations; host metrics are medians over
every repetition.  Between simulations, :data:`SETUP_SAMPLES` set-up-only
processes are spread evenly over the run; ``setup_s`` is the median of
their set-up times and those of the simulations.  A repeated simulation must give exactly the
results of its first run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs of the first seed and reports the per-layer
metrics plus ``trace_overhead``; the traced worker writes its spans to
``perfbench/out`` and this process writes the per-layer table beside
them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (simulations run), ``failed`` (simulations
that broke a correctness check) and ``metrics``.  The exit code is 0
only when every check held.  A worker that crashes ends the run with a
non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, sim_seed  # noqa: E402

#: Set-up-only processes in an untraced run; the set-up times of the
#: simulations themselves are added to them.
SETUP_SAMPLES = 6
#: Every run must end well inside three minutes.
RUN_LIMIT_S = 170.0

#: name -> (unit, better); the end-to-end metrics, measured untraced.
END_TO_END = {
    "requests_per_wall_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_p50_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_ok_fraction": ("fraction", "higher"),
}

#: name -> (unit, better); the per-layer metrics of a traced run.
PER_LAYER = {
    "sim.engine.events_per_request": ("count", "lower"),
    "sim.engine.timeouts_per_request": ("count", "lower"),
    "sim.engine.processes_per_request": ("count", "lower"),
    "sim.engine.uncovered_share": ("fraction", "lower"),
    "sim.engine.self_share": ("fraction", "lower"),
    "sim.ps.jobs_per_request": ("count", "lower"),
    "sim.ps.busy_core_ms_per_request": ("ms", "lower"),
    "sim.ps.host_us_per_job": ("us", "lower"),
    "sim.ps.self_share": ("fraction", "lower"),
    "net.fabric.transfers_per_request": ("count", "lower"),
    "net.fabric.remote_share": ("fraction", "lower"),
    "net.fabric.nic_wait_ms_per_request": ("ms", "lower"),
    "net.fabric.host_us_per_transfer": ("us", "lower"),
    "net.fabric.self_share": ("fraction", "lower"),
    "sim.resources.grants_per_request": ("count", "lower"),
    "sim.resources.queued_share": ("fraction", "lower"),
    "sim.resources.self_share": ("fraction", "lower"),
    "core.deployment.spans_per_request": ("count", "lower"),
    "core.deployment.host_us_per_request": ("us", "lower"),
    "core.deployment.self_share": ("fraction", "lower"),
    "resilience.attempts_per_rpc": ("count", "lower"),
    "resilience.retries_per_request": ("count", "lower"),
    "resilience.useful_attempt_ratio": ("fraction", "higher"),
    "resilience.timeouts": ("count", "lower"),
    "resilience.deadline_aborts": ("count", "lower"),
    "resilience.self_share": ("fraction", "lower"),
    "cluster.health.probes_per_sim_s": ("1/s", "lower"),
    "cluster.health.detection_s": ("s", "lower"),
    "tracing.collector.host_us_per_trace": ("us", "lower"),
    "tracing.collector.stored_traces": ("count", "higher"),
    "tracing.collector.self_share": ("fraction", "lower"),
    "obs.registry.scrapes": ("count", "lower"),
    "obs.registry.host_ms_per_scrape": ("ms", "lower"),
    "obs.registry.self_share": ("fraction", "lower"),
    "obs.exporters.otlp_s": ("s", "lower"),
    "obs.exporters.otlp_mb": ("MB", "lower"),
    "obs.exporters.otlp_peak_alloc_mb": ("MB", "lower"),
    "obs.exporters.prom_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.build_app_s": ("s", "lower"),
    "setup.provision_s": ("s", "lower"),
    "setup.deployment_s": ("s", "lower"),
    "setup.arm_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

#: Per-layer metrics read from the untraced runs of a traced run: host
#: timings the wrappers or tracemalloc would distort.
UNTRACED_LAYER = {
    "obs.exporters.otlp_s": lambda rep: rep["exports"].get("otlp_s", 0.0),
    "obs.exporters.prom_s": lambda rep: rep["exports"].get("prom_s", 0.0),
    "obs.exporters.otlp_mb": lambda rep: rep["exports"].get("otlp_mb", 0.0),
    "setup.import_s": lambda rep: rep["phases"]["import"],
    "setup.build_app_s": lambda rep: rep["phases"]["build_app"],
    "setup.provision_s": lambda rep: rep["phases"]["provision"],
    "setup.deployment_s": lambda rep: rep["phases"]["deployment"],
    "setup.arm_s": lambda rep: rep["phases"]["arm"],
}


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time within the run's limit."""

    def __init__(self):
        self.started = time.perf_counter()
        self.attempted = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, workload: str, mode: str, seed: int) -> dict:
        budget = RUN_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise WorkerFailed("run time limit reached")
        if mode != "setup":
            self.attempted += 1
        spawned = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--spawned-at", repr(spawned)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{workload} {mode} worker timed out "
                               f"after {exc.timeout:.0f} s") from None
        if proc.returncode != 0:
            raise WorkerFailed(
                f"{workload} {mode} worker exited {proc.returncode}:\n"
                f"{proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise WorkerFailed(f"{workload} {mode} worker printed nothing")
        result = json.loads(lines[-1])
        result["process_s"] = time.perf_counter() - spawned
        return result


def check_reps(wl, reps, reference):
    """The correctness checks; returns (failed repetitions, messages)."""
    problems = []
    failed = set()

    def require(ok, index, message):
        if not ok:
            failed.add(index)
            problems.append(message)

    first = {}
    for i, rep in enumerate(reps):
        sim = rep["sim"]
        tag = f"rep {i} (seed {rep['seed']})"
        earlier = first.setdefault(rep["seed"], sim)
        require(sim == earlier, i,
                f"{tag}: simulated results differ from an earlier run "
                f"with the same seed")
        require(sim["in_flight"] >= 0
                and sim["issued"] == sim["collected"] + sim["in_flight"],
                i, f"{tag}: issued {sim['issued']} != collected "
                   f"{sim['collected']} + in flight {sim['in_flight']}")
        require(sim["ok"] > 0 and sim["latencies_ms"], i,
                f"{tag}: no successful requests")
        if wl.app == "social_network":
            require(sim["completion_ratio"] >= 0.95, i,
                    f"{tag}: completion ratio "
                    f"{sim['completion_ratio']:.4f} < 0.95")
        if wl.chaos is not None:
            require(sim["faults"] == 1, i,
                    f"{tag}: {sim['faults']} faults recorded, not 1")
            require(sim["detection_s"] > 0, i,
                    f"{tag}: health checker never detected the fault")
        if wl.observed:
            exports = rep["exports"]
            require(exports["otlp_traces"] == sim["stored_traces"], i,
                    f"{tag}: OTLP holds {exports['otlp_traces']} traces "
                    f"for {sim['stored_traces']} stored")
            require(exports["prom_has_requests_total"], i,
                    f"{tag}: Prometheus text lacks repro_requests_total")
    if reference is not None:
        ref = reference["sim"]
        ours = first[reference["seed"]]
        for key in ("issued", "status", "p50_ms", "p99_ms"):
            require(ours[key] == ref[key], 0,
                    f"{key} {ours[key]} differs from the bare run's "
                    f"{ref[key]}")
    return failed, problems


def median_of(reps, *path):
    values = []
    for rep in reps:
        value = rep
        for key in path:
            value = value[key]
        values.append(value)
    return statistics.median(values)


def pooled_sim(reps):
    """Simulated metrics over the distinct seeds' simulations."""
    import numpy as np
    sims = {}
    for rep in reps:
        sims.setdefault(rep["seed"], rep["sim"])
    latencies = np.concatenate([np.asarray(sim["latencies_ms"])
                                for sim in sims.values()])
    issued = sum(sim["issued"] for sim in sims.values())
    ok = sum(sim["ok"] for sim in sims.values())
    status = defaultdict(int)
    for sim in sims.values():
        for key, count in sim["status"].items():
            status[key] += count
    return {"sims": len(sims), "issued": issued, "ok": ok,
            "status": dict(sorted(status.items())),
            "samples": int(latencies.size),
            "events": sum(sim["events"] for sim in sims.values()),
            "p50_ms": float(np.quantile(latencies, 0.50)),
            "p99_ms": float(np.quantile(latencies, 0.99))}


def end_to_end(reps, setups, pooled):
    return {
        "requests_per_wall_s": median_of(reps, "requests_per_wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(reps, "rss_mb"),
        "sim_p50_ms": pooled["p50_ms"],
        "sim_p99_ms": pooled["p99_ms"],
        "sim_ok_fraction": pooled["ok"] / pooled["issued"],
    }


def per_layer(wl, untraced, traced):
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = median_of(traced, "layers", name)
    for name, read in UNTRACED_LAYER.items():
        metrics[name] = statistics.median(read(rep) for rep in untraced)
    metrics["obs.exporters.otlp_peak_alloc_mb"] = median_of(
        traced, "exports", "otlp_peak_alloc_mb") if wl.observed else 0.0
    metrics["trace_overhead"] = (median_of(traced, "run_s")
                                 / median_of(untraced, "run_s"))
    return metrics


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    seeds = [sim_seed(seed, i) for i in range(wl.sims)]
    runner = Runner()
    reference = None
    if wl.observed:
        # The same simulation without obs, for the cross-check.
        bare = next(w for w in WORKLOADS.values()
                    if w.app == wl.app and not w.observed
                    and w.chaos is None)
        reference = runner.spawn(bare.name, "full", seeds[0])

    untraced, traced = [], []

    def room_for_more():
        done = untraced + traced
        typical = statistics.median(r["process_s"] for r in done)
        return runner.elapsed() + typical <= args.seconds

    setups = []

    def spread_setups(share):
        # Set-up-only processes go between simulations, in step with
        # the run's clock, so the median covers the run's host speeds.
        while len(setups) < SETUP_SAMPLES * min(1.0, share):
            setups.append(
                runner.spawn(wl.name, "setup", seeds[0])["setup_s"])

    if args.trace:
        while not traced or room_for_more():
            if len(traced) < len(untraced):
                traced.append(runner.spawn(wl.name, "traced", seeds[0]))
            else:
                untraced.append(runner.spawn(wl.name, "full", seeds[0]))
    else:
        for sim in seeds:
            untraced.append(runner.spawn(wl.name, "full", sim))
            spread_setups(runner.elapsed() / args.seconds)
        while room_for_more():
            sim = seeds[len(untraced) % len(seeds)]
            untraced.append(runner.spawn(wl.name, "full", sim))
            spread_setups(runner.elapsed() / args.seconds)
        spread_setups(1.0)
        setups.extend(rep["setup_s"] for rep in untraced)

    reps = untraced + traced
    failed, problems = check_reps(wl, reps, reference)
    if traced:
        counts = traced[0]["counts"]
        for i, rep in enumerate(traced[1:], 1):
            if rep["counts"] != counts:
                failed.add(len(untraced) + i)
                problems.append(f"traced rep {i}: layer counts differ "
                                f"from traced rep 0")

    pooled = pooled_sim(reps)
    if args.trace:
        values = per_layer(wl, untraced, traced)
        table = PER_LAYER
    else:
        values = end_to_end(untraced, setups, pooled)
        table = END_TO_END
    units = {name: unit for name, (unit, _) in table.items()}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    print(f"workload {wl.name}  seed {seed}  {pooled['sims']} x "
          f"{wl.sim_seconds:g} sim-s at {wl.qps:g} qps  trace "
          f"{args.trace}  {len(untraced)} untraced + {len(traced)} traced "
          f"runs  host {runner.elapsed():.1f} s")
    print(f"  simulated: {pooled['issued']} requests issued, "
          f"{pooled['samples']} post-warmup latency samples, status "
          f"{pooled['status']}, sim_failed_fraction "
          f"{1.0 - pooled['ok'] / pooled['issued']:.6f}, "
          f"{pooled['events']} events")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    for message in problems:
        print(f"  CHECK FAILED: {message}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}"
    for rep in reps + ([reference] if reference else []):
        rep["sim"].pop("latencies_ms")
    report = {"workload": wl.name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "metrics": metrics,
              "pooled": pooled, "problems": problems,
              "reference": reference, "untraced": untraced,
              "traced": traced, "setup_samples": setups}
    if args.trace:
        layers = {"workload": wl.name, "seed": seed,
                  "trace_overhead": values["trace_overhead"],
                  "metrics": metrics, "spans": traced[-1]["spans"],
                  "counts": traced[-1]["counts"],
                  "spans_file": f"{stem}-spans.npz",
                  "spans_kept": traced[-1]["spans_kept"],
                  "spans_dropped": traced[-1]["spans_dropped"]}
        (OUT / f"{stem}-layers.json").write_text(
            json.dumps(layers, indent=2) + "\n")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(json.dumps({"correct": not problems,
                      "attempted": runner.attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator host-speed benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="simulation seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
