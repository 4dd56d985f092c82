"""Layer tracing from outside the simulator.

:class:`Tracer` wraps class methods at run time and records a span for
every call: name, start, end, the span that was open when it began, and
the simulated request it served.  Generator entry points (the fabric
transfer, the deployment's per-RPC processes) are timed one resume at a
time, since a generator's body runs in slices between simulated events.
Spans are kept in memory (up to a cap; totals stay exact past it) and
written out when the run ends.  A span's self time is its duration less
the spans nested in it; host time under no span at all is the engine's
own loop.

:func:`install_layers` puts spans and counters on the boundaries of the
``repro`` layers the benchmark reports on.  Nothing under ``src/`` is
edited: the wrappers are installed in the worker process only, and
:meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans around wrapped calls, with exact per-name totals."""

    def __init__(self, span_cap: int = 300_000):
        self.span_cap = span_cap
        self.names = []
        self._ids = {}
        self.calls = []
        self.total = []
        self.self_time = []
        self.counts = Counter()
        #: Sum of the durations of spans opened with no span open.
        self.covered = 0.0
        #: Simulated request whose process is running, -1 for none.
        self.request = -1
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_request = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.spans_dropped = 0
        self._stack = []
        self._patches = []

    # -- spans ------------------------------------------------------------
    def span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return sid

    def enter(self, sid: int) -> None:
        stack = self._stack
        idx = len(self.s_start)
        if idx < self.span_cap:
            self.s_name.append(sid)
            self.s_parent.append(stack[-1][2] if stack else -1)
            self.s_request.append(self.request)
            self.s_end.append(0.0)
            t = perf_counter()
            self.s_start.append(t)
        else:
            idx = -1
            self.spans_dropped += 1
            t = perf_counter()
        stack.append([sid, t, idx, 0.0])

    def leave(self) -> None:
        t = perf_counter()
        stack = self._stack
        sid, t0, idx, child = stack.pop()
        dur = t - t0
        self.calls[sid] += 1
        self.total[sid] += dur
        self.self_time[sid] += dur - child
        if stack:
            stack[-1][3] += dur
        else:
            self.covered += dur
        if idx >= 0:
            self.s_end[idx] = t

    # -- patching ---------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in owner.__dict__
        self._patches.append((owner, attr, owner.__dict__.get(attr),
                              had_own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def wrap_call(self, owner, attr: str, name: str, after=None) -> None:
        """Span every call of ``owner.attr``; ``after(args, result)``
        runs once the call has returned, outside the span."""
        original = getattr(owner, attr)
        sid = self.span_id(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str,
                       before=None, after=None) -> None:
        """Span every resume of the generators ``owner.attr`` returns.

        ``counts[name]`` counts the generators created, while the span
        table counts resumes.  ``before(args)`` runs when the generator
        is created and
        ``after(args, value)`` when it returns ``value``.  Values sent
        and exceptions thrown in are passed through unchanged, so the
        wrapped generator behaves exactly as the original under both
        ``yield from`` and the engine's ``send``/``throw``."""
        original = getattr(owner, attr)
        sid = self.span_id(name)
        enter, leave = self.enter, self.leave

        counts = self.counts

        def traced(*args, **kwargs):
            gen = original(*args, **kwargs)
            counts[name] += 1
            if before is not None:
                before(args)
            value = None
            error = None
            while True:
                enter(sid)
                try:
                    if error is None:
                        target = gen.send(value)
                    else:
                        target, error = gen.throw(error), None
                except StopIteration as stop:
                    leave()
                    if after is not None:
                        after(args, stop.value)
                    return stop.value
                except BaseException:
                    leave()
                    raise
                leave()
                try:
                    value = yield target
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    value, error = None, exc

        self.patch(owner, attr, traced)

    def wrap_count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    # -- output -------------------------------------------------------------
    def table(self) -> dict:
        """Per span name: calls, inclusive and self host seconds."""
        return {name: {"calls": self.calls[i], "total_s": self.total[i],
                       "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """Write the kept spans as a NumPy ``.npz`` archive."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.s_name, dtype=np.int32),
                 parent=np.frombuffer(self.s_parent, dtype=np.int32),
                 request=np.frombuffer(self.s_request, dtype=np.int32),
                 start=np.frombuffer(self.s_start, dtype=np.float64),
                 end=np.frombuffer(self.s_end, dtype=np.float64),
                 dropped=np.array(self.spans_dropped))


#: Span name -> layer it belongs to.
SPAN_LAYER = {
    "sim.engine.resume": "sim.engine",
    "sim.ps.service": "sim.ps",
    "sim.ps.complete": "sim.ps",
    "sim.resources.request": "sim.resources",
    "sim.resources.release": "sim.resources",
    "net.fabric.transfer": "net.fabric",
    "core.deployment.execute": "core.deployment",
    "core.deployment.run_operation": "core.deployment",
    "core.deployment.run_node": "core.deployment",
    "resilience.call_with_policy": "resilience",
    "tracing.collector.collect": "tracing.collector",
    "obs.registry.scrape": "obs.registry",
}


class LayerTap:
    """The counters :func:`install_layers` keeps beside the spans."""

    def __init__(self):
        self.ps_servers = []
        self.remote_transfers = 0
        self.nic_wait = 0.0
        self.queued_grants = 0
        self.useful_rpcs = 0
        self.next_request = 0
        self.process_request = {}


def install_layers(tracer: Tracer) -> LayerTap:
    """Wrap the public entry points of each simulator layer."""
    from repro.cluster.health import HealthChecker
    from repro.core.deployment import Deployment
    from repro.net.fabric import NetworkFabric
    from repro.obs.registry import MetricsRegistry
    from repro.sim.engine import Process, Timeout
    from repro.sim.ps import ProcessorSharingServer
    from repro.sim.resources import Request, Resource
    from repro.tracing.collector import TraceCollector
    from repro.tracing.span import Span

    tap = LayerTap()
    counts = tracer.counts
    owners = tap.process_request

    # sim.engine: events come from the environment's own counter.
    tracer.wrap_count(Timeout, "__init__", "timeouts")
    process_init = Process.__init__

    def process_created(self, *args, **kwargs):
        counts["processes"] += 1
        owners[self] = tracer.request
        process_init(self, *args, **kwargs)

    tracer.patch(Process, "__init__", process_created)
    resume = Process._resume
    resume_sid = tracer.span_id("sim.engine.resume")

    def resumed(self, event):
        outer = tracer.request
        tracer.request = owners.get(self, -1)
        tracer.enter(resume_sid)
        try:
            resume(self, event)
        finally:
            tracer.leave()
            tracer.request = outer
            if self._triggered:
                owners.pop(self, None)

    tracer.patch(Process, "_resume", resumed)

    # sim.ps
    ps_init = ProcessorSharingServer.__init__

    def ps_created(self, *args, **kwargs):
        ps_init(self, *args, **kwargs)
        tap.ps_servers.append(self)

    tracer.patch(ProcessorSharingServer, "__init__", ps_created)
    tracer.wrap_call(ProcessorSharingServer, "service", "sim.ps.service")
    tracer.wrap_call(ProcessorSharingServer, "_complete",
                     "sim.ps.complete")

    # sim.resources
    def granted(args, request):
        if not request._triggered:
            tap.queued_grants += 1

    tracer.wrap_call(Resource, "request", "sim.resources.request",
                     after=granted)
    tracer.wrap_call(Request, "release", "sim.resources.release")

    # net.fabric
    def transfer_started(args):
        _, src, dst = args[:3]
        if src is None or dst is None or src.machine is not dst.machine:
            tap.remote_transfers += 1

    def transfer_done(args, timing):
        tap.nic_wait += timing.nic

    tracer.wrap_generator(NetworkFabric, "transfer", "net.fabric.transfer",
                          before=transfer_started, after=transfer_done)

    # core.deployment: a new request id for every execute().
    execute = Deployment.execute
    execute_sid = tracer.span_id("core.deployment.execute")

    def executed(self, *args, **kwargs):
        outer = tracer.request
        tracer.request = tap.next_request
        tap.next_request += 1
        tracer.enter(execute_sid)
        try:
            return execute(self, *args, **kwargs)
        finally:
            tracer.leave()
            tracer.request = outer

    tracer.patch(Deployment, "execute", executed)
    tracer.wrap_generator(Deployment, "_run_operation",
                          "core.deployment.run_operation")
    tracer.wrap_generator(Deployment, "_run_node",
                          "core.deployment.run_node")
    tracer.wrap_count(Span, "__init__", "spans")

    # resilience: one logical RPC per call, useful when it returns ok.
    def rpc_done(args, span):
        if span.status == "ok":
            tap.useful_rpcs += 1

    tracer.wrap_generator(Deployment, "_call_with_policy",
                          "resilience.call_with_policy", after=rpc_done)

    # cluster.health, tracing.collector, obs.registry
    tracer.wrap_count(HealthChecker, "_probe", "probes")
    tracer.wrap_call(TraceCollector, "collect", "tracing.collector.collect")
    tracer.wrap_call(MetricsRegistry, "scrape", "obs.registry.scrape")
    return tap


def layer_metrics(tracer: Tracer, tap: LayerTap, run_wall: float,
                  covered: float, issued: int, events: int,
                  sim_seconds: float, deployment, collector,
                  detection_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``run_wall`` is the host time of ``env.run`` alone and ``covered``
    the part of it spent inside spans."""
    table = tracer.table()
    counts = tracer.counts

    def stat(name, field):
        return table.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = Counter()
    for name, row in table.items():
        layer_self[SPAN_LAYER[name]] += row["self_s"]
    jobs = stat("sim.ps.service", "calls")
    transfers = counts["net.fabric.transfer"]
    grants = stat("sim.resources.request", "calls")
    rpcs = counts["resilience.call_with_policy"]
    # With a default policy every server-side attempt runs under it.
    attempts = counts["core.deployment.run_node"] if rpcs else 0
    traces = stat("tracing.collector.collect", "calls")
    scrapes = stat("obs.registry.scrape", "calls")
    busy = sum(server.busy_time() for server in tap.ps_servers)
    stats = deployment.resilience_stats
    metrics = {
        "sim.engine.events_per_request": ratio(events, issued),
        "sim.engine.timeouts_per_request": ratio(counts["timeouts"],
                                                 issued),
        "sim.engine.processes_per_request": ratio(counts["processes"],
                                                  issued),
        "sim.engine.uncovered_share": ratio(run_wall - covered, run_wall),
        "sim.ps.jobs_per_request": ratio(jobs, issued),
        "sim.ps.busy_core_ms_per_request": ratio(busy * 1e3, issued),
        "sim.ps.host_us_per_job": ratio(
            (stat("sim.ps.service", "total_s")
             + stat("sim.ps.complete", "total_s")) * 1e6, jobs),
        "net.fabric.transfers_per_request": ratio(transfers, issued),
        "net.fabric.remote_share": ratio(tap.remote_transfers, transfers),
        "net.fabric.nic_wait_ms_per_request": ratio(tap.nic_wait * 1e3,
                                                    issued),
        "net.fabric.host_us_per_transfer": ratio(
            stat("net.fabric.transfer", "self_s") * 1e6, transfers),
        "sim.resources.grants_per_request": ratio(grants, issued),
        "sim.resources.queued_share": ratio(tap.queued_grants, grants),
        "core.deployment.spans_per_request": ratio(counts["spans"],
                                                   issued),
        "core.deployment.host_us_per_request": ratio(
            layer_self["core.deployment"] * 1e6, issued),
        "resilience.attempts_per_rpc": ratio(attempts, rpcs),
        "resilience.retries_per_request": ratio(stats["retries"], issued),
        "resilience.useful_attempt_ratio": ratio(tap.useful_rpcs,
                                                 attempts),
        "resilience.timeouts": stats["timeouts"],
        "resilience.deadline_aborts": stats["deadline_aborts"],
        "cluster.health.probes_per_sim_s": ratio(counts["probes"],
                                                 sim_seconds),
        "cluster.health.detection_s": detection_s,
        "tracing.collector.host_us_per_trace": ratio(
            stat("tracing.collector.collect", "total_s") * 1e6, traces),
        "tracing.collector.stored_traces": collector.total_stored,
        "obs.registry.scrapes": scrapes,
        "obs.registry.host_ms_per_scrape": ratio(
            stat("obs.registry.scrape", "total_s") * 1e3, scrapes),
    }
    for layer in sorted(set(SPAN_LAYER.values())):
        metrics[f"{layer}.self_share"] = ratio(layer_self[layer], run_wall)
    return metrics
