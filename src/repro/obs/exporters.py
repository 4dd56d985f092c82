"""Standard telemetry exports: Prometheus text and OTLP-style JSON.

Two portable artifacts so a run's telemetry can be archived, diffed
between configurations, or loaded into external tooling:

* :func:`to_prometheus_text` — the Prometheus/OpenMetrics text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), rendering
  the registry's current counter, gauge, and histogram values.
* :func:`traces_to_otlp_json` — an OTLP-shaped JSON trace dump
  (``resourceSpans`` → ``scopeSpans`` → spans with hex trace/span ids,
  nanosecond sim timestamps, attributes, and a status code), which
  Jaeger imports and :func:`otlp_json_to_traces` reads back.  It is
  the suite's one trace format: ``simulate --traces-out`` writes it
  and ``synth clone`` reads it.

Both renderings iterate insertion-ordered structures only and contain
no wall-clock values, so two same-seed runs export byte-identical
artifacts (the determinism regression relies on this).
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List

from ..resilience.status import STATUS_OK
from ..tracing.span import Span, Trace
from .registry import MetricsRegistry

__all__ = ["to_prometheus_text", "traces_to_otlp_json",
           "otlp_json_to_traces"]


def _fmt(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(text: str) -> str:
    return (text.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_text(labels, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def to_prometheus_text(registry: MetricsRegistry,
                       now: float = None) -> str:
    """Render the registry in Prometheus text exposition format.

    ``now`` (sim seconds) refreshes collect hooks before rendering so
    mirrored gauges are current; pass ``env.now`` at the end of a run.
    """
    if now is not None:
        registry.run_collect_hooks(now)
    lines: List[str] = []
    for family in registry.families():
        if not family.children:
            continue
        if family.help:
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for child in family.children.values():
            if family.kind == "histogram":
                cumulative = 0
                bounds = [_fmt(b) for b in child.bounds] + ["+Inf"]
                for le, count in zip(bounds, child.counts):
                    cumulative += count
                    le_attr = 'le="' + le + '"'
                    lines.append(
                        family.name + "_bucket"
                        + _label_text(child.labels, le_attr)
                        + " " + str(cumulative))
                lines.append(f"{family.name}_sum"
                             f"{_label_text(child.labels)}"
                             f" {_fmt(child.total)}")
                lines.append(f"{family.name}_count"
                             f"{_label_text(child.labels)}"
                             f" {child.count}")
            else:
                lines.append(f"{family.name}"
                             f"{_label_text(child.labels)}"
                             f" {_fmt(child.value)}")
    lines.append("")
    return "\n".join(lines)


_OTLP_STATUS = {
    STATUS_OK: 1,  # STATUS_CODE_OK
}


def _attr(key: str, value) -> dict:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        return {"key": key, "value": {"intValue": str(value)}}
    if isinstance(value, float):
        return {"key": key, "value": {"doubleValue": value}}
    return {"key": key, "value": {"stringValue": str(value)}}


def traces_to_otlp_json(traces: Iterable[Trace],
                        service_namespace: str = "repro",
                        indent: int = None) -> str:
    """Serialize traces as an OTLP/Jaeger-style JSON document.

    Spans are grouped into one ``resourceSpans`` entry per service (the
    OTLP resource = the emitting process), with deterministic hex ids
    derived from trace/span indices and sim-time nanosecond stamps.
    """
    by_service: dict = {}

    def visit(span: Span, trace: Trace, trace_idx: int,
              counter: List[int], parent_hex: str) -> None:
        span_hex = f"{trace_idx:08x}{counter[0]:08x}"
        counter[0] += 1
        record = {
            "traceId": f"{trace_idx:032x}",
            "spanId": span_hex,
            "parentSpanId": parent_hex,
            "name": span.operation,
            "kind": 2,  # SPAN_KIND_SERVER
            "startTimeUnixNano": str(round(span.start * 1e9)),
            "endTimeUnixNano": str(round(span.end * 1e9)),
            "attributes": [
                _attr("repro.status", span.status),
                _attr("repro.retry_count", span.retries),
                _attr("repro.app_time_us",
                      round(span.app_time * 1e6)),
                _attr("repro.net_time_us",
                      round(span.net_time * 1e6)),
                _attr("repro.net_process_time_us",
                      round(span.net_process_time * 1e6)),
                _attr("repro.block_time_us",
                      round(span.block_time * 1e6)),
            ],
            "status": {"code": _OTLP_STATUS.get(span.status, 2)},
        }
        if trace.user is not None:
            record["attributes"].append(_attr("repro.user", trace.user))
        # After-the-fact marks (e.g. the geo front door's failover /
        # stale-read tags); sorted so exports stay byte-identical.
        for key in sorted(span.annotations):
            record["attributes"].append(
                _attr(f"repro.{key}", span.annotations[key]))
        by_service.setdefault(span.service, []).append(record)
        for child in span.children:
            visit(child, trace, trace_idx, counter, span_hex)

    for i, trace in enumerate(traces):
        visit(trace.root, trace, i, [0], "")

    resource_spans = [{
        "resource": {"attributes": [
            _attr("service.name", service),
            _attr("service.namespace", service_namespace),
        ]},
        "scopeSpans": [{
            "scope": {"name": "repro.obs", "version": "1"},
            "spans": spans,
        }],
    } for service, spans in by_service.items()]
    return json.dumps({"resourceSpans": resource_spans}, indent=indent)


def _attr_value(encoded: dict):
    """Decode one OTLP ``AnyValue`` produced by :func:`_attr`."""
    if "boolValue" in encoded:
        return bool(encoded["boolValue"])
    if "intValue" in encoded:
        return int(encoded["intValue"])
    if "doubleValue" in encoded:
        return float(encoded["doubleValue"])
    return encoded.get("stringValue", "")


#: ``repro.*`` span attributes that map to first-class Span fields
#: rather than free-form annotations.
_CORE_ATTRS = frozenset({
    "repro.status", "repro.retry_count", "repro.app_time_us",
    "repro.net_time_us", "repro.net_process_time_us",
    "repro.block_time_us", "repro.user",
})


def otlp_json_to_traces(payload: str) -> List[Trace]:
    """Rebuild traces from :func:`traces_to_otlp_json` output.

    The inverse mapping: span ids are ``{trace_idx:08x}{preorder:08x}``
    so sorting children by id restores dispatch order, and traces sort
    by their 32-hex trace id back into export order.  ``repro.*``
    attributes beyond the core timing/status set become
    :attr:`~repro.tracing.span.Span.annotations` again (prefix
    stripped); microsecond-rounded timing attributes come back as
    exported, so re-exporting is byte-identical while sub-microsecond
    residue stays lost (documented one-way rounding).
    """
    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError("an OTLP trace document is a JSON object")
    spans: dict = {}
    parents: dict = {}
    for resource in data.get("resourceSpans", []):
        service = ""
        for attr in resource.get("resource", {}).get("attributes", []):
            if attr.get("key") == "service.name":
                service = _attr_value(attr.get("value", {}))
        for scope in resource.get("scopeSpans", []):
            for record in scope.get("spans", []):
                attrs = {a["key"]: _attr_value(a.get("value", {}))
                         for a in record.get("attributes", [])}
                annotations = {
                    key[len("repro."):]: value
                    for key, value in attrs.items()
                    if key.startswith("repro.")
                    and key not in _CORE_ATTRS
                }
                span = Span(
                    service=service,
                    operation=record.get("name", ""),
                    start=int(record["startTimeUnixNano"]) / 1e9,
                    end=int(record["endTimeUnixNano"]) / 1e9,
                    app_time=attrs.get("repro.app_time_us", 0) / 1e6,
                    net_time=attrs.get("repro.net_time_us", 0) / 1e6,
                    net_process_time=attrs.get(
                        "repro.net_process_time_us", 0) / 1e6,
                    block_time=attrs.get("repro.block_time_us",
                                         0) / 1e6,
                    status=attrs.get("repro.status", "ok"),
                    retries=attrs.get("repro.retry_count", 0),
                    annotations=annotations,
                )
                key = (record["traceId"], record["spanId"])
                spans[key] = (span, attrs.get("repro.user"))
                parents[key] = record.get("parentSpanId", "")

    children: dict = {}
    roots: dict = {}
    for (trace_id, span_id), parent in parents.items():
        if parent:
            children.setdefault((trace_id, parent), []).append(span_id)
        else:
            roots[trace_id] = span_id

    def attach(trace_id: str, span_id: str) -> Span:
        span, _ = spans[(trace_id, span_id)]
        span.children = [
            attach(trace_id, child)
            for child in sorted(children.get((trace_id, span_id), []))
        ]
        return span

    traces = []
    for trace_id in sorted(roots):
        root, user = spans[(trace_id, roots[trace_id])]
        traces.append(Trace(operation=root.operation,
                            root=attach(trace_id, roots[trace_id]),
                            user=user))
    return traces
