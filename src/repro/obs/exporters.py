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
from typing import Dict, Iterable, List

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


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """A float as ``json.dumps`` writes it (``allow_nan`` spellings)."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _attr_text(key: str, value) -> str:
    """One OTLP ``KeyValue`` as JSON text, typed by the Python value."""
    if isinstance(value, bool):
        encoded = '{"boolValue": ' + ("true" if value else "false") + "}"
    elif isinstance(value, int):
        encoded = '{"intValue": ' + _encode_str(str(value)) + "}"
    elif isinstance(value, float):
        encoded = '{"doubleValue": ' + _float_text(value) + "}"
    else:
        encoded = '{"stringValue": ' + _encode_str(str(value)) + "}"
    return '{"key": ' + _encode_str(key) + ', "value": ' + encoded + "}"


def traces_to_otlp_json(traces: Iterable[Trace],
                        service_namespace: str = "repro",
                        indent: int = None) -> str:
    """Serialize traces as an OTLP/Jaeger-style JSON document.

    Spans are grouped into one ``resourceSpans`` entry per service (the
    OTLP resource = the emitting process), with deterministic hex ids
    derived from trace/span indices and sim-time nanosecond stamps.

    The text is written directly, one preorder pass over every trace,
    and is byte for byte what ``json.dumps`` (default separators, ASCII
    escaping, ``NaN``/``Infinity`` floats) writes for the same nested
    document: ``json.dumps(json.loads(out)) == out``.  With ``indent``
    the compact text is re-indented by ``json.dumps``.
    """
    by_service: Dict[str, List[str]] = {}
    names: Dict[str, str] = {}
    statuses: Dict[str, tuple] = {}
    for trace_idx, trace in enumerate(traces):
        head = f', {{"traceId": "{trace_idx:032x}", "spanId": "'
        prefix = f"{trace_idx:08x}"
        user = ("" if trace.user is None
                else ", " + _attr_text("repro.user", trace.user))
        counter = 0
        stack = [(trace.root, "")]
        while stack:
            span, parent = stack.pop()
            span_id = f"{prefix}{counter:08x}"
            counter += 1
            name = names.get(span.operation)
            if name is None:
                name = names[span.operation] = _encode_str(span.operation)
            status = span.status
            # Keyed by str only: True, 1 and 1.0 would share a key.
            cached = statuses.get(status) if type(status) is str else None
            if cached is None:
                cached = (_attr_text("repro.status", status),
                          1 if status == STATUS_OK else 2)
                if type(status) is str:
                    statuses[status] = cached
            status_attr, code = cached
            retries = span.retries
            retry = (f'{{"key": "repro.retry_count", "value": '
                     f'{{"intValue": "{retries}"}}}}'
                     if type(retries) is int
                     else _attr_text("repro.retry_count", retries))
            extra = user
            annotations = span.annotations
            if annotations:
                # After-the-fact marks (e.g. the geo front door's
                # failover / stale-read tags); sorted so exports stay
                # byte-identical.
                extra += "".join(
                    ", " + _attr_text(f"repro.{key}", annotations[key])
                    for key in sorted(annotations))
            record = (
                f'{head}{span_id}", "parentSpanId": "{parent}", '
                f'"name": {name}, "kind": 2, '
                f'"startTimeUnixNano": "{round(span.start * 1e9)}", '
                f'"endTimeUnixNano": "{round(span.end * 1e9)}", '
                f'"attributes": [{status_attr}, {retry}, '
                f'{{"key": "repro.app_time_us", "value": '
                f'{{"intValue": "{round(span.app_time * 1e6)}"}}}}, '
                f'{{"key": "repro.net_time_us", "value": '
                f'{{"intValue": "{round(span.net_time * 1e6)}"}}}}, '
                f'{{"key": "repro.net_process_time_us", "value": '
                f'{{"intValue": "{round(span.net_process_time * 1e6)}"}}}}, '
                f'{{"key": "repro.block_time_us", "value": '
                f'{{"intValue": "{round(span.block_time * 1e6)}"}}}}'
                f'{extra}], "status": {{"code": {code}}}}}')
            fragments = by_service.get(span.service)
            if fragments is None:
                fragments = by_service[span.service] = []
            fragments.append(record)
            children = span.children
            if children:
                stack.extend((child, span_id)
                             for child in reversed(children))

    scope = ('"scopeSpans": [{"scope": {"name": "repro.obs", '
             '"version": "1"}, "spans": [')
    namespace = _attr_text("service.namespace", service_namespace)
    parts = ['{"resourceSpans": [']
    for service, fragments in by_service.items():
        # Every record starts with its ", " separator; the first
        # record of a service drops it.
        fragments[0] = fragments[0][2:]
        parts.append(
            '{"resource": {"attributes": ['
            f'{_attr_text("service.name", service)}, {namespace}]}}, '
            + scope)
        parts.extend(fragments)
        parts.append("]}]}, ")
    if by_service:
        parts[-1] = "]}]}"
    parts.append("]}")
    text = "".join(parts)
    if indent is not None:
        return json.dumps(json.loads(text), indent=indent)
    return text


def _attr_value(encoded: dict):
    """Decode one OTLP ``AnyValue`` written by :func:`_attr_text`."""
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


def _required(record: dict, field: str):
    """A span field the import cannot do without."""
    try:
        return record[field]
    except KeyError:
        raise ValueError(f"span {record.get('name', '')!r} has no "
                         f"{field!r}") from None


def otlp_json_to_traces(payload: str) -> List[Trace]:
    """Rebuild traces from :func:`traces_to_otlp_json` output.

    The inverse mapping: span ids are ``{trace_idx:08x}{preorder:08x}``
    so sorting children by id restores dispatch order, and traces sort
    by their 32-hex trace id back into export order.  ``repro.*``
    attributes beyond the core timing/status set become
    :attr:`~repro.tracing.span.Span.annotations` again (prefix
    stripped); microsecond-rounded timing attributes come back as
    exported, so re-exporting is byte-identical while sub-microsecond
    residue stays lost (documented one-way rounding).  A span without
    its ids or stamps, or with a name that is not a string, raises
    :class:`ValueError` naming the field.
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
                name = record.get("name", "")
                if not isinstance(name, str):
                    raise ValueError(f"span name {name!r} is not a string")
                span = Span(
                    service=service,
                    operation=name,
                    start=int(_required(record,
                                        "startTimeUnixNano")) / 1e9,
                    end=int(_required(record, "endTimeUnixNano")) / 1e9,
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
                key = (_required(record, "traceId"),
                       _required(record, "spanId"))
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
