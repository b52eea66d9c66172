"""OTLP-model export for spans and metrics — no OpenTelemetry required.

Builds plain dicts shaped like OTLP/JSON (the ``ExportTraceServiceRequest``
/ ``ExportMetricsServiceRequest`` protobuf JSON mapping), so any OTLP
collector's HTTP/JSON endpoint — or plain ``json.dumps`` — can consume
them without this repo depending on the ``opentelemetry`` packages.

Like the Chrome-trace exporter, the output is schema-checked in-repo:
:func:`validate_otlp` returns the list of structural problems a
collector would reject the payload for (empty list == valid), and the
test suite runs it over real session output.

Determinism: trace/span ids are derived from the service name and the
tracer's sequential span ids — not random — so the same run produces the
same payload byte-for-byte.
"""

from __future__ import annotations

import hashlib

from repro.errors import ConfigError

#: OTLP enum values (protobuf JSON mapping uses the integers).
SPAN_KIND_INTERNAL = 1
AGGREGATION_TEMPORALITY_CUMULATIVE = 2

_SCOPE = {"name": "repro.telemetry", "version": "1"}


def _trace_id(service_name: str) -> str:
    """Deterministic 16-byte trace id for one exported session."""
    return hashlib.sha256(service_name.encode()).hexdigest()[:32]


def _span_id(span_id: int) -> str:
    """Deterministic non-zero 8-byte span id from the tracer's counter."""
    return format(int(span_id) + 1, "016x")


def _any_value(value) -> dict:
    """Python scalar/collection -> OTLP ``AnyValue``."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    if isinstance(value, (list, tuple)):
        return {"arrayValue": {"values": [_any_value(v) for v in value]}}
    if isinstance(value, dict):
        return {
            "kvlistValue": {
                "values": [
                    {"key": str(k), "value": _any_value(v)}
                    for k, v in value.items()
                ]
            }
        }
    return {"stringValue": str(value)}


def _attributes(mapping: dict) -> list[dict]:
    return [
        {"key": str(key), "value": _any_value(value)}
        for key, value in mapping.items()
    ]


def _resource(service_name: str) -> dict:
    return {"attributes": _attributes({"service.name": service_name})}


def _nanos(seconds: float) -> str:
    """OTLP encodes uint64 nanosecond timestamps as decimal strings."""
    return str(max(0, int(round(seconds * 1e9))))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def spans_to_otlp(
    records, service_name: str = "repro", epoch_s: float = 0.0
) -> dict:
    """Finished :class:`~repro.telemetry.tracer.SpanRecord` list -> OTLP.

    ``epoch_s`` shifts the tracer's relative clock to an absolute one
    (pass a wall-clock epoch to line spans up with other services; the
    default keeps the run's own zero).
    """
    trace_id = _trace_id(service_name)
    spans = []
    for record in records:
        attrs = dict(record.attrs)
        attrs["thread"] = record.thread
        if record.counters is not None:
            attrs["counters"] = dict(record.counters)
        span = {
            "traceId": trace_id,
            "spanId": _span_id(record.span_id),
            "name": record.name,
            "kind": SPAN_KIND_INTERNAL,
            "startTimeUnixNano": _nanos(epoch_s + record.start_s),
            "endTimeUnixNano": _nanos(
                epoch_s + record.start_s + record.duration_s
            ),
            "attributes": _attributes(attrs),
        }
        if record.parent_id is not None:
            span["parentSpanId"] = _span_id(record.parent_id)
        spans.append(span)
    return {
        "resourceSpans": [
            {
                "resource": _resource(service_name),
                "scopeSpans": [{"scope": dict(_SCOPE), "spans": spans}],
            }
        ]
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _number_point(value: float, attributes: list[dict]) -> dict:
    point: dict = {"timeUnixNano": "0", "attributes": attributes}
    if isinstance(value, float) and not value.is_integer():
        point["asDouble"] = value
    else:
        point["asInt"] = str(int(value))
    return point


def metrics_to_otlp(registry, service_name: str = "repro") -> dict:
    """A :class:`~repro.telemetry.metrics.MetricsRegistry` -> OTLP.

    Counters become cumulative monotonic sums, gauges become gauges
    (their last value; timed samples stay in the snapshot exporter),
    histograms become cumulative histogram data points.
    """
    by_name: dict[str, list] = {}
    for instrument in registry.instruments():
        by_name.setdefault(instrument.name, []).append(instrument)
    metrics = []
    for name in sorted(by_name):
        family = by_name[name]
        first = family[0]
        metric: dict = {"name": name, "description": first.help, "unit": ""}
        if first.kind == "counter":
            metric["sum"] = {
                "dataPoints": [
                    _number_point(inst.value, _attributes(dict(inst.labels)))
                    for inst in family
                ],
                "aggregationTemporality": AGGREGATION_TEMPORALITY_CUMULATIVE,
                "isMonotonic": True,
            }
        elif first.kind == "gauge":
            metric["gauge"] = {
                "dataPoints": [
                    _number_point(inst.value, _attributes(dict(inst.labels)))
                    for inst in family
                ]
            }
        elif first.kind == "histogram":
            points = []
            for inst in family:
                bucket_counts, total_sum, total_count = inst.snapshot()
                overflow = total_count - sum(bucket_counts)
                points.append(
                    {
                        "timeUnixNano": "0",
                        "attributes": _attributes(dict(inst.labels)),
                        "count": str(total_count),
                        "sum": total_sum,
                        "bucketCounts": [
                            str(c) for c in bucket_counts + [overflow]
                        ],
                        "explicitBounds": list(inst.bounds),
                    }
                )
            metric["histogram"] = {
                "dataPoints": points,
                "aggregationTemporality": AGGREGATION_TEMPORALITY_CUMULATIVE,
            }
        else:  # pragma: no cover - registry only creates the three kinds
            raise ConfigError(f"unexportable instrument kind {first.kind!r}")
        metrics.append(metric)
    return {
        "resourceMetrics": [
            {
                "resource": _resource(service_name),
                "scopeMetrics": [{"scope": dict(_SCOPE), "metrics": metrics}],
            }
        ]
    }


# ----------------------------------------------------------------------
# Schema check
# ----------------------------------------------------------------------
def _check_attributes(attrs, where: str, problems: list[str]) -> None:
    if not isinstance(attrs, list):
        problems.append(f"{where}: attributes must be a list")
        return
    for j, kv in enumerate(attrs):
        if (
            not isinstance(kv, dict)
            or not isinstance(kv.get("key"), str)
            or not isinstance(kv.get("value"), dict)
            or len(kv["value"]) != 1
        ):
            problems.append(
                f"{where}.attributes[{j}]: need {{key, value: {{<oneof>}}}}"
            )


def _is_hex(value, width: int) -> bool:
    if not isinstance(value, str) or len(value) != width:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def _check_nano(value, where: str, key: str, problems: list[str]) -> None:
    if not isinstance(value, str) or not value.isdigit():
        problems.append(f"{where}: {key} must be a decimal-string uint64")


def validate_otlp(doc) -> list[str]:
    """Structural schema check for an OTLP-model document.

    Returns a list of problems (empty == valid).  Accepts span payloads
    (``resourceSpans``), metric payloads (``resourceMetrics``), or a
    combined document; checks the constraints an OTLP/JSON collector
    enforces: hex trace/span ids of the right width, decimal-string
    nanosecond timestamps with ``end >= start``, well-formed attribute
    key/value pairs, and exactly one data oneof per metric.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be a JSON object, got {type(doc).__name__}"]
    if "resourceSpans" not in doc and "resourceMetrics" not in doc:
        return ["need resourceSpans and/or resourceMetrics"]

    for r, rs in enumerate(doc.get("resourceSpans", [])):
        for s, scope in enumerate(rs.get("scopeSpans", [])):
            for i, span in enumerate(scope.get("spans", [])):
                where = f"resourceSpans[{r}].scopeSpans[{s}].spans[{i}]"
                if not isinstance(span, dict):
                    problems.append(f"{where}: not an object")
                    continue
                if not isinstance(span.get("name"), str) or not span["name"]:
                    problems.append(f"{where}: missing/empty name")
                if not _is_hex(span.get("traceId"), 32):
                    problems.append(f"{where}: traceId must be 32 hex chars")
                if not _is_hex(span.get("spanId"), 16):
                    problems.append(f"{where}: spanId must be 16 hex chars")
                if "parentSpanId" in span and not _is_hex(
                    span["parentSpanId"], 16
                ):
                    problems.append(
                        f"{where}: parentSpanId must be 16 hex chars"
                    )
                for key in ("startTimeUnixNano", "endTimeUnixNano"):
                    _check_nano(span.get(key), where, key, problems)
                start, end = span.get("startTimeUnixNano"), span.get(
                    "endTimeUnixNano"
                )
                if (
                    isinstance(start, str)
                    and isinstance(end, str)
                    and start.isdigit()
                    and end.isdigit()
                    and int(end) < int(start)
                ):
                    problems.append(f"{where}: span ends before it starts")
                _check_attributes(span.get("attributes", []), where, problems)

    for r, rm in enumerate(doc.get("resourceMetrics", [])):
        for s, scope in enumerate(rm.get("scopeMetrics", [])):
            for i, metric in enumerate(scope.get("metrics", [])):
                where = f"resourceMetrics[{r}].scopeMetrics[{s}].metrics[{i}]"
                if not isinstance(metric, dict):
                    problems.append(f"{where}: not an object")
                    continue
                if not isinstance(metric.get("name"), str) or not metric["name"]:
                    problems.append(f"{where}: missing/empty name")
                oneof = [
                    k for k in ("sum", "gauge", "histogram") if k in metric
                ]
                if len(oneof) != 1:
                    problems.append(
                        f"{where}: need exactly one of sum/gauge/histogram, "
                        f"got {oneof}"
                    )
                    continue
                data = metric[oneof[0]]
                points = data.get("dataPoints")
                if not isinstance(points, list):
                    problems.append(f"{where}.{oneof[0]}: dataPoints missing")
                    continue
                for j, point in enumerate(points):
                    pwhere = f"{where}.{oneof[0]}.dataPoints[{j}]"
                    if not isinstance(point, dict):
                        problems.append(f"{pwhere}: not an object")
                        continue
                    _check_attributes(
                        point.get("attributes", []), pwhere, problems
                    )
                    if oneof[0] == "histogram":
                        counts = point.get("bucketCounts", [])
                        bounds = point.get("explicitBounds", [])
                        if len(counts) != len(bounds) + 1:
                            problems.append(
                                f"{pwhere}: need len(bucketCounts) == "
                                "len(explicitBounds) + 1"
                            )
                    elif "asInt" not in point and "asDouble" not in point:
                        problems.append(f"{pwhere}: need asInt or asDouble")
    return problems
