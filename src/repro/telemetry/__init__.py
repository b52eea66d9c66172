"""Tracing, metrics, and structured-event observability.

The measurement substrate for the whole stack: where time, energy, and
repair budget go — per layer, per tile, per step — without perturbing a
single numerical result.  Three sinks, one opt-in session:

- **Span tracer** (:mod:`repro.telemetry.tracer`): nestable, thread-safe
  spans carrying wall time plus hardware-event deltas, exportable to
  Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
  `Perfetto <https://ui.perfetto.dev>`_) and JSONL.
- **Metrics registry** (:mod:`repro.telemetry.metrics`): counters,
  gauges, fixed-bucket histograms; Prometheus text and JSON exporters.
  Spans and metrics also export to OTLP-model dicts
  (:mod:`repro.telemetry.otlp`, schema-checked, no OpenTelemetry
  dependency), and :mod:`repro.telemetry.rollup` provides the always-on
  windowed serving rollups the fleet controller reads.
- **Structured event log** (:mod:`repro.telemetry.events`): timestamped
  machine-parseable records for repairs, rollbacks, NaN aborts,
  checkpoints, and degradation.

Guarantees:

- **Opt-in, near-zero overhead when disabled**: no session → every hook
  is one global read returning a shared no-op
  (``benchmarks/bench_telemetry_overhead.py`` enforces < 2% on the
  batched forward path).
- **Non-perturbing**: hooks only *read* event counters and never touch
  an RNG; telemetry-enabled runs are bit-identical to disabled runs
  (outputs, weights, event counters — property-tested).
- **Checkpoint-safe**: span IDs come from a locked counter and no
  wall-clock value enters any checkpointed state, so the save→load and
  crash-resume bit-identity guarantees of :mod:`repro.runtime` hold with
  tracing on.

Entry points: ``python -m repro trace`` (run a workload, emit
``.trace.json`` + metrics dump), ``--metrics-out`` on ``repro train`` /
``repro faults``, and the :func:`session` context manager for library
use.  :mod:`repro.telemetry.log` wires the ``repro.*`` ``logging``
hierarchy (NullHandler default; the CLI's ``-v``/``--debug`` flags
attach a handler).
"""

from repro.telemetry.events import Event, EventLog, NullEventLog
from repro.telemetry.log import configure_cli_logging, get_logger, reset_cli_logging
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    parse_prometheus_text,
)
from repro.telemetry.otlp import (
    metrics_to_otlp,
    spans_to_otlp,
    validate_otlp,
)
from repro.telemetry.rollup import RollupStats, ServingRollup
from repro.telemetry.session import (
    REPAIR_TIERS,
    WELL_KNOWN_COUNTERS,
    TelemetrySession,
    active,
    counter,
    disable,
    emit_event,
    enable,
    enabled,
    gauge,
    histogram,
    session,
    trace_span,
)
from repro.telemetry.snapshot import HardwareDelta, HardwareSnapshot
from repro.telemetry.tracer import (
    NullTracer,
    SpanRecord,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "HardwareDelta",
    "HardwareSnapshot",
    "Histogram",
    "MetricsRegistry",
    "NullEventLog",
    "NullMetrics",
    "NullTracer",
    "REPAIR_TIERS",
    "RollupStats",
    "ServingRollup",
    "SpanRecord",
    "TelemetrySession",
    "Tracer",
    "WELL_KNOWN_COUNTERS",
    "active",
    "configure_cli_logging",
    "counter",
    "disable",
    "emit_event",
    "enable",
    "enabled",
    "gauge",
    "get_logger",
    "histogram",
    "metrics_to_otlp",
    "parse_prometheus_text",
    "reset_cli_logging",
    "session",
    "spans_to_otlp",
    "trace_span",
    "validate_chrome_trace",
    "validate_otlp",
]
