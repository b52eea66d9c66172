"""Counters, gauges, and fixed-bucket histograms with Prometheus export.

A :class:`MetricsRegistry` hands out instruments keyed by ``(name,
labels)`` — asking twice returns the same instrument — and renders the
whole population as Prometheus text exposition format
(:meth:`~MetricsRegistry.to_prometheus`) or JSON
(:meth:`~MetricsRegistry.to_json`).  Instruments are deliberately simple:
no timestamps, no background threads, no randomness — updating a metric
can never perturb a seeded simulation.

Histograms use *fixed* bucket bounds chosen at creation (cumulative
``le`` semantics, ``+Inf`` implicit), so two runs observing the same
values render byte-identical dumps.

Lock granularity: the registry lock covers *lookup/creation only*.
Updates (``inc``/``set``/``observe``) take the instrument's own lock —
a few-instruction critical section with no cross-instrument contention —
so serving worker threads hammering disjoint instruments never serialize
against each other, and read-modify-write updates (counter adds,
histogram sum/count/bucket triples) stay atomic under concurrency.

:func:`parse_prometheus_text` is the self-check half: the CI smoke gate
parses every dump it emits, so a formatting regression fails loudly.
"""

from __future__ import annotations

import math
import re
import threading
from pathlib import Path

from repro.errors import ConfigError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds — log-spaced to cover losses,
#: seconds, and joules alike.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 100.0
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ConfigError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: dict) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ConfigError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "value", "_lock")

    def __init__(self, name: str, labels: tuple, help: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self.value += amount


#: Timed gauge samples kept per instrument (oldest dropped beyond this).
GAUGE_SAMPLE_LIMIT = 4096


class Gauge:
    """Last-write-wins value, optionally carrying timed samples.

    :meth:`set_at` records ``(t_s, value)`` pairs alongside the live
    value (bounded at :data:`GAUGE_SAMPLE_LIMIT`, oldest dropped), which
    is how live power-trace streaming lands in the metrics registry: the
    Prometheus export shows the latest value, the JSON export carries
    the whole sampled series.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "value", "_samples", "_lock")

    def __init__(self, name: str, labels: tuple, help: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0
        self._samples: list[tuple[float, float]] = []
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        value = float(value)
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount

    def set_at(self, value: float, t_s: float) -> None:
        """Set the value and record a ``(t_s, value)`` timed sample."""
        value, t_s = float(value), float(t_s)
        with self._lock:
            self.value = value
            self._samples.append((t_s, value))
            if len(self._samples) > GAUGE_SAMPLE_LIMIT:
                del self._samples[: len(self._samples) - GAUGE_SAMPLE_LIMIT]

    def samples(self) -> tuple[tuple[float, float], ...]:
        """Timed ``(t_s, value)`` samples recorded via :meth:`set_at`."""
        with self._lock:
            return tuple(self._samples)


class Histogram:
    """Fixed-bucket distribution (cumulative ``le`` buckets + sum/count)."""

    kind = "histogram"
    __slots__ = (
        "name", "labels", "help", "bounds", "bucket_counts", "sum", "count",
        "_lock",
    )

    def __init__(
        self, name: str, labels: tuple, help: str, buckets=DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError(
                f"histogram {name} buckets must be strictly increasing, got {buckets}"
            )
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        # Bucket search happens outside the lock (bounds are immutable);
        # the sum/count/bucket triple updates atomically inside it so a
        # concurrent export never sees a torn sample.
        index = None
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.sum += value
            self.count += 1
            # Per-bucket (non-cumulative) storage; the Prometheus exporter
            # accumulates into the format's cumulative ``le`` semantics.
            if index is not None:
                self.bucket_counts[index] += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """Consistent ``(bucket_counts, sum, count)`` under the lock."""
        with self._lock:
            return list(self.bucket_counts), self.sum, self.count


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_at(self, value: float, t_s: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Thread-safe get-or-create registry of instruments."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (name, labels) -> instrument, in creation order.
        self._instruments: dict[tuple, object] = {}

    def _get_or_create(self, cls, name, labels, help, **kwargs):
        key = (_check_name(name), _check_labels(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(key[0], key[1], help, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ConfigError(
                    f"metric {name} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """Get or create a histogram with fixed bucket bounds."""
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    def instruments(self) -> list:
        """All registered instruments, in creation order."""
        with self._lock:
            return list(self._instruments.values())

    # -- exports -------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        by_name: dict[str, list] = {}
        for instrument in self.instruments():
            by_name.setdefault(instrument.name, []).append(instrument)
        lines: list[str] = []
        for name in sorted(by_name):
            family = by_name[name]
            first = family[0]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            lines.append(f"# TYPE {name} {first.kind}")
            for inst in family:
                labels = _format_labels(inst.labels)
                if isinstance(inst, Histogram):
                    bucket_counts, total_sum, total_count = inst.snapshot()
                    cumulative = 0
                    for bound, count in zip(inst.bounds, bucket_counts):
                        cumulative += count
                        le = dict(inst.labels)
                        le["le"] = _format_value(bound)
                        lines.append(
                            f"{name}_bucket{_format_labels(_check_labels(le))} "
                            f"{cumulative}"
                        )
                    le = dict(inst.labels)
                    le["le"] = "+Inf"
                    lines.append(
                        f"{name}_bucket{_format_labels(_check_labels(le))} "
                        f"{total_count}"
                    )
                    lines.append(f"{name}_sum{labels} {_format_value(total_sum)}")
                    lines.append(f"{name}_count{labels} {total_count}")
                else:
                    lines.append(f"{name}{labels} {_format_value(inst.value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """JSON-shaped dump: one record per instrument."""
        out = []
        for inst in self.instruments():
            record = {
                "name": inst.name,
                "kind": inst.kind,
                "labels": dict(inst.labels),
                "help": inst.help,
            }
            if isinstance(inst, Histogram):
                bucket_counts, total_sum, total_count = inst.snapshot()
                record["buckets"] = list(inst.bounds)
                record["bucket_counts"] = bucket_counts
                record["sum"] = total_sum
                record["count"] = total_count
            else:
                record["value"] = inst.value
                if isinstance(inst, Gauge):
                    samples = inst.samples()
                    if samples:
                        record["samples"] = [[t, v] for t, v in samples]
            out.append(record)
        return {"metrics": out}

    def write_prometheus(self, path: str | Path) -> Path:
        """Write :meth:`to_prometheus` to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_prometheus(), encoding="utf-8")
        return path


class NullMetrics:
    """Disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels
    ) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return NULL_INSTRUMENT


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse Prometheus exposition text into ``{sample_key: value}``.

    The sample key is ``name`` or ``name{label="v",...}`` exactly as
    rendered.  Raises :class:`ValueError` on any malformed line — the CI
    smoke gate uses this as a round-trip check on emitted dumps.
    """
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        raw = match.group("value")
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {raw!r}") from exc
        samples[match.group("name") + (match.group("labels") or "")] = value
    return samples
