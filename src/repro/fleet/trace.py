"""Seeded diurnal + bursty multi-tenant arrival-trace generation.

The fleet control plane is exercised against an open-loop trace shaped
like real edge-serving traffic: a diurnal sinusoid (trough at the start
and end of the horizon, peak in the middle), multiplicative burst
windows stacked on top, and a tenant mix in which each arrival carries a
tenant name, priority tier, deadline policy, and traffic class
(``infer`` or ``train``).

Rates are expressed as *multiples of one worker's sustainable full-batch
rate* (``unit_rate_hz``), so the same config scales from a 2-worker
smoke run to a several-hundred-worker fleet without retuning: a
``base_rate_x`` of 2.0 means the mean offered load equals two workers'
worth of capacity.

Arrivals are drawn by thinning a homogeneous Poisson process at the
envelope rate — the standard exact sampler for a non-homogeneous Poisson
process — from a single seeded generator, so a (config, seed,
unit_rate) triple always produces the identical request list, which is
what the fleet replay gate leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.request import InferenceRequest


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract."""

    name: str
    #: Relative share of arrivals (normalized across tenants).
    weight: float
    #: Priority tier every request from this tenant carries.
    priority: int = 0
    #: Fraction of this tenant's requests carrying a hard deadline.
    deadline_fraction: float = 0.9
    #: Traffic class — degraded mode freezes ``"train"`` before brownout.
    kind: str = "infer"

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("tenant needs a non-empty name")
        if self.weight <= 0:
            raise ServingError(f"tenant {self.name}: weight must be positive")
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ServingError(
                f"tenant {self.name}: deadline fraction must be in [0, 1]"
            )
        if self.kind not in ("infer", "train"):
            raise ServingError(
                f"tenant {self.name}: kind must be 'infer' or 'train', "
                f"got {self.kind!r}"
            )


@dataclass(frozen=True)
class Burst:
    """A multiplicative surge window on top of the diurnal curve."""

    start_s: float
    duration_s: float
    gain: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ServingError("burst window must be positive and start >= 0")
        if self.gain < 1.0:
            raise ServingError(f"burst gain must be >= 1, got {self.gain}")

    @property
    def end_s(self) -> float:
        """Instant the burst window closes [s]."""
        return self.start_s + self.duration_s

    def active(self, t_s: float) -> bool:
        """Whether ``t_s`` falls inside the half-open burst window."""
        return self.start_s <= t_s < self.end_s


#: The tenant mix every trace draws from.
DEFAULT_TENANTS = (
    TenantSpec("free", weight=0.55, priority=0, deadline_fraction=0.9),
    TenantSpec("pro", weight=0.30, priority=1, deadline_fraction=0.95),
    TenantSpec(
        "train", weight=0.10, priority=0, deadline_fraction=0.0, kind="train"
    ),
    TenantSpec("enterprise", weight=0.05, priority=2, deadline_fraction=1.0),
)


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one diurnal + burst multi-tenant trace.

    All times are virtual seconds; all rates are multiples of
    ``unit_rate_hz`` (one worker's sustainable full-batch throughput),
    resolved at synthesis time.
    """

    duration_s: float
    #: Mean offered load, in worker-equivalents.
    base_rate_x: float
    #: Diurnal modulation depth in [0, 1): rate spans
    #: ``base * (1 - amp)`` (trough) to ``base * (1 + amp)`` (peak) over
    #: one day-cycle of ``duration_s`` (trough at both ends, peak
    #: mid-horizon).
    diurnal_amplitude: float = 0.8
    bursts: tuple[Burst, ...] = ()
    seed: int = 0
    #: Hard cap on synthesized arrivals (guards a mistyped rate).
    max_requests: int = 2_000_000

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ServingError("trace duration must be positive")
        if self.base_rate_x <= 0:
            raise ServingError("base rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ServingError(
                f"diurnal amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        for burst in self.bursts:
            if burst.start_s >= self.duration_s:
                raise ServingError(
                    f"burst at {burst.start_s:g}s starts past the trace end"
                )

    # -- rate envelope -------------------------------------------------
    def rate_x(self, t_s: float) -> float:
        """Offered load at ``t_s`` in worker-equivalents."""
        diurnal = 1.0 - self.diurnal_amplitude * math.cos(
            2.0 * math.pi * t_s / self.duration_s
        )
        gain = 1.0
        for burst in self.bursts:
            if burst.active(t_s):
                gain *= burst.gain
        return self.base_rate_x * diurnal * gain

    def peak_rate_x(self) -> float:
        """Upper envelope of :meth:`rate_x` (the thinning bound)."""
        gain = 1.0
        for burst in self.bursts:
            gain = max(gain, burst.gain)
        return self.base_rate_x * (1.0 + self.diurnal_amplitude) * gain

    def peak_window(self) -> tuple[float, float]:
        """The window the smoke gate grades p99 over: the first burst,
        or the middle fifth of the horizon when no burst is configured."""
        if self.bursts:
            burst = self.bursts[0]
            return burst.start_s, min(burst.end_s, self.duration_s)
        return 0.4 * self.duration_s, 0.6 * self.duration_s


def synthesize_trace(
    config: TraceConfig, unit_rate_hz: float, n_in: int, slo_latency_s: float
) -> list[InferenceRequest]:
    """Draw the full arrival list for one trace.

    ``unit_rate_hz`` converts worker-equivalents to requests/s; ``n_in``
    sizes the input vectors; ``slo_latency_s`` is the latency budget
    deadlines are derived from (``arrival + slo``).
    """
    if unit_rate_hz <= 0:
        raise ServingError("unit rate must be positive")
    rng = np.random.default_rng(config.seed)
    weights = np.array([t.weight for t in DEFAULT_TENANTS], dtype=float)
    weights /= weights.sum()
    envelope_hz = config.peak_rate_x() * unit_rate_hz
    requests: list[InferenceRequest] = []
    t = 0.0
    request_id = 0
    while True:
        t += float(rng.exponential(1.0 / envelope_hz))
        if t >= config.duration_s:
            break
        # Thinning: accept with probability rate(t) / envelope.
        if float(rng.random()) * envelope_hz > config.rate_x(t) * unit_rate_hz:
            continue
        tenant = DEFAULT_TENANTS[int(rng.choice(len(DEFAULT_TENANTS), p=weights))]
        deadline = (
            t + slo_latency_s
            if float(rng.random()) < tenant.deadline_fraction
            else None
        )
        requests.append(
            InferenceRequest(
                request_id=request_id,
                x=rng.uniform(-1.0, 1.0, n_in),
                arrival_s=t,
                deadline_s=deadline,
                priority=tenant.priority,
                tenant=tenant.name,
                kind=tenant.kind,
            )
        )
        request_id += 1
        if request_id >= config.max_requests:
            raise ServingError(
                f"trace exceeded max_requests={config.max_requests}; "
                "lower base_rate_x or duration_s"
            )
    return requests
