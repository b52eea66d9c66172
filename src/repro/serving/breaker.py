"""Per-worker circuit breaker driven by fault-manager health.

Standard three-state breaker, virtual-time native:

- **CLOSED** — traffic flows.  Consecutive batch failures count up;
  crossing ``failure_threshold`` (or an explicit health-signal trip —
  ``unconverged_fraction`` over threshold) opens the circuit.
- **OPEN** — the worker is quarantined.  After ``cooldown_s`` of virtual
  time the next ``allow`` poll moves to half-open.
- **HALF_OPEN** — exactly one probe batch is allowed through (the server
  attempts a :class:`~repro.faults.FaultManager` repair first).  Success
  closes the circuit; failure re-opens it and restarts the cooldown.

Every transition flows through the ``on_transition`` callback, which the
server uses to emit telemetry events/counters and append to the decision
log — trips and restores are observable, never silent.
"""

from __future__ import annotations

import enum

from repro.errors import ServingError


class BreakerState(enum.Enum):
    """Circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker over one worker, on virtual time."""

    def __init__(
        self,
        worker_id: int,
        failure_threshold: int = 3,
        cooldown_s: float = 1e-3,
        on_transition=None,
    ) -> None:
        if failure_threshold < 1:
            raise ServingError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s <= 0:
            raise ServingError(f"cooldown must be positive, got {cooldown_s}")
        self.worker_id = worker_id
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: float | None = None
        self._probe_floor_s = float("-inf")
        self._on_transition = on_transition

    # ------------------------------------------------------------------
    def _transition(self, now_s: float, to: BreakerState, reason: str) -> None:
        if to is self.state:
            return
        before, self.state = self.state, to
        if to is BreakerState.OPEN:
            # Probe scheduling is monotone: a forced trip carrying a
            # stale timestamp (e.g. a chaos storm firing against a
            # breaker that already probed at a later instant) must never
            # move next_probe_s() backward, or the event loop would
            # schedule a probe in its own past.
            self.opened_at_s = max(now_s, self._probe_floor_s - self.cooldown_s)
            self._probe_floor_s = self.opened_at_s + self.cooldown_s
        if self._on_transition is not None:
            self._on_transition(now_s, self.worker_id, before, to, reason)

    # ------------------------------------------------------------------
    def allow(self, now_s: float) -> bool:
        """May this worker take a batch at ``now_s``?

        Polling an OPEN breaker whose cooldown has elapsed performs the
        OPEN -> HALF_OPEN transition (the probe opportunity).
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            # Same arithmetic as next_probe_s(): an event loop that
            # advances exactly to the probe instant must be allowed
            # through (now - opened >= cooldown can differ in floats).
            if now_s >= self.opened_at_s + self.cooldown_s:
                self._transition(now_s, BreakerState.HALF_OPEN, "cooldown_elapsed")
                return True
            return False
        return True  # HALF_OPEN: the single probe (worker busy gates reentry)

    def next_probe_s(self) -> float | None:
        """When an OPEN breaker becomes probeable (None unless OPEN)."""
        if self.state is not BreakerState.OPEN:
            return None
        return self.opened_at_s + self.cooldown_s

    # ------------------------------------------------------------------
    def record_success(self, now_s: float) -> None:
        """A batch (or probe) completed cleanly."""
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(now_s, BreakerState.CLOSED, "probe_succeeded")

    def record_failure(self, now_s: float) -> None:
        """A batch (or probe) failed on this worker."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(now_s, BreakerState.OPEN, "probe_failed")
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._transition(now_s, BreakerState.OPEN, "failure_threshold")

    def trip(self, now_s: float, reason: str) -> None:
        """Open immediately on an out-of-band health signal."""
        if self.state is not BreakerState.OPEN:
            self._transition(now_s, BreakerState.OPEN, reason)


def trip_and_restore(transitions, **match) -> tuple[bool, bool]:
    """(tripped, restored) over breaker transition records.

    Tripped: some breaker opened.  Restored: some breaker closed again
    through a successful half-open probe.  ``match`` keeps only records
    whose fields equal the given values (e.g. ``worker=0``, ``stage=1``).
    """
    records = [
        t for t in transitions
        if all(t.get(key) == value for key, value in match.items())
    ]
    tripped = any(t["to"] == "open" for t in records)
    restored = any(
        t["to"] == "closed" and t["reason"] == "probe_succeeded"
        for t in records
    )
    return tripped, restored
