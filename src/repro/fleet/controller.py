"""The closed-loop fleet controller: observe rollups, actuate knobs.

Every control decision runs *inside* the serving event loop, as a
recurring :meth:`~repro.serving.server.TridentServer.schedule_action`
tick on the virtual clock.  Each tick reads the always-on
:class:`~repro.telemetry.rollup.ServingRollup` (never the opt-in
telemetry session — decisions must not depend on whether tracing is
enabled), decides, and actuates through the server's public surface:

- **Autoscaling with hysteresis** — proportional scale-up sized from
  the windowed demand estimate after ``SCALE_UP_BREACH_TICKS``
  consecutive red ticks (new workers warm up before taking traffic);
  scale-down drains one worker at a time only after
  ``SCALE_DOWN_CLEAR_TICKS`` consecutive green low-utilization ticks,
  and a decommission waits for in-flight batches and checkpoints bank
  state.  Separate breach/clear counters plus per-direction cooldowns
  are what stop the loop from thrashing at a capacity boundary.
- **Degraded-mode ladder** — NOMINAL → TIGHT_BATCH (shrink the
  micro-batch SLO so batches close sooner) → SHED_LOW (admission
  priority floor) → FREEZE_TRAINING (``kind="train"`` refused) →
  BROWNOUT (power-capped fleet + higher floor).  The ladder climbs one
  rung per sustained breach and steps down one rung per sustained
  green window, so it always converges back to NOMINAL when load
  subsides; the run-end tick unwinds any residual rung as a backstop.
- **Per-tenant rebalancing** — a tenant shedding far above the fleet
  norm while the fleet is otherwise green earns a bounded priority
  boost, released once its shed rate clears.

Every actuation goes through ``server.record_decision`` — the same
ordered, replayed decision log as admits and dispatches — so a (trace
seed, controller config) pair replays the control trajectory
bit-identically.  Wall-clock overhead is accumulated (never read for
decisions) so the benchmark gate can hold the loop under 1% of serve
wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.errors import ServingError
from repro.serving.breaker import BreakerState
from repro.telemetry.session import (
    counter as _metric_counter,
    gauge as _metric_gauge,
)

#: Degraded-mode rungs, mildest first.  Index into this tuple is the
#: controller's ``rung`` state; 0 is nominal operation.
LADDER = ("nominal", "tight_batch", "shed_low", "freeze_training", "brownout")

#: Utilization headroom scale-up sizes toward (fraction of capacity).
TARGET_UTILIZATION = 0.8
# -- scale-up hysteresis ----------------------------------------------
SCALE_UP_ATTAINMENT = 0.92
SCALE_UP_QUEUE_FRAC = 0.5
#: Proactive trigger: scale up when windowed demand exceeds this fraction
#: of active capacity, *before* attainment breaks.  A step burst costs one
#: detection tick regardless; this keeps the slower diurnal ramp from ever
#: eating into the SLO.
SCALE_UP_UTILIZATION = 0.9
SCALE_UP_BREACH_TICKS = 1
SCALE_UP_COOLDOWN_TICKS = 1
# -- scale-down hysteresis --------------------------------------------
SCALE_DOWN_UTILIZATION = 0.4
SCALE_DOWN_CLEAR_TICKS = 3
SCALE_DOWN_COOLDOWN_TICKS = 2
# -- degraded-mode ladder ---------------------------------------------
DEGRADED_ENTER_TICKS = 2
DEGRADED_EXIT_TICKS = 2
#: TIGHT_BATCH shrinks the micro-batch SLO target by this factor.
TIGHT_BATCH_SLO_FACTOR = 0.5
#: SHED_LOW admission floor; BROWNOUT raises it further.
SHED_LOW_FLOOR = 1
BROWNOUT_FLOOR = 2
# -- tenant rebalancing -----------------------------------------------
REBALANCE_SHED_RATE = 0.30
REBALANCE_MAX_BOOST = 2
#: Escalated ABFT attestation failures a single worker may rack up in one
#: rollup window before the controller force-trips its breaker.  The
#: breaker's own failure threshold catches fast bursts on its shorter
#: memory; this catches the slow corrupter whose occasional escalations
#: keep slipping past it.
SDC_QUARANTINE_COUNT = 3


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs for the control loop (all times virtual seconds)."""

    #: Tick period and the trailing window each tick aggregates.
    interval_s: float = 1e-5
    window_s: float = 3e-5
    #: Latency target attainment is graded against.
    slo_latency_s: float = 1e-5
    #: Fleet-size bounds the autoscaler honors.
    min_workers: int = 2
    max_workers: int = 16
    #: Warm-up delay before a commissioned worker takes traffic.
    warmup_s: float = 5e-6
    #: Degraded-mode ladder: climb below the enter attainment, step down
    #: at or above the exit attainment.
    degraded_enter_attainment: float = 0.45
    degraded_exit_attainment: float = 0.90
    # -- power model --------------------------------------------------
    per_worker_power_w: float = 0.025
    power_budget_w: float = 1.0
    brownout_power_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.interval_s <= 0 or self.window_s <= 0:
            raise ServingError("controller interval and window must be positive")
        if self.min_workers < 1 or self.max_workers < self.min_workers:
            raise ServingError(
                f"need 1 <= min_workers <= max_workers, got "
                f"{self.min_workers}..{self.max_workers}"
            )
        if self.degraded_exit_attainment <= self.degraded_enter_attainment:
            raise ServingError(
                "degraded exit threshold must exceed the enter threshold "
                "(that gap is the ladder's hysteresis)"
            )
        if self.per_worker_power_w <= 0 or self.power_budget_w <= 0:
            raise ServingError("power model values must be positive")

    def power_cap_workers(self, rung: int) -> int:
        """Fleet-size ceiling the power budget allows at ``rung``."""
        budget = self.power_budget_w
        if LADDER[rung] == "brownout":
            budget *= self.brownout_power_fraction
        return max(1, int(budget / self.per_worker_power_w))


class FleetController:
    """Recurring control tick over one server + pool + rollup triple."""

    def __init__(self, server, pool, rollup, config: ControllerConfig) -> None:
        self.server = server
        self.pool = pool
        self.rollup = rollup
        self.config = config
        #: Micro-batch SLO target at NOMINAL (restored on ladder exit).
        self.base_batch_slo_s = float(server.batcher.slo_latency_s)
        # -- control state -------------------------------------------
        self.rung = 0
        self._breach_ticks = 0
        self._clear_ticks = 0
        self._ladder_bad = 0
        self._ladder_good = 0
        self._up_cooldown = 0
        self._down_cooldown = 0
        # -- observability -------------------------------------------
        self.ticks = 0
        self.scale_up_events = 0
        self.scale_down_events = 0
        self.degraded_entries = 0
        self.degraded_exits = 0
        #: Structured log of every knob change (mirrors the decision log).
        self.actuations: list[dict] = []
        #: Wall-clock seconds spent inside ticks *deciding* (benchmark
        #: gate input; never read by any decision).  Actuation payloads —
        #: cloning a worker at commission, hashing bank state at
        #: decommission — accumulate in :attr:`provision_wall_s` instead:
        #: that is capacity work the system pays per scaling event
        #: regardless of what triggers it, not per-tick loop overhead.
        self.wall_s = 0.0
        self.provision_wall_s = 0.0
        self.stopped = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, start_s: float | None = None) -> None:
        """Schedule the first tick (defaults to one interval from now)."""
        start = (
            float(start_s)
            if start_s is not None
            else self.server.clock.now() + self.config.interval_s
        )
        self.server.schedule_action(start, "controller_tick", self._tick)

    # ------------------------------------------------------------------
    # Actuation plumbing
    # ------------------------------------------------------------------
    def _actuate(self, action: str, **fields) -> None:
        record = {"action": action, "t": self.server.clock.now(), **fields}
        self.actuations.append(record)
        self.server.record_decision("controller", **record)
        _metric_counter("repro_controller_actuations_total").inc()

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _tick(self, server) -> None:
        t0 = time.perf_counter()
        provision0 = self.provision_wall_s
        try:
            self._evaluate(server)
        finally:
            elapsed = time.perf_counter() - t0
            self.wall_s += elapsed - (self.provision_wall_s - provision0)

    def _evaluate(self, server) -> None:
        cfg = self.config
        now = server.clock.now()
        self.ticks += 1
        _metric_counter("repro_controller_ticks_total").inc()
        self.pool.refresh(now)
        if not server.pending_work():
            # Run is drained: unwind any residual degraded rung (no load
            # is by definition nominal), retire any worker still mid-drain
            # (idle by definition now), stop rescheduling, done.
            if self.rung > 0:
                self._set_rung(0, reason="run_drained")
            self._reap_draining()
            self.stopped = True
            self._actuate("stop", ticks=self.ticks)
            return

        stats = self.rollup.window_stats(
            now, cfg.slo_latency_s, window_s=cfg.window_s
        )
        active = self.pool.ids_in("active")
        warming = self.pool.ids_in("warming")
        n_active = len(active)
        n_rising = n_active + len(warming)
        demand_hz = (stats.completions + stats.sheds) / stats.window_s
        per_worker_hz = self.pool.unit_rate_hz(server.batcher.max_batch)
        capacity_hz = max(n_active, 1) * per_worker_hz
        utilization = demand_hz / capacity_hz

        self.rollup.record_power(now, n_active * cfg.per_worker_power_w)
        _metric_gauge("repro_fleet_workers", "Active fleet size").set_at(
            n_active, now
        )
        _metric_gauge(
            "repro_fleet_power_w", "Modeled fleet power draw"
        ).set_at(n_active * cfg.per_worker_power_w, now)

        self._drive_sdc(server, stats, now)
        self._drive_ladder(stats)
        self._drive_autoscaling(
            server, stats, n_active, n_rising, demand_hz, per_worker_hz,
            utilization,
        )
        self._drive_rebalancing(server, stats)
        self._reap_draining()

        server.schedule_action(
            now + cfg.interval_s, "controller_tick", self._tick
        )

    # ------------------------------------------------------------------
    # SDC quarantine
    # ------------------------------------------------------------------
    def _drive_sdc(self, server, stats, now: float) -> None:
        """Force-quarantine workers whose windowed SDC count is over cap.

        The rollup's per-worker escalated-attestation tallies are the
        fleet-level read of the integrity ladder: a worker repeatedly
        producing silently-corrupt batches gets its breaker tripped
        outright (reason ``sdc_quarantine``), pulling it from rotation
        until the half-open probe's repair sweep — which rewrites and
        recalibrates its checksum rows — proves it clean again.
        """
        for wid in sorted(stats.sdc_by_worker):
            count = stats.sdc_by_worker[wid]
            breaker = server.breakers.get(wid)
            if (
                count >= SDC_QUARANTINE_COUNT
                and breaker is not None
                and breaker.state is BreakerState.CLOSED
            ):
                breaker.trip(now, "sdc_quarantine")
                self._actuate("sdc_quarantine", worker=wid, sdc=int(count))

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def _drive_autoscaling(
        self, server, stats, n_active, n_rising, demand_hz, per_worker_hz,
        utilization,
    ) -> None:
        cfg = self.config
        self._up_cooldown = max(0, self._up_cooldown - 1)
        self._down_cooldown = max(0, self._down_cooldown - 1)

        red = (
            stats.attainment < SCALE_UP_ATTAINMENT
            or utilization > SCALE_UP_UTILIZATION
            or stats.last_queue_depth
            >= SCALE_UP_QUEUE_FRAC * server.queue.max_depth
        )
        self._breach_ticks = self._breach_ticks + 1 if red else 0

        healthy = server.serving_worker_count()
        ceiling = min(cfg.max_workers, cfg.power_cap_workers(self.rung))
        if (
            self._breach_ticks >= SCALE_UP_BREACH_TICKS
            and self._up_cooldown == 0
            and n_rising < ceiling
        ):
            # Proportional sizing: enough workers to carry the windowed
            # demand at target utilization, with breaker-opened capacity
            # (a storm, a crash wave) counted as missing.
            needed = math.ceil(
                demand_hz / (TARGET_UTILIZATION * per_worker_hz)
            )
            needed += n_active - healthy
            target = min(ceiling, max(needed, n_rising + 1))
            to_add = target - n_rising
            if to_add > 0:
                t0 = time.perf_counter()
                added = [
                    self.pool.commission(cfg.warmup_s) for _ in range(to_add)
                ]
                self.provision_wall_s += time.perf_counter() - t0
                self.scale_up_events += 1
                self._up_cooldown = SCALE_UP_COOLDOWN_TICKS
                self._breach_ticks = 0
                self._actuate(
                    "scale_up",
                    added=added,
                    fleet=n_rising + to_add,
                    attainment=round(stats.attainment, 4),
                    demand_x=round(demand_hz / per_worker_hz, 3),
                )
                _metric_counter("repro_fleet_scale_ups_total").inc(to_add)
            return  # never scale both directions in one tick

        green = (
            self.rung == 0
            and stats.attainment >= cfg.degraded_exit_attainment
            and not red
            and utilization < SCALE_DOWN_UTILIZATION
            and n_active > cfg.min_workers
        )
        self._clear_ticks = self._clear_ticks + 1 if green else 0
        if (
            self._clear_ticks >= SCALE_DOWN_CLEAR_TICKS
            and self._down_cooldown == 0
        ):
            victim = max(self.pool.ids_in("active"))
            self.pool.begin_drain(victim)
            self.scale_down_events += 1
            self._down_cooldown = SCALE_DOWN_COOLDOWN_TICKS
            self._clear_ticks = 0
            self._actuate(
                "scale_down",
                drained=victim,
                fleet=n_active - 1,
                utilization=round(utilization, 4),
            )
            _metric_counter("repro_fleet_scale_downs_total").inc()

    def _reap_draining(self) -> None:
        t0 = time.perf_counter()
        for wid in self.pool.ids_in("draining"):
            self.pool.try_decommission(wid)
        self.provision_wall_s += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Degraded-mode ladder
    # ------------------------------------------------------------------
    def _drive_ladder(self, stats) -> None:
        cfg = self.config
        if stats.attainment < cfg.degraded_enter_attainment:
            self._ladder_bad += 1
            self._ladder_good = 0
        elif stats.attainment >= cfg.degraded_exit_attainment:
            self._ladder_good += 1
            self._ladder_bad = 0
        else:
            self._ladder_bad = 0
            self._ladder_good = 0
        if self._ladder_bad >= DEGRADED_ENTER_TICKS:
            if self.rung < len(LADDER) - 1:
                self._set_rung(
                    self.rung + 1,
                    reason=f"attainment {stats.attainment:.3f} < "
                    f"{cfg.degraded_enter_attainment}",
                )
            self._ladder_bad = 0
        elif self._ladder_good >= DEGRADED_EXIT_TICKS and self.rung > 0:
            self._set_rung(
                self.rung - 1,
                reason=f"attainment {stats.attainment:.3f} >= "
                f"{cfg.degraded_exit_attainment}",
            )
            self._ladder_good = 0

    def _set_rung(self, rung: int, reason: str) -> None:
        """Move the ladder to ``rung`` and apply that rung's policy."""
        before = self.rung
        if rung == before:
            return
        if before == 0:
            self.degraded_entries += 1
        if rung == 0:
            self.degraded_exits += 1
        self.rung = rung
        self._apply_rung_policy()
        self._actuate(
            "degraded_mode", frm=LADDER[before], to=LADDER[rung], reason=reason
        )
        _metric_counter("repro_fleet_degraded_transitions_total").inc()

    def _apply_rung_policy(self) -> None:
        """Make the server's policy knobs match the current rung.

        Idempotent by construction: each knob is written only when its
        value actually changes, so re-applying the current rung (or a
        steady NOMINAL state) performs zero actuations.
        """
        cfg = self.config
        server = self.server
        rung_name = LADDER[self.rung]

        slo = self.base_batch_slo_s
        if self.rung >= LADDER.index("tight_batch"):
            slo = self.base_batch_slo_s * TIGHT_BATCH_SLO_FACTOR
        if server.batcher.slo_latency_s != slo:
            server.batcher.slo_latency_s = slo
            self._actuate("batch_slo", slo_s=slo, rung=rung_name)

        floor: int | None = None
        if self.rung >= LADDER.index("shed_low"):
            floor = SHED_LOW_FLOOR
        if rung_name == "brownout":
            floor = BROWNOUT_FLOOR
        if server.min_priority != floor:
            server.min_priority = floor
            self._actuate("admission_floor", floor=floor, rung=rung_name)

        frozen = (
            {"train"} if self.rung >= LADDER.index("freeze_training") else set()
        )
        if server.frozen_kinds != frozen:
            server.frozen_kinds = set(frozen)
            self._actuate(
                "freeze_kinds", kinds=sorted(frozen), rung=rung_name
            )

        # Brownout: drain the fleet down to the browned-out power cap.
        cap = cfg.power_cap_workers(self.rung)
        active = self.pool.ids_in("active")
        if len(active) > cap and rung_name == "brownout":
            for wid in sorted(active, reverse=True)[: len(active) - cap]:
                self.pool.begin_drain(wid)
            self._actuate("brownout_cap", cap=cap, drained=len(active) - cap)

    # ------------------------------------------------------------------
    # Tenant rebalancing
    # ------------------------------------------------------------------
    def _drive_rebalancing(self, server, stats) -> None:
        if self.rung != 0:
            return  # degraded mode owns the priority policy
        fleet_green = stats.attainment >= SCALE_UP_ATTAINMENT
        for tenant in sorted(stats.terminated_by_tenant):
            rate = stats.tenant_shed_rate(tenant)
            boost = server.tenant_boost.get(tenant, 0)
            if (
                fleet_green
                and rate > REBALANCE_SHED_RATE
                and boost < REBALANCE_MAX_BOOST
            ):
                server.tenant_boost[tenant] = boost + 1
                self._actuate(
                    "tenant_boost",
                    tenant=tenant,
                    boost=boost + 1,
                    shed_rate=round(rate, 4),
                )
            elif boost > 0 and rate <= REBALANCE_SHED_RATE / 2:
                if boost - 1 == 0:
                    del server.tenant_boost[tenant]
                else:
                    server.tenant_boost[tenant] = boost - 1
                self._actuate(
                    "tenant_boost",
                    tenant=tenant,
                    boost=boost - 1,
                    shed_rate=round(rate, 4),
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Summary the fleet report and smoke checks consume."""
        return {
            "ticks": self.ticks,
            "rung": LADDER[self.rung],
            "scale_up_events": self.scale_up_events,
            "scale_down_events": self.scale_down_events,
            "degraded_entries": self.degraded_entries,
            "degraded_exits": self.degraded_exits,
            "actuations": len(self.actuations),
            "wall_s": self.wall_s,
            "provision_wall_s": self.provision_wall_s,
            "stopped": self.stopped,
        }
