"""End-to-end fleet runs: the smoke scenario, the runner, and the smoke gate.

A fleet run wires the whole control plane together: a
:class:`~repro.fleet.pool.WorkerPool` bootstraps the initial fleet, a
:class:`~repro.serving.server.TridentServer` serves a seeded diurnal +
burst multi-tenant trace (:mod:`repro.fleet.trace`), an always-on
:class:`~repro.telemetry.rollup.ServingRollup` feeds the
:class:`~repro.fleet.controller.FleetController`, and an optional
:class:`~repro.chaos.plan.ChaosPlan` injects faults mid-run.  The
*uncontrolled* variant of the same run — static initial fleet, no
controller — is the baseline the smoke gate compares against: it must
demonstrably miss the p99 SLO at peak where the controlled run meets it.

The peak-window p99 treats a shed request as infinite latency, so the
gate cannot be gamed by shedding the burst away: the controlled run
passes only if at least 99% of burst-window arrivals complete on time.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ServingError
from repro.fleet.controller import ControllerConfig, FleetController, LADDER
from repro.fleet.pool import WorkerPool
from repro.fleet.trace import Burst, TraceConfig, synthesize_trace
from repro.serving.server import ServeReport, ServerConfig, TridentServer
from repro.serving.workload import serve_arrivals
from repro.telemetry.rollup import ServingRollup

#: Where the smoke scenario's breaker storm lands, as a fraction of the
#: trace horizon: after the burst window (~0.38-0.46) but still inside
#: the diurnal peak region, so the storm — not the burst — drives the
#: degraded-mode episode while the burst drives the p99 gate.
STORM_AT_FRACTION = 0.55


@dataclasses.dataclass(frozen=True)
class FleetScenario:
    """One fully-specified fleet run (trace + server + controller)."""

    name: str
    trace: TraceConfig
    server: ServerConfig
    controller: ControllerConfig
    dims: tuple[int, ...] = (12, 16, 4)
    initial_workers: int = 2
    seed: int = 11

    def __post_init__(self) -> None:
        if self.initial_workers < self.controller.min_workers:
            raise ServingError(
                f"initial fleet ({self.initial_workers}) below the "
                f"controller's min_workers ({self.controller.min_workers})"
            )


def smoke_scenario(seed: int = 11) -> FleetScenario:
    """The CI gate: 2 -> ~8 workers, one burst, one mid-peak storm."""
    duration = 1e-3
    return FleetScenario(
        name="smoke",
        initial_workers=2,
        seed=seed,
        trace=TraceConfig(
            duration_s=duration,
            base_rate_x=1.5,
            bursts=(Burst(0.38 * duration, 0.08 * duration, 1.7),),
            seed=seed,
        ),
        # The cooldown is long enough (3 controller ticks) that a breaker
        # storm opens a real capacity hole the degraded ladder has to
        # ride out.
        server=ServerConfig(
            max_queue_depth=4096, breaker_cooldown_s=3e-5, seed=seed
        ),
        controller=ControllerConfig(
            interval_s=5e-6,
            window_s=1.5e-5,
            min_workers=2,
            max_workers=8,
            warmup_s=2e-6,
            power_budget_w=0.25,
        ),
    )


def smoke_chaos_plan(scenario: FleetScenario):
    """A fleet-wide breaker-storm volley, mid-diurnal-peak.

    Hand-built (not drawn from a profile) so the smoke gate's timing is
    exact.  Three back-to-back storms one controller tick apart keep
    re-tripping every breaker — including replacement workers the
    controller commissions mid-storm — so the capacity hole outlasts
    the degraded-mode enter window and the ladder has to engage; a
    single storm is repaired by commissioning before two bad ticks
    accumulate.
    """
    from repro.chaos.plan import ChaosPlan, Injection

    storm_at = STORM_AT_FRACTION * scenario.trace.duration_s
    step = 1.2 * scenario.controller.interval_s
    return ChaosPlan(
        seed=scenario.seed,
        injections=tuple(
            Injection(storm_at + i * step, "breaker_storm", None)
            for i in range(3)
        ),
    )


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FleetRunResult:
    """Everything one fleet run produced."""

    scenario: FleetScenario
    report: ServeReport
    pool: WorkerPool
    #: None for uncontrolled (static-knob baseline) runs.
    controller: FleetController | None
    chaos_applied: list[dict]
    unit_rate_hz: float
    n_requests: int

    def as_dict(self) -> dict:
        """JSON-ready summary: fleet counts, controller report, serve stats."""
        doc = {
            "scenario": self.scenario.name,
            "requests": self.n_requests,
            "unit_rate_hz": self.unit_rate_hz,
            "fleet": self.pool.counts(),
            "chaos_applied": len(self.chaos_applied),
            "serve": self.report.as_dict(),
        }
        if self.controller is not None:
            doc["controller"] = self.controller.report()
        return doc


def run_fleet_workload(
    scenario: FleetScenario,
    controlled: bool = True,
    chaos_plan=None,
) -> FleetRunResult:
    """Build the fleet, synthesize the trace, serve to completion.

    ``controlled=False`` runs the identical trace and chaos on the
    static initial fleet with no controller — the baseline the smoke
    gate uses to show the control plane earns its keep.  ``chaos_plan``
    is passed to :func:`~repro.serving.workload.serve_arrivals`.
    """
    pool = WorkerPool(scenario.dims, scenario.seed)
    workers = pool.bootstrap(scenario.initial_workers)
    rollup = ServingRollup(scenario.controller.window_s)
    server = TridentServer(workers, config=scenario.server, rollup=rollup)
    pool.bind(server)

    unit_rate = pool.unit_rate_hz(scenario.server.max_batch)
    arrivals = synthesize_trace(
        scenario.trace,
        unit_rate,
        scenario.dims[0],
        scenario.controller.slo_latency_s,
    )

    controller = None
    if controlled:
        controller = FleetController(server, pool, rollup, scenario.controller)
        controller.install(start_s=scenario.controller.interval_s)

    run = serve_arrivals(server, arrivals, chaos_plan)
    return FleetRunResult(
        scenario=scenario,
        report=run.report,
        pool=pool,
        controller=controller,
        chaos_applied=run.chaos_applied,
        unit_rate_hz=unit_rate,
        n_requests=len(arrivals),
    )


# ----------------------------------------------------------------------
# Gate metrics
# ----------------------------------------------------------------------
def window_p99_latency_s(
    report: ServeReport, start_s: float, end_s: float
) -> float:
    """p99 latency over requests *arriving* in ``[start_s, end_s)``.

    A shed request contributes infinite latency — it never met its
    target — so this metric is finite only when at least 99% of the
    window's arrivals actually completed.  0.0 when the window is empty.
    """
    latencies: list[float] = []
    for completion in report.completed:
        if start_s <= completion.request.arrival_s < end_s:
            latencies.append(completion.latency_s)
    for rejection in report.shed:
        if start_s <= rejection.request.arrival_s < end_s:
            latencies.append(math.inf)
    if not latencies:
        return 0.0
    latencies.sort()
    index = min(
        len(latencies) - 1, max(0, int(round(0.99 * (len(latencies) - 1))))
    )
    return latencies[index]


def fleet_digest(result: FleetRunResult) -> str:
    """Replay digest of the run (:meth:`~repro.serving.server.ServeReport.digest`)."""
    return result.report.digest()


def peak_fleet_size(result: FleetRunResult) -> int:
    """Largest commissioned-and-not-yet-decommissioned roster the run saw."""
    size = result.scenario.initial_workers
    peak = size
    for decision in result.report.decisions:
        if decision["kind"] == "commission":
            size += 1
            peak = max(peak, size)
        elif decision["kind"] == "decommission":
            size -= 1
    return peak


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def fleet_smoke_checks(
    result: FleetRunResult,
    replay: FleetRunResult,
    baseline: FleetRunResult,
) -> list[tuple[str, bool]]:
    """The ``repro fleet --smoke`` pass/fail list."""
    controller = result.controller
    if controller is None:
        raise ServingError("smoke checks need the controlled run's controller")
    slo = result.scenario.controller.slo_latency_s
    peak = result.scenario.trace.peak_window()
    peak_p99 = window_p99_latency_s(result.report, *peak)
    baseline_p99 = window_p99_latency_s(baseline.report, *peak)
    counts = result.pool.counts()
    decommissioned = result.pool.ids_in("decommissioned")
    controller_decisions = [
        d for d in result.report.decisions if d["kind"] == "controller"
    ]
    return [
        ("request conservation (no silent drops)",
         result.report.conservation_ok()),
        ("burst absorbed: p99 over peak-window arrivals within SLO",
         peak_p99 <= slo),
        ("static baseline misses the p99 SLO at peak",
         baseline_p99 > slo),
        ("fleet scaled up under load",
         controller.scale_up_events > 0
         and peak_fleet_size(result) > result.scenario.initial_workers),
        ("fleet scaled back down after the trough (hysteresis observed)",
         controller.scale_down_events > 0 and len(decommissioned) > 0),
        ("every decommissioned worker checkpointed its bank state",
         sorted(result.pool.checkpoint_digests) == decommissioned),
        ("degraded mode entered exactly once (the storm)",
         controller.degraded_entries == 1),
        ("degraded mode exited exactly once (converged back to nominal)",
         controller.degraded_exits == 1
         and LADDER[controller.rung] == "nominal"),
        ("chaos storm applied",
         any(a["kind"] == "breaker_storm" for a in result.chaos_applied)),
        ("every actuation in the decision log",
         len(controller_decisions) == len(controller.actuations) > 0),
        ("controller stopped cleanly at drain", controller.stopped),
        ("no worker left mid-lifecycle",
         counts["warming"] == 0 and counts["draining"] == 0),
        ("replay is bit-identical",
         fleet_digest(result) == fleet_digest(replay)),
    ]
