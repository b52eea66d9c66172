"""Fleet-scale adaptive control plane.

Grows the single-server serving layer into a closed-loop fleet: a
seeded diurnal + bursty multi-tenant trace (:mod:`repro.fleet.trace`)
drives a :class:`~repro.fleet.pool.WorkerPool` of clone-commissioned
workers, and a :class:`~repro.fleet.controller.FleetController` tick —
running inside the serving event loop on the virtual clock — reads
always-on telemetry rollups and actuates autoscaling (warm-up, graceful
drain, checkpointed decommission), per-tenant rebalancing, and a
degraded-mode ladder that always converges back to nominal.  Every
actuation lands in the server's decision log, so a (trace seed,
controller config) pair replays bit-identically.
"""

from repro.fleet.controller import ControllerConfig, FleetController, LADDER
from repro.fleet.pool import WORKER_STATES, WorkerPool, state_digest
from repro.fleet.trace import (
    Burst,
    DEFAULT_TENANTS,
    TenantSpec,
    TraceConfig,
    synthesize_trace,
)
from repro.fleet.workload import (
    FleetRunResult,
    FleetScenario,
    fleet_digest,
    fleet_smoke_checks,
    peak_fleet_size,
    run_fleet_workload,
    smoke_chaos_plan,
    smoke_scenario,
    window_p99_latency_s,
)

__all__ = [
    "Burst",
    "ControllerConfig",
    "DEFAULT_TENANTS",
    "FleetController",
    "FleetRunResult",
    "FleetScenario",
    "LADDER",
    "TenantSpec",
    "TraceConfig",
    "WORKER_STATES",
    "WorkerPool",
    "fleet_digest",
    "fleet_smoke_checks",
    "peak_fleet_size",
    "run_fleet_workload",
    "smoke_chaos_plan",
    "smoke_scenario",
    "state_digest",
    "synthesize_trace",
    "window_p99_latency_s",
]
