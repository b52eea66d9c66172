"""Synthetic open-loop serving workloads and the smoke-gate checks.

The canonical workload is a three-phase Poisson arrival process —
**warm** (comfortably under capacity), **burst** (2x the sustainable
rate, forcing priority-aware shedding), **drain** (back under capacity)
— with one accelerator forced into PCM degradation mid-run so the
breaker's trip / repair / restore arc is exercised under live traffic.

Everything is generated from one seeded :class:`numpy.random.Generator`
and served on the virtual clock, so a given seed replays to a
bit-identical decision log; :func:`smoke_checks` turns that plus the
robustness invariants into the pass/fail list the ``repro serve
--smoke`` CI gate prints.

The module also holds what every serving scenario shares: the chip and
worker builders and :func:`serve_arrivals`, the one place a run is
served (under an optional chaos plan) into a :class:`ServeRunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.breaker import trip_and_restore
from repro.serving.request import InferenceRequest, ShedReason
from repro.serving.server import ServeReport, ServerConfig, TridentServer
from repro.serving.worker import AcceleratorWorker


@dataclass(frozen=True)
class Phase:
    """One arrival-process phase."""

    name: str
    n_requests: int
    #: Arrival rate as a multiple of the cluster's sustainable rate.
    rate_multiplier: float

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ServingError(f"{self.name}: n_requests must be >= 0")
        if self.rate_multiplier <= 0:
            raise ServingError(f"{self.name}: rate multiplier must be positive")


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the synthetic serving run."""

    dims: tuple[int, ...] = (12, 16, 4)
    n_workers: int = 2
    seed: int = 7
    phases: tuple[Phase, ...] = (
        Phase("warm", 400, 0.6),
        Phase("burst", 400, 2.0),
        Phase("drain", 400, 0.35),
    )
    #: P(priority = 0 / 1 / 2) for each arrival.
    priority_probs: tuple[float, ...] = (0.97, 0.025, 0.005)
    #: Fraction of requests carrying a hard deadline (rest best-effort).
    deadline_fraction: float = 0.9
    #: Stuck-cell fraction injected into the degraded worker mid-run.
    degrade_fraction: float = 0.08
    #: Which phase the forced degradation lands in (by name).
    degrade_phase: str = "drain"
    server: ServerConfig = ServerConfig(breaker_cooldown_s=5e-6, seed=7)

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ServingError(f"dims must be >= 2 positive widths, got {self.dims}")
        if self.n_workers < 1:
            raise ServingError(f"n_workers must be >= 1, got {self.n_workers}")
        if abs(sum(self.priority_probs) - 1.0) > 1e-9:
            raise ServingError("priority probabilities must sum to 1")
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ServingError("deadline fraction must be in [0, 1]")
        if not 0.0 <= self.degrade_fraction <= 1.0:
            raise ServingError("degrade fraction must be in [0, 1]")
        if not any(p.name == self.degrade_phase for p in self.phases):
            raise ServingError(
                f"degrade phase {self.degrade_phase!r} is not a phase name"
            )


# ----------------------------------------------------------------------
# Fleet construction
# ----------------------------------------------------------------------
def build_chip(dims: tuple[int, ...], seed: int, *, spare_rows: int = 4):
    """A mapped, unprogrammed MLP accelerator with program-verify on.

    Square banks sized to the widest layer, so each layer maps onto a
    single tile; program it with :func:`mlp_weights` (or a state dict).
    """
    from repro.arch import TridentAccelerator, TridentConfig
    from repro.devices.program_verify import ProgramVerifyConfig

    rows = max(max(dims), 2)
    config = TridentConfig(
        bank_rows=rows,
        bank_cols=rows,
        spare_rows=spare_rows,
        convergence_floor=0.0,
    )
    acc = TridentAccelerator(
        config=config, seed=seed, program_verify=ProgramVerifyConfig()
    )
    acc.map_mlp(list(dims))
    return acc


def mlp_weights(dims: tuple[int, ...], seed: int) -> list[np.ndarray]:
    """The seeded N(0, 0.4) model every scenario serves."""
    rng = np.random.default_rng(seed + 1)
    return [
        rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]


def remap_manager(acc):
    """A remap-policy fault manager for ``acc``."""
    from repro.faults import FaultManager, RepairConfig

    # The migration budget must cover every mapped tile: serving declares a
    # worker healthy only when *all* its active banks converge, so a
    # single-migration budget would strand any second degraded tile.
    n_tiles = sum(len(layer.tiles) for layer in acc.layers)
    return FaultManager(
        acc, config=RepairConfig(policy="remap", max_migrations=n_tiles)
    )


def build_worker(
    worker_id: int, dims: tuple[int, ...], seed: int
) -> AcceleratorWorker:
    """One mapped, programmed, repairable accelerator worker."""
    acc = build_chip(dims, seed)
    manager = remap_manager(acc)
    manager.deploy(mlp_weights(dims, seed))
    return AcceleratorWorker(worker_id, acc, manager=manager)


def sustainable_rate_hz(workers: list[AcceleratorWorker], max_batch: int) -> float:
    """Aggregate full-batch throughput of the fleet [requests/s]."""
    return sum(
        max_batch / worker.service_time_s(max_batch) for worker in workers
    )


# ----------------------------------------------------------------------
# Arrival synthesis
# ----------------------------------------------------------------------
def synthesize_arrivals(
    config: WorkloadConfig,
    rate_hz: float,
    rng: np.random.Generator,
) -> tuple[list[InferenceRequest], dict[str, tuple[float, float]]]:
    """Poisson arrivals for every phase; returns (requests, phase windows)."""
    requests: list[InferenceRequest] = []
    windows: dict[str, tuple[float, float]] = {}
    t = 0.0
    request_id = 0
    n_in = config.dims[0]
    slo = config.server.slo_latency_s
    for phase in config.phases:
        start = t
        lam = rate_hz * phase.rate_multiplier
        for _ in range(phase.n_requests):
            t += float(rng.exponential(1.0 / lam))
            priority = int(
                rng.choice(len(config.priority_probs), p=config.priority_probs)
            )
            deadline = (
                t + slo if rng.random() < config.deadline_fraction else None
            )
            requests.append(
                InferenceRequest(
                    request_id=request_id,
                    x=rng.uniform(-1.0, 1.0, n_in),
                    arrival_s=t,
                    deadline_s=deadline,
                    priority=priority,
                )
            )
            request_id += 1
        windows[phase.name] = (start, t)
    return requests, windows


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
@dataclass
class ServeRunResult:
    """Everything one served run produced."""

    report: ServeReport
    server: TridentServer
    #: The roster the run started with.
    workers: list
    #: The active chaos session (None when no plan was given).
    session: object
    #: :func:`~repro.chaos.audit.capture_accounting` taken before the run.
    pre_accounting: dict
    #: Arrival span of the run (chaos windows are sized from this).
    window_s: float

    @property
    def chaos_applied(self) -> list[dict]:
        """Injections the chaos session applied, in order."""
        return [] if self.session is None else list(self.session.applied)

    def counters_total(self) -> dict:
        """Attestation counters summed across ABFT-checked workers."""
        total: dict[str, int] = {}
        for worker in self.workers:
            if worker.integrity is None:
                continue
            for key, value in worker.integrity.counters.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total

    def audit(self, replay: ServeRunResult | None = None):
        """The post-mortem invariant audit of this run (and its replay)."""
        from repro.chaos.audit import audit_serve_run

        return audit_serve_run(
            self.report,
            workers=self.workers,
            pre_accounting=self.pre_accounting,
            replay=None if replay is None else replay.report,
            session=self.session,
        )


def serve_arrivals(
    server: TridentServer, arrivals: list[InferenceRequest], chaos_plan=None
) -> ServeRunResult:
    """Serve ``arrivals`` to completion, under ``chaos_plan`` when given.

    ``chaos_plan`` is a :class:`~repro.chaos.plan.ChaosPlan`, or a
    callable invoked with the arrival span (``plan = chaos_plan(window_s)``)
    for callers that size the plan to a span they cannot know before
    the arrivals exist.
    """
    from repro.chaos.audit import capture_accounting

    window_s = arrivals[-1].arrival_s if arrivals else 0.0
    if callable(chaos_plan):
        chaos_plan = chaos_plan(window_s)
    workers = list(server.workers)
    pre = capture_accounting(workers)
    session = None
    if chaos_plan is None:
        report = server.run(arrivals)
    else:
        from repro.chaos.session import session as chaos_scope

        with chaos_scope(chaos_plan) as session:
            server.install_chaos(session)
            report = server.run(arrivals)
    return ServeRunResult(report, server, workers, session, pre, window_s)


def run_serve_workload(
    config: WorkloadConfig | None = None, *, chaos_plan=None
) -> ServeRunResult:
    """Build the fleet, synthesize arrivals, serve to completion.

    The first worker is forced into PCM degradation a quarter of the way
    into ``degrade_phase`` (stuck-cell injection + readback refresh), so
    its batches start failing, its breaker trips, and the half-open
    repair path has to win the worker back under live traffic.  A
    ``degrade_fraction`` of 0 schedules no degradation at all.
    ``chaos_plan`` is passed to :func:`serve_arrivals`.
    """
    config = config or WorkloadConfig()
    workers = [
        build_worker(i, config.dims, config.seed + 101 * i)
        for i in range(config.n_workers)
    ]
    server = TridentServer(workers, config=config.server)
    rate = sustainable_rate_hz(workers, config.server.max_batch)
    rng = np.random.default_rng(config.seed)
    arrivals, windows = synthesize_arrivals(config, rate, rng)

    fraction = config.degrade_fraction
    if fraction > 0.0:
        start, end = windows[config.degrade_phase]

        def force_degradation(srv: TridentServer) -> None:
            srv.workers[0].degrade(fraction, stuck_level=254)

        server.schedule_action(
            start + 0.25 * (end - start), "force_degradation", force_degradation
        )
    return serve_arrivals(server, arrivals, chaos_plan)


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def shed_rate_by_priority(report: ServeReport) -> dict[int, float]:
    """Per-priority shed fraction over all submitted requests."""
    submitted: dict[int, int] = {}
    for completion in report.completed:
        p = completion.request.priority
        submitted[p] = submitted.get(p, 0) + 1
    shed: dict[int, int] = {}
    for rejection in report.shed:
        p = rejection.request.priority
        submitted[p] = submitted.get(p, 0) + 1
        shed[p] = shed.get(p, 0) + 1
    return {
        p: shed.get(p, 0) / total for p, total in sorted(submitted.items())
    }


def smoke_checks(
    report: ServeReport, replay: ServeReport
) -> list[tuple[str, bool]]:
    """The ``repro serve --smoke`` pass/fail list."""
    tripped, restored = trip_and_restore(report.breaker_transitions)
    rates = shed_rate_by_priority(report)
    high = [rate for p, rate in rates.items() if p > 0]
    priority_skewed = not report.shed or (
        0 in rates and (not high or rates[0] >= max(high))
    )
    reasons_ok = all(
        isinstance(r.reason, ShedReason) and r.detail for r in report.shed
    )
    return [
        ("request conservation (no silent drops)", report.conservation_ok()),
        (">= 99% of admitted requests completed", report.completion_rate >= 0.99),
        ("p99 admitted latency within SLO",
         report.latency_quantile_s(0.99) <= report.slo_latency_s),
        ("overload shed requests (backpressure engaged)", len(report.shed) > 0),
        ("shedding skewed away from high priority", priority_skewed),
        ("every shed carries a structured reason", reasons_ok),
        ("breaker tripped on degradation", tripped),
        ("breaker restored via half-open probe", restored),
        ("retries exercised", report.retries_scheduled > 0),
        ("replay is bit-identical", replay.decisions == report.decisions),
    ]
