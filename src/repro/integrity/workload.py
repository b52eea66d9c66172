"""The SDC-defense workload behind ``repro integrity --smoke``.

A deliberately under-capacity single-phase Poisson serving run (no
admission pressure — the point is the *attestation* arc, not shedding)
executed in five scenarios:

1. **Clean seed matrix** — checks enabled, no chaos, several seeds:
   every batch is attested, zero trips.  This is the false-positive
   gate the noise-calibrated thresholds are accountable to.
2. **Parity** — the same run with checks disabled must produce
   bit-identical outputs and decisions: attestation observes, it never
   perturbs.
3. **Replay** — two checks-enabled runs are bit-identical (calibration
   and checksum programming draw from seeded streams only).
4. **Injected SDC** — a crash-free chaos plan of ``silent_corrupt``
   injections (finite bias/scale/sign-flip corruption that sails
   through the serving layer's non-finite gate).  Every injection must
   trip the checksum, recover via re-execution (one-shot chaos does
   not repeat), and show up attested in the post-run audit.
5. **Escalation** — persistent analog corruption
   (:meth:`~repro.arch.weight_bank.WeightBank.upset_cells` — realized
   levels drift with no stuck-cell signature, so worker health stays
   green).  Re-execution reproduces the bad sums, the digital spare
   confirms the data path is wrong, and the batch escalates as an
   :class:`~repro.errors.IntegrityFault`: breaker trips, rollup
   records the SDC rate, and the half-open repair window scrubs the
   data tiles from the digital shadow before recalibrating.

All serving/chaos imports live inside functions: ``repro.serving.worker``
imports this package for :func:`~repro.integrity.checker.attest_batch`,
so module-level imports here would be circular.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.errors import IntegrityError


#: Arrival rate as a multiple of the fleet's sustainable rate — kept
#: under 1.0 so the run exercises attestation, not shedding.
RATE_MULTIPLIER = 0.6
#: Realized-level upsets per data tile in the escalation scenario, and
#: their size in levels.
UPSET_CELLS = 48
UPSET_DELTA = 0.6
#: ``silent_corrupt`` injections compiled into the chaos scenario, and
#: their size.
SILENT_CORRUPTIONS = 2
CORRUPT_MAGNITUDE = 4.0


@dataclasses.dataclass(frozen=True)
class IntegrityWorkloadConfig:
    """Shape of one attestation workload run."""

    dims: tuple[int, ...] = (12, 16, 4)
    n_workers: int = 2
    seed: int = 7
    n_requests: int = 160

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise IntegrityError(
                f"dims must be >= 2 positive widths, got {self.dims}"
            )
        if self.n_workers < 1:
            raise IntegrityError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_requests < 1:
            raise IntegrityError(f"n_requests must be >= 1, got {self.n_requests}")


def build_integrity_worker(
    worker_id: int,
    dims: tuple[int, ...],
    seed: int,
    *,
    with_integrity: bool = True,
):
    """The serving worker plus an attached ABFT checker.

    Reuses :func:`repro.serving.workload.build_worker` unchanged —
    checksum rows are allocated on spare PEs *after* ``deploy``
    finished programming the data tiles, so a checked and an unchecked
    worker consume identical write-noise draws for the data path (the
    parity smoke check depends on this).
    """
    from repro.serving.workload import build_worker

    worker = build_worker(worker_id, dims, seed)
    if with_integrity:
        from repro.integrity.checker import IntegrityChecker

        worker.integrity = IntegrityChecker(worker.acc, seed=seed)
    return worker


def synthesize_integrity_arrivals(
    config: IntegrityWorkloadConfig, rate_hz: float, rng: np.random.Generator
):
    """Single-phase best-effort Poisson arrivals (no deadlines: a batch
    held up by an escalation + peer retry must still settle, not shed)."""
    from repro.serving.request import InferenceRequest

    requests = []
    t = 0.0
    lam = rate_hz * RATE_MULTIPLIER
    n_in = config.dims[0]
    for request_id in range(config.n_requests):
        t += float(rng.exponential(1.0 / lam))
        requests.append(
            InferenceRequest(
                request_id=request_id,
                x=rng.uniform(-1.0, 1.0, n_in),
                arrival_s=t,
                deadline_s=None,
                priority=0,
            )
        )
    return requests


def make_sdc_plan(config: IntegrityWorkloadConfig, window_s: float):
    """A crash-free chaos plan of only ``silent_corrupt`` injections.

    Everything else is zeroed so the sole way a corrupted batch can be
    caught is the checksum attestation — no crash or NaN gate to hide
    behind.  The window is the *arrival* span scaled down so every
    injection lands while its target worker still has batches to run.
    """
    from repro.chaos.plan import ChaosProfile, compile_plan

    profile = ChaosProfile(
        window_s=0.75 * window_s,
        workers=tuple(range(config.n_workers)),
        crashes=0,
        corruptions=0,
        stuck_bursts=0,
        drift_bursts=0,
        breaker_storms=0,
        silent_corruptions=SILENT_CORRUPTIONS,
        corrupt_magnitude=CORRUPT_MAGNITUDE,
    )
    return compile_plan(profile, 20_000 + config.seed)


def _upset_worker(worker, config: IntegrityWorkloadConfig) -> int:
    """Silently drift realized levels on every data tile of one worker.

    Uses a derived generator so the accelerator's own stream (and hence
    replay) is untouched.  Returns cells perturbed.
    """
    rng = np.random.default_rng((0xABF7, config.seed))
    upset = 0
    acc = worker.acc
    for layer in acc.layers:
        for tile in layer.tiles:
            bank = acc.pes[tile[4]].bank
            upset += bank.upset_cells(UPSET_CELLS, rng, delta=UPSET_DELTA)
    return upset


def run_integrity_workload(
    config: IntegrityWorkloadConfig | None = None,
    *,
    with_integrity: bool = True,
    chaos_plan=None,
    upset_worker: int | None = None,
):
    """Build the checked fleet, serve the workload, return run artifacts.

    Returns a :class:`~repro.serving.workload.ServeRunResult`.
    ``chaos_plan`` (see :func:`make_sdc_plan`) is passed to
    :func:`~repro.serving.workload.serve_arrivals`.
    ``upset_worker`` schedules a persistent realized-level drift on
    that worker a sixth of the way into the arrivals.
    A :class:`~repro.telemetry.rollup.ServingRollup` sized to cover the
    whole (virtual-time) run is always attached so the SDC-rate signal
    is observable afterwards.
    """
    from repro.serving.server import ServerConfig, TridentServer
    from repro.serving.workload import serve_arrivals, sustainable_rate_hz
    from repro.telemetry.rollup import ServingRollup

    config = config or IntegrityWorkloadConfig()
    workers = [
        build_integrity_worker(
            i,
            config.dims,
            config.seed + 101 * i,
            with_integrity=with_integrity,
        )
        for i in range(config.n_workers)
    ]
    # Short quarantine: the escalation scenario needs the half-open
    # probe (where the scrub runs) to land while traffic remains.
    server_config = ServerConfig(breaker_cooldown_s=2e-6, seed=int(config.seed))
    rollup = ServingRollup(window_s=10.0)  # virtual runs last ~1e-4 s
    server = TridentServer(workers, config=server_config, rollup=rollup)
    rate = sustainable_rate_hz(workers, server_config.max_batch)
    rng = np.random.default_rng(config.seed)
    arrivals = synthesize_integrity_arrivals(config, rate, rng)

    if upset_worker is not None:
        target = int(upset_worker)

        def inject(srv) -> None:
            """Scheduled-action hook: drift the target worker's levels."""
            _upset_worker(srv.workers[target], config)

        # Early enough that escalations, the breaker trip, the cooldown,
        # and the scrubbing half-open probe all fit inside the arrivals.
        server.schedule_action(
            0.15 * arrivals[-1].arrival_s, "silent_upset", inject
        )
    return serve_arrivals(server, arrivals, chaos_plan)


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def smoke_checks(
    config: IntegrityWorkloadConfig | None = None,
) -> list[tuple[str, bool]]:
    """The ``repro integrity --smoke`` pass/fail list."""
    from repro.serving.breaker import trip_and_restore

    config = config or IntegrityWorkloadConfig()
    checks: list[tuple[str, bool]] = []

    # 1. Clean seed matrix: every batch attested, zero trips, audit holds.
    clean_runs = [
        run_integrity_workload(
            dataclasses.replace(config, seed=config.seed + offset)
        )
        for offset in range(3)
    ]
    attested_all = all(
        worker.integrity.counters.checks == worker.batches_executed > 0
        for run in clean_runs
        for worker in run.workers
    )
    checks.append(("every clean batch attested (3-seed matrix)", attested_all))
    checks.append(
        (
            "zero false trips across clean seed matrix",
            all(
                run.counters_total().get("tripped", 0) == 0
                for run in clean_runs
            ),
        )
    )
    checks.append(
        ("clean-run audits pass", all(run.audit().ok for run in clean_runs))
    )

    # 2. Parity: checks enabled vs disabled is bit-identical.
    baseline = run_integrity_workload(config, with_integrity=False)
    checks.append(
        (
            "attestation never perturbs outputs (parity with unchecked run)",
            clean_runs[0].report.digest() == baseline.report.digest(),
        )
    )

    # 3. Replay: two checks-enabled runs are bit-identical.
    replay = run_integrity_workload(config)
    checks.append(
        (
            "bit-identical replay with checks enabled",
            clean_runs[0].report.digest() == replay.report.digest(),
        )
    )

    # 4. Injected SDC: every silent_corrupt trips and is attested.
    sdc_plan = functools.partial(make_sdc_plan, config)
    chaos_run, chaos_replay = (
        run_integrity_workload(config, chaos_plan=sdc_plan) for _ in range(2)
    )
    applied = sum(
        record["kind"] == "silent_corrupt" for record in chaos_run.chaos_applied
    )
    chaos_counters = chaos_run.counters_total()
    checks.append(
        (
            "all injected silent corruptions landed",
            applied == SILENT_CORRUPTIONS,
        )
    )
    checks.append(
        (
            "injected SDC detected by checksum",
            chaos_counters.get("tripped", 0) >= applied,
        )
    )
    chaos_audit = chaos_run.audit(chaos_replay)
    checks.append(
        (
            "no corrupted batch settled unverified (audit)",
            chaos_audit.ok
            and any(name == "sdc_attested" for name, _, _ in chaos_audit.checks),
        )
    )

    # 5. Escalation: persistent drift -> IntegrityFault -> quarantine ->
    #    scrub -> restore.
    esc = run_integrity_workload(config, upset_worker=0)
    esc_counters = esc.counters_total()
    checks.append(
        (
            "persistent corruption escalated to peer retry",
            esc_counters.get("escalated", 0) > 0,
        )
    )
    tripped, restored = trip_and_restore(
        esc.report.breaker_transitions, worker=0
    )
    checks.append(("escalations tripped the worker breaker", tripped))
    checks.append(("quarantined worker scrubbed and restored", restored))
    end = max(
        (record["t"] for record in esc.report.decisions), default=0.0
    )
    stats = esc.server.rollup.window_stats(end, 1e-5)
    checks.append(
        (
            "SDC rate surfaced in the serving rollup",
            stats.sdc_count > 0
            and stats.sdc_by_worker.get(0, 0) > 0
            and stats.sdc_rate() > 0.0,
        )
    )
    checks.append(("escalation-run audit passes", esc.audit().ok))
    checks.append(
        (
            "escalation conserved + requests all settled",
            esc.report.conservation_ok()
            and all(
                worker.integrity.counters.conserved() for worker in esc.workers
            ),
        )
    )
    return checks


__all__ = [
    "IntegrityWorkloadConfig",
    "build_integrity_worker",
    "make_sdc_plan",
    "run_integrity_workload",
    "smoke_checks",
    "synthesize_integrity_arrivals",
]
