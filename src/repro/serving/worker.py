"""The serving-side wrapper around one functional accelerator.

An :class:`AcceleratorWorker` owns a mapped, programmed
:class:`~repro.arch.TridentAccelerator` plus (optionally) the
:class:`~repro.faults.FaultManager` that repairs it.  It contributes
three things to the server:

- **Service time** — the dataflow cost model's per-batch latency
  estimate (:func:`repro.dataflow.cost_model.forward_batch_latency_s`),
  which both the micro-batcher and admission control price against.
- **Health** — the worst ``unconverged_fraction`` across its banks (the
  program-verify readback signal PR 2 introduced) plus the repair log's
  degradation count.  Health gates execution: a degraded worker *fails*
  batches rather than silently serving garbage.
- **Execution** — ``forward_batch`` on the real functional engine, so
  served outputs carry the full quantization/noise/fault physics and
  event accounting of any other forward pass.

A pipeline of chips (:class:`~repro.serving.sharded.ShardedWorker`) is a
subclass that replaces only the schedule, the stage-by-stage health
walk and the compute step; ``execute``, ``degrade`` and ``repair`` exist
once, here.  Every worker exposes the chips it serves on
(``accelerators``, per stage in ``stage_accelerators``), its fault
``managers`` and its ``stage_breakers``, so callers never need to know
which kind of worker they hold.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chaos.session import (
    corrupt_output as _chaos_corrupt,
    crash_check as _chaos_crash,
)
from repro.dataflow.cost_model import PhotonicArch, forward_batch_latency_s
from repro.errors import ChaosError, ServingError, WorkerFault
from repro.integrity.checker import attest_batch as _attest_batch
from repro.telemetry.log import get_logger

_log = get_logger("repro.serving.worker")

#: Worst program-verify non-convergence a worker (or pipeline stage) may
#: report and still serve.
UNHEALTHY_THRESHOLD = 0.02
#: Fixed host-side cost of one dispatch, added to every batch latency [s].
DISPATCH_OVERHEAD_S = 1e-6


def all_finite(outputs: np.ndarray) -> bool:
    """Whether every element of ``outputs`` is finite: the finite-output gate.

    A NaN or ±inf element makes the sum non-finite, so a finite sum
    settles it in one reduction; only a non-finite sum (a real fault, or
    finite values whose sum overflows) pays the element-wise scan.
    """
    outputs = np.asarray(outputs)
    return math.isfinite(outputs.sum()) or bool(np.isfinite(outputs).all())


def active_unconverged_fraction(acc) -> float:
    """Worst program-verify non-convergence across ``acc``'s *active* banks.

    Only PEs currently backing a mapped tile count: a migrate-tier
    repair abandons a worn PE in place, and its stale readback must not
    keep condemning a worker that no longer uses it.
    """
    active = {tile[4] for layer in acc.layers for tile in layer.tiles}
    fractions = [acc.pes[index].bank.unconverged_fraction for index in active]
    return max(fractions, default=0.0)


class AcceleratorWorker:
    """One dispatchable accelerator behind the serving layer."""

    #: What the finite-output gate calls the outputs it rejects.
    _outputs_name = "batch output"

    def __init__(
        self, worker_id: int, accelerator, manager=None, integrity=None
    ) -> None:
        self.acc = accelerator
        self.manager = manager
        self._init_common(worker_id, integrity)
        self.arch = PhotonicArch.trident(accelerator.config)
        cols = accelerator.config.bank_cols
        #: Per-layer column (reduction) tile counts for the latency model.
        self.layer_reduction_tiles = tuple(
            -(-layer.in_dim // cols) for layer in accelerator.layers
        )

    def _init_common(self, worker_id: int, integrity) -> None:
        """Checks and bookkeeping every worker kind shares."""
        for acc in self.accelerators:
            if not acc.layers:
                raise ServingError(
                    f"worker {worker_id}: map and program a network before "
                    "serving"
                )
            if any(layer.weights is None for layer in acc.layers):
                raise ServingError(
                    f"worker {worker_id}: all layers need programmed weights"
                )
        self.worker_id = int(worker_id)
        #: Optional ABFT checker attesting every executed batch
        #: (:class:`~repro.integrity.IntegrityChecker` for one chip,
        #: :class:`~repro.integrity.PipelineChecker` for a pipeline).
        self.integrity = integrity
        self.batches_executed = 0
        self.batches_failed = 0
        #: Escalation count already covered by a scrub (see :meth:`repair`).
        self._scrubbed_escalations = 0
        self._clock = None
        #: Memoized :meth:`service_time_s`, keyed by batch size.
        self._service_s: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def stage_accelerators(self) -> tuple:
        """The chips of each fault domain, in pipeline order.

        A single-chip worker is one stage of one chip."""
        return ((self.acc,),)

    @property
    def accelerators(self) -> tuple:
        """Every chip behind this worker, in pipeline order."""
        return tuple(acc for parts in self.stage_accelerators for acc in parts)

    @property
    def managers(self) -> tuple:
        """The attached fault managers, in pipeline order."""
        return () if self.manager is None else (self.manager,)

    @property
    def stage_breakers(self) -> tuple:
        """Per-stage circuit breakers inside the worker (none for one chip)."""
        return ()

    @property
    def input_dim(self) -> int:
        """Model input width this worker serves."""
        return self.accelerators[0].layers[0].in_dim

    def bind_clock(self, clock) -> None:
        """Accept the server's virtual clock.

        Execute-time chaos hook points timestamp their checks against
        the plan with it (pipelined workers also timestamp their
        per-stage breakers with it)."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def service_time_s(self, batch_size: int) -> float:
        """Cost-model latency for one batch of ``batch_size`` samples.

        Memoized per worker: the schedule behind it is fixed at map time,
        and the event loop prices the same few batch sizes hundreds of
        thousands of times.  A miss stores the exact value
        :meth:`_service_time_uncached_s` returns, so every lookup is
        bit-identical to computing it afresh.
        """
        cached = self._service_s.get(batch_size)
        if cached is None:
            cached = self._service_s[batch_size] = (
                self._service_time_uncached_s(batch_size)
            )
        return cached

    def _service_time_uncached_s(self, batch_size: int) -> float:
        """The cost model itself: one chip's layer chain."""
        return forward_batch_latency_s(
            self.arch,
            self.layer_reduction_tiles,
            batch_size,
            overhead_s=DISPATCH_OVERHEAD_S,
        )

    def dispatch_times_s(
        self, now_s: float, batch_size: int
    ) -> tuple[float, float]:
        """(ingest-free instant, finish instant) for a dispatch at ``now_s``.

        The server frees a worker for its *next* dispatch at the first
        element and completes the batch at the second.  A single-chip
        worker is exclusive for the whole service time, so both coincide;
        a pipelined worker returns an earlier ingest-free instant (its
        first stage frees before the batch leaves the last stage), which
        is what lets stage k of batch i overlap stage k-1 of batch i+1.
        """
        finish = now_s + self.service_time_s(batch_size)
        return finish, finish

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def unconverged_fraction(self) -> float:
        """Worst active-bank verify non-convergence across every chip."""
        return max(map(active_unconverged_fraction, self.accelerators))

    @property
    def healthy(self) -> bool:
        """True while the health signal is within the serving threshold."""
        return self.unconverged_fraction <= UNHEALTHY_THRESHOLD

    def health(self) -> dict:
        """Structured health snapshot (for reports and breaker decisions)."""
        return {
            "worker": self.worker_id,
            "unconverged_fraction": self.unconverged_fraction,
            "healthy": self.healthy,
            "tiles_unrepaired": sum(
                manager.log.tiles_unrepaired for manager in self.managers
            ),
            "batches_executed": self.batches_executed,
            "batches_failed": self.batches_failed,
        }

    def _degraded_fault(self, where: str, fraction: float) -> WorkerFault:
        return WorkerFault(
            f"{where} degraded: unconverged fraction {fraction:.3f} > "
            f"{UNHEALTHY_THRESHOLD:.3f}"
        )

    def _gate(self) -> None:
        """Fail the batch up front when the chip is degraded."""
        if not self.healthy:
            raise self._degraded_fault(
                f"worker {self.worker_id}", self.unconverged_fraction
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _forward(self, xs: np.ndarray, now: float) -> np.ndarray:
        """The compute step: the chip's batched forward pass."""
        return self.acc.forward_batch(xs, record=self.integrity is not None)

    def execute(self, xs: np.ndarray) -> np.ndarray:
        """Run one micro-batch; raises :class:`WorkerFault` when degraded.

        The health gate comes first: a worker whose banks report
        above-threshold non-convergence fails the batch outright (its
        outputs could not be trusted), handing the requests back to the
        server for retry elsewhere or shedding.  A pipeline gates each
        stage inside its compute step instead.

        Chaos hook points bracket the compute step: an armed
        ``worker_crash`` fires at dispatch (before the physics) or drain
        (after it), and an armed ``corrupt_output`` poisons the outputs
        with NaNs — which the finite-output integrity gate then converts
        into a :class:`WorkerFault`, so corrupted values can never reach
        a requester.  With no chaos session active each hook costs one
        global read; the hooks live here, not in ``forward_batch``,
        precisely to keep the accelerator's hot loop untouched.

        When an ABFT checker is attached, the batch is additionally
        attested *after* the chaos hooks (so the check sees exactly what
        a requester would): finite but wrong outputs — ``silent_corrupt``
        chaos, analog faults — trip the checksum ladder and either
        recover or escalate as a retryable
        :class:`~repro.errors.IntegrityFault`.
        """
        now = self._now()
        try:
            self._gate()
            reason = _chaos_crash(self.worker_id, "dispatch", now)
            if reason is not None:
                raise WorkerFault(
                    f"worker {self.worker_id} crashed at dispatch: {reason}"
                )
            outputs = self._forward(xs, now)
            outputs = _chaos_corrupt(self.worker_id, now, outputs)
            reason = _chaos_crash(self.worker_id, "drain", now)
            if reason is not None:
                raise WorkerFault(
                    f"worker {self.worker_id} crashed at drain: {reason}"
                )
            if self.integrity is not None:
                outputs = _attest_batch(
                    self.integrity,
                    xs,
                    outputs,
                    worker_id=self.worker_id,
                    now_s=now,
                    managers=self.managers,
                )
            if not all_finite(outputs):
                raise WorkerFault(
                    f"worker {self.worker_id} output integrity check failed: "
                    f"non-finite values in {self._outputs_name}"
                )
        except WorkerFault:
            self.batches_failed += 1
            raise
        self.batches_executed += 1
        return outputs

    # ------------------------------------------------------------------
    # Degradation / repair (the breaker's collaborators)
    # ------------------------------------------------------------------
    def degrade(
        self,
        fraction: float,
        stuck_level: int | None = None,
        rng=None,
        stage: int | None = None,
    ) -> int:
        """Inject stuck faults and refresh readback so health reflects them.

        Models a mid-run wear event on one fault domain (``stage``) or,
        with ``stage=None``, on every chip.  The post-injection
        reprogram is what updates each bank's verify readback (and
        therefore ``unconverged_fraction``) — without program-verify
        enabled the damage stays invisible and the worker keeps serving
        degraded.  An external ``rng`` (a chaos injection's derived
        stream) leaves the accelerators' own generators untouched.
        Chaos plans name stages, so a stage this worker lacks raises
        :class:`~repro.errors.ChaosError`.  Returns the number of newly
        stuck cells.
        """
        stages = self.stage_accelerators
        if stage is None:
            accelerators = self.accelerators
        elif 0 <= stage < len(stages):
            accelerators = stages[stage]
        else:
            raise ChaosError(
                f"worker {self.worker_id} has {len(stages)} stage(s); "
                f"stage {stage} does not exist"
            )
        stuck = 0
        for acc in accelerators:
            stuck += acc.inject_stuck_faults(
                fraction, stuck_level=stuck_level, rng=rng
            )
            if acc.verify_writer is not None:
                acc.reprogram_all()
        where = f"worker {self.worker_id}" + (
            "" if stage is None else f" stage {stage}"
        )
        _log.warning(
            "%s degraded: %d stuck cells injected (health %.3f)",
            where, stuck, self.unconverged_fraction,
        )
        return stuck

    def _restore_stages(self) -> None:
        """Re-admit recovered stages after a repair sweep (none here)."""

    def repair(self) -> bool:
        """Walk the fault-repair ladder; True when health is restored.

        Called by the server when a breaker goes half-open — the
        quarantine window is when maintenance runs.  Every attached
        :class:`~repro.faults.FaultManager` sweeps its chip; without one
        a chip cannot self-heal.
        """
        managers = self.managers
        for manager in managers:
            manager.repair()
        self._restore_stages()
        if self.integrity is not None:
            escalated = self.integrity.counters.escalated
            scrub = escalated > self._scrubbed_escalations
            if scrub:
                # Escalated SDC means the data path was provably wrong
                # with no stuck-cell signature the managers could see
                # (drifted realized levels, not a readback fault), so
                # their sweep left the damage in place.  Scrub: reprogram
                # every data tile from the digital weight shadow.  This
                # must happen *before* recalibration — re-baselining
                # thresholds against a corrupted bank would teach the
                # checker to accept the corruption.
                for acc in self.accelerators:
                    acc.reprogram_all()
                self._scrubbed_escalations = escalated
            if managers or scrub:
                # The sweep or scrub rewrote (and possibly migrated) the
                # data tiles; the checksum rows must re-track the new
                # deployment and the thresholds must re-baseline against
                # any residual degradation left within budget, or every
                # post-repair batch would trip.
                self.integrity.rewrite_and_recalibrate()
        _log.info(
            "worker %d repair sweep done: health %.3f (%s)",
            self.worker_id,
            self.unconverged_fraction,
            "restored" if self.healthy else "still degraded",
        )
        return self.healthy
