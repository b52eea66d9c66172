"""Serving one sharded model: a pipeline of accelerators as one worker.

A :class:`ShardedWorker` is an :class:`~repro.serving.worker.
AcceleratorWorker` over a :class:`~repro.sharding.ShardedPipeline`, so
:class:`~repro.serving.server.TridentServer` schedules it without knowing
there are N chips behind the id.  ``execute``, ``degrade`` and
``repair`` are inherited unchanged; the subclass replaces three things:

**Overlapped stage execution.**  ``dispatch_times_s`` runs the classic
flow-shop recurrence over the worker's internal per-stage free times
(``start_k = max(prev_stage_done, stage_free_k)``): the ingest-free
instant it returns is when stage 0 frees — *before* the batch leaves the
last stage — so the server can push batch i+1 into the pipe while batch
i is still in flight (stage k of batch i runs concurrently with stage
k-1 of batch i+1).  With ``overlap=False`` the whole pipe is held
exclusive per batch, which is the serialized baseline the benchmark and
smoke gate compare against.  Scheduling is pure virtual-time arithmetic;
the numpy execution still happens at completion time, so determinism and
the decision log are untouched.

**Per-stage fault domains.**  Every stage carries its own health signal
(worst program-verify ``unconverged_fraction`` across its part
accelerators), its own :class:`~repro.serving.breaker.CircuitBreaker`,
and its parts' :class:`~repro.faults.FaultManager`\\ s.  The compute step
gates each stage in pipeline order: a quarantined or degraded stage fails
the *whole* batch atomically before any output is returned — upstream
stages may have burned symbols (that work is honestly lost), but no
partial or corrupt outputs ever reach a requester, and the server's
normal retry/shed machinery takes over.  The server-level breaker still
sees every failure, so a sick stage quarantines the whole pipeline
worker; ``repair`` (invoked on the server's half-open probe) sweeps every
stage's fault managers and re-closes stage breakers whose cooldown has
elapsed and whose health has recovered.

**Per-stage telemetry.**  Each stage execution runs inside a
``shard_stage`` trace span (worker, stage, parts, batch), and stage
breaker transitions emit structured events — a pipeline run is
observable stage by stage, not as one opaque worker.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dataflow.cost_model import PhotonicArch, forward_batch_latency_s
from repro.errors import ServingError, WorkerFault
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.worker import (
    DISPATCH_OVERHEAD_S,
    UNHEALTHY_THRESHOLD,
    AcceleratorWorker,
    active_unconverged_fraction,
)
from repro.serving.workload import remap_manager
from repro.sharding.pipeline import PipelineStage, ShardedPipeline
from repro.sharding.planner import ShardPlan, reduction_tile_count
from repro.telemetry.log import get_logger
from repro.telemetry.session import (
    counter as _metric_counter,
    emit_event as _emit_event,
    trace_span as _trace_span,
)

_log = get_logger("repro.serving.sharded")

#: Consecutive failed batches that open one stage's breaker.
STAGE_FAILURE_THRESHOLD = 3


class StageRuntime:
    """One pipeline stage as the worker schedules and polices it."""

    def __init__(
        self,
        stage: PipelineStage,
        managers: list,
        breaker: CircuitBreaker,
        arch: PhotonicArch,
        bank_cols: int,
    ) -> None:
        if len(managers) != len(stage.parts):
            raise ServingError(
                f"stage {stage.spec.index}: {len(managers)} fault managers "
                f"for {len(stage.parts)} parts"
            )
        self.stage = stage
        self.managers = managers
        self.breaker = breaker
        self.arch = arch
        #: Column (reduction) tiles of the stage's member layers — row
        #: shards stream the same input concurrently, so the stage's
        #: latency is the plain layer-chain latency regardless of parts.
        self.reduction_tiles = tuple(
            reduction_tile_count(d, bank_cols) for d in stage.spec.dims[:-1]
        )
        #: When this stage's hardware frees (flow-shop bookkeeping).
        self.free_s = 0.0

    @property
    def index(self) -> int:
        """Stage position in the pipeline."""
        return self.stage.spec.index

    def service_time_s(self, batch_size: int) -> float:
        """Cost-model latency of one batch through this stage."""
        return forward_batch_latency_s(
            self.arch,
            self.reduction_tiles,
            batch_size,
            overhead_s=DISPATCH_OVERHEAD_S,
        )

    @property
    def unconverged_fraction(self) -> float:
        """Worst verify non-convergence across the stage's parts."""
        return max(map(active_unconverged_fraction, self.stage.parts))

    def health(self) -> dict:
        """Structured stage-health snapshot."""
        return {
            "stage": self.index,
            "parts": len(self.stage.parts),
            "unconverged_fraction": self.unconverged_fraction,
            "breaker": self.breaker.state.value,
        }


class ShardedWorker(AcceleratorWorker):
    """N stage accelerators serving one model behind one worker id."""

    #: A pipeline has no single chip or manager; see ``accelerators`` and
    #: ``managers``.
    acc = None
    manager = None
    _outputs_name = "drained batch"

    def __init__(
        self,
        worker_id: int,
        pipeline: ShardedPipeline,
        stage_managers: "list[list] | None" = None,
        overlap: bool = True,
        stage_cooldown_s: float = 1e-5,
        integrity=None,
    ) -> None:
        self.pipeline = pipeline
        self.overlap = bool(overlap)
        self.stage_breaker_transitions: list[dict] = []
        config = pipeline.stages[0].parts[0].config
        arch = PhotonicArch.trident(config)
        if stage_managers is None:
            stage_managers = [
                [None] * len(stage.parts) for stage in pipeline.stages
            ]
        if len(stage_managers) != len(pipeline.stages):
            raise ServingError(
                f"{len(stage_managers)} manager groups for "
                f"{len(pipeline.stages)} stages"
            )
        self.stages = [
            StageRuntime(
                stage,
                managers,
                CircuitBreaker(
                    stage.spec.index,
                    failure_threshold=STAGE_FAILURE_THRESHOLD,
                    cooldown_s=stage_cooldown_s,
                    on_transition=self._on_stage_breaker_transition,
                ),
                arch,
                config.bank_cols,
            )
            for stage, managers in zip(pipeline.stages, stage_managers)
        ]
        self._init_common(worker_id, integrity)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def stage_accelerators(self) -> tuple:
        """Each stage's part accelerators, in pipeline order."""
        return tuple(tuple(s.stage.parts) for s in self.stages)

    @property
    def managers(self) -> tuple:
        """Every stage's attached fault managers, in pipeline order."""
        return tuple(
            manager
            for runtime in self.stages
            for manager in runtime.managers
            if manager is not None
        )

    @property
    def stage_breakers(self) -> tuple:
        """Each stage's circuit breaker, in pipeline order."""
        return tuple(s.breaker for s in self.stages)

    def _on_stage_breaker_transition(self, now_s, stage_index, before, to, reason):
        record = {
            "t": now_s,
            "worker": self.worker_id,
            "stage": stage_index,
            "from": before.value,
            "to": to.value,
            "reason": reason,
        }
        self.stage_breaker_transitions.append(record)
        _emit_event("shard_stage_breaker", **record)
        _metric_counter(
            "repro_shard_stage_breaker_transitions_total", to=to.value
        ).inc()
        _log.info(
            "worker %d stage %d breaker: %s -> %s (%s)",
            self.worker_id, stage_index, before.value, to.value, reason,
        )

    # ------------------------------------------------------------------
    # Cost model / overlap schedule
    # ------------------------------------------------------------------
    def _service_time_uncached_s(self, batch_size: int) -> float:
        """End-to-end (pipeline-fill) latency of one batch."""
        return sum(s.service_time_s(batch_size) for s in self.stages)

    def dispatch_times_s(
        self, now_s: float, batch_size: int
    ) -> tuple[float, float]:
        """Flow-shop (ingest-free, finish) instants for a dispatch now.

        Walks the batch through the stages against their current free
        times: ``start_k = max(done_{k-1}, free_k)``.  With overlap the
        worker re-opens for ingest when stage 0 frees; serialized, it
        stays exclusive until the batch exits the last stage.
        """
        done = now_s
        for runtime in self.stages:
            start = max(done, runtime.free_s)
            done = start + runtime.service_time_s(batch_size)
            runtime.free_s = done
        finish = done
        if not self.overlap:
            for runtime in self.stages:
                runtime.free_s = finish
            return finish, finish
        return self.stages[0].free_s, finish

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """True while every stage is within threshold and unquarantined."""
        return super().healthy and all(
            s.breaker.state is not BreakerState.OPEN for s in self.stages
        )

    def health(self) -> dict:
        """Structured health snapshot, stage by stage."""
        return dict(
            super().health(), stages=[s.health() for s in self.stages]
        )

    def _gate(self) -> None:
        """No up-front gate: stages gate one by one in :meth:`_forward`,
        after the dispatch hook has had its chance to fire."""

    def _restore_stages(self) -> None:
        """Walk each recovered stage's breaker OPEN -> HALF_OPEN -> CLOSED.

        The repair sweep is the successful probe; a stage still inside
        its own cooldown stays quarantined until a later window.
        """
        now = self._now()
        for runtime in self.stages:
            recovered = runtime.unconverged_fraction <= UNHEALTHY_THRESHOLD
            if recovered and runtime.breaker.state is not BreakerState.CLOSED:
                if runtime.breaker.allow(now):
                    runtime.breaker.record_success(now)
            _log.info(
                "worker %d stage %d repair: health %.3f, breaker %s",
                self.worker_id,
                runtime.index,
                runtime.unconverged_fraction,
                runtime.breaker.state.value,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _forward(self, xs: np.ndarray, now: float) -> np.ndarray:
        """Run the batch stage by stage; fail atomically on a bad stage.

        Each stage is gated twice — its breaker must allow traffic and
        its health signal must be within threshold — *before* its physics
        runs.  A gate failure raises :class:`~repro.errors.WorkerFault`
        naming the stage: the batch is abandoned whole (stages already
        traversed spent real symbols, but nothing is returned), so
        requesters never see output that a degraded stage touched.
        """
        for runtime in self.stages:
            if not runtime.breaker.allow(now):
                raise WorkerFault(
                    f"worker {self.worker_id} stage {runtime.index} "
                    "quarantined (stage breaker open)"
                )
            fraction = runtime.unconverged_fraction
            if fraction > UNHEALTHY_THRESHOLD:
                runtime.breaker.record_failure(now)
                raise self._degraded_fault(
                    f"worker {self.worker_id} stage {runtime.index}", fraction
                )
            with _trace_span(
                "shard_stage",
                worker=self.worker_id,
                stage=runtime.index,
                parts=len(runtime.stage.parts),
                batch=int(xs.shape[0]),
            ):
                xs = runtime.stage.forward_batch(
                    xs, record=self.integrity is not None
                )
            runtime.breaker.record_success(now)
        return xs


def build_sharded_worker(
    worker_id: int,
    plan: ShardPlan,
    weights: "list[np.ndarray]",
    *,
    config=None,
    overlap: bool = True,
    seed: int = 0,
    program_verify=None,
    with_managers: bool = False,
    spare_pes: int = 0,
    stage_cooldown_s: float = 1e-5,
    with_integrity: bool = False,
    integrity_config=None,
) -> ShardedWorker:
    """Build, program, and (optionally) make repairable a pipeline worker.

    ``with_managers`` attaches a remap-policy :class:`~repro.faults.
    FaultManager` per part (requires ``program_verify``; use the
    deterministic zero-sigma config to keep bit-identity) and reprograms
    every tile once so the managers' detectors hold a readback baseline.
    ``spare_pes`` over-provisions each part's chip beyond the plan
    capacity so migrate-tier repairs have somewhere to go — it never
    changes outputs, only repair headroom.  ``with_integrity`` attaches
    a :class:`~repro.integrity.PipelineChecker` (ABFT checksum rows per
    part, calibrated thresholds, escalation ladder) — size ``spare_pes``
    to leave one PE per column tile of each part's layers free.
    """
    from repro.arch.config import TridentConfig
    from repro.sharding.pipeline import build_pipeline

    config = config or TridentConfig()
    if spare_pes < 0:
        raise ServingError(f"spare_pes must be >= 0, got {spare_pes}")
    build_config = (
        dataclasses.replace(config, n_pes=config.n_pes + spare_pes)
        if spare_pes
        else config
    )
    pipeline = build_pipeline(
        plan,
        weights,
        config=build_config,
        program_verify=program_verify,
        seed=seed,
    )
    stage_managers = None
    if with_managers:
        if program_verify is None:
            raise ServingError(
                "fault managers need program-verify readback; pass a "
                "ProgramVerifyConfig (zero-sigma for bit-identity)"
            )
        stage_managers = [
            [remap_manager(acc) for acc in stage.parts]
            for stage in pipeline.stages
        ]
        # The managers attached after programming: replay every tile
        # write (same weights, same stored scale) so each detector sees
        # a baseline readback per tile.
        for acc in pipeline.accelerators:
            acc.reprogram_all()
    integrity = None
    if with_integrity:
        from repro.integrity.checker import PipelineChecker

        integrity = PipelineChecker(
            pipeline, config=integrity_config, seed=seed
        )
    return ShardedWorker(
        worker_id,
        pipeline,
        stage_managers=stage_managers,
        overlap=overlap,
        stage_cooldown_s=stage_cooldown_s,
        integrity=integrity,
    )
