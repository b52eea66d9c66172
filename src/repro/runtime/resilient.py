"""Resilient in-situ training: periodic checkpoints, divergence rollback,
learning-rate backoff, and repair-on-rollback.

The paper's in-situ training story (Sec. III-A-2) assumes runs finish.  On
wear-limited PCM hardware they often don't: a loss can go non-finite when
quantized updates resonate with stuck cells, a spike can wipe out hours of
progress, and every reprogram burned before a crash is endurance the
device never gets back.  :class:`ResilientTrainer` wraps
:class:`~repro.training.insitu.InSituTrainer` with the run harness a
durable deployment needs:

- **Checkpoint every N steps** through a
  :class:`~repro.runtime.checkpoint.CheckpointStore` — the full
  accelerator snapshot (:meth:`~repro.arch.TridentAccelerator.state_dict`)
  plus trainer progress (step, learning rate, loss history) and, when a
  :class:`~repro.faults.FaultManager` is attached, its detector strike
  maps, so a resumed run's repair decisions match an uninterrupted one.
- **Detect divergence**: a non-finite loss, a loss above
  ``spike_factor`` x the recent median, or a hardware-model exception
  mid-step all count.
- **Roll back + back off**: restore the last good checkpoint, multiply
  the learning rate by ``lr_backoff`` per consecutive retry (exponential
  backoff, floored at ``min_lr``), and run a
  :meth:`~repro.faults.FaultManager.repair` sweep first — divergence
  caused by freshly stuck cells gets *repaired*, not blindly retried.
- **Abort gracefully**: after ``max_retries`` consecutive failed retries
  the run stops with a structured :class:`RunReport` (never a stack
  trace), its checkpoints intact for post-mortem or manual resume.

Determinism: the batch schedule is a pure function of ``(data seed,
step)``, and rollback/resume restore the accelerator RNG in place, so a
run interrupted at any checkpoint boundary and resumed — in the same
process or a fresh one — produces bit-identical losses, weights, and
event counters to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from repro.errors import CheckpointError, ConfigError, ReproError
from repro.nn.datasets import Dataset
from repro.runtime.checkpoint import CheckpointStore
from repro.telemetry.log import get_logger
from repro.telemetry.session import (
    counter as _metric_counter,
    emit_event as _emit_event,
)

_CHECKPOINT_KIND = "training"

_log = get_logger("repro.runtime.resilient")


#: Number of recent losses the spike detector medians over.
SPIKE_WINDOW = 5
#: Checkpoints retained on disk.
KEEP_LAST = 3


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the checkpoint/rollback harness."""

    #: Write a checkpoint every this many completed steps.
    checkpoint_every: int = 5
    #: Consecutive rollbacks tolerated before the run aborts gracefully.
    max_retries: int = 3
    #: Learning-rate multiplier per consecutive retry (exponential).
    lr_backoff: float = 0.5
    #: Floor under the backed-off learning rate.
    min_lr: float = 1e-4
    #: A finite loss counts as divergence above this multiple of the
    #: recent-median loss (guards against blow-ups that never reach inf).
    spike_factor: float = 25.0

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ConfigError(
                f"lr_backoff must lie in (0, 1], got {self.lr_backoff}"
            )
        if self.min_lr <= 0:
            raise ConfigError(f"min_lr must be positive, got {self.min_lr}")
        if self.spike_factor <= 1.0:
            raise ConfigError(
                f"spike_factor must exceed 1, got {self.spike_factor}"
            )


@dataclass(frozen=True)
class RunIncident:
    """One detected divergence and the recovery that answered it."""

    step: int
    loss: float
    reason: str
    restored_step: int
    lr_after: float

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (stable key order)."""
        return {
            "step": self.step,
            "loss": self.loss,
            "reason": self.reason,
            "restored_step": self.restored_step,
            "lr_after": self.lr_after,
        }


@dataclass
class RunReport:
    """Structured outcome of a resilient training run."""

    completed: bool
    aborted_reason: str | None
    steps_completed: int
    total_steps: int
    final_loss: float
    final_lr: float
    losses: list[float] = field(default_factory=list)
    rollbacks: int = 0
    checkpoints_written: int = 0
    resumed_from_step: int | None = None
    incidents: list[RunIncident] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (stable key order) for exports and tests."""
        return {
            "completed": self.completed,
            "aborted_reason": self.aborted_reason,
            "steps_completed": self.steps_completed,
            "total_steps": self.total_steps,
            "final_loss": self.final_loss,
            "final_lr": self.final_lr,
            "losses": list(self.losses),
            "rollbacks": self.rollbacks,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from_step": self.resumed_from_step,
            "incidents": [i.as_dict() for i in self.incidents],
        }

    def render(self) -> str:
        """Human-readable summary."""
        lines = [
            f"resilient run: {self.steps_completed}/{self.total_steps} steps "
            + ("completed" if self.completed else f"ABORTED ({self.aborted_reason})"),
            f"  final loss {self.final_loss:.6f}  final lr {self.final_lr:.6g}",
            f"  rollbacks {self.rollbacks}  checkpoints {self.checkpoints_written}"
            + (
                f"  resumed from step {self.resumed_from_step}"
                if self.resumed_from_step is not None
                else ""
            ),
        ]
        for incident in self.incidents:
            lines.append(
                f"  step {incident.step}: {incident.reason} (loss "
                f"{incident.loss:.3g}) -> restored step "
                f"{incident.restored_step}, lr {incident.lr_after:.6g}"
            )
        return "\n".join(lines)


class ResilientTrainer:
    """Checkpointing, self-healing wrapper around an in-situ trainer.

    ``step_hook`` is an instrumentation seam: called before each step with
    the step index, and if it returns a float that value is taken as the
    step's observed loss (the hardware step is skipped) — how tests and
    the CLI inject a NaN-loss step to exercise the rollback ladder without
    corrupting device state.
    """

    def __init__(
        self,
        trainer,
        checkpoint_dir,
        config: ResilienceConfig | None = None,
        manager=None,
        step_hook=None,
    ) -> None:
        self.trainer = trainer
        self.config = config or ResilienceConfig()
        self.store = CheckpointStore(checkpoint_dir, keep_last=KEEP_LAST)
        self.manager = manager
        self.step_hook = step_hook
        self._last_payload: dict | None = None

    # ------------------------------------------------------------------
    # Deterministic batch schedule
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_at(
        data: Dataset, batch_size: int, seed: int, step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The minibatch for one global step — a pure function of
        ``(seed, step)``, so rollback and resume replay identical data."""
        per_epoch = ceil(data.n_samples / batch_size)
        epoch, index = divmod(step, per_epoch)
        order = np.random.default_rng(seed + epoch).permutation(data.n_samples)
        chosen = order[index * batch_size : (index + 1) * batch_size]
        return data.x[chosen], data.y[chosen]

    # ------------------------------------------------------------------
    # Snapshot plumbing
    # ------------------------------------------------------------------
    def _run_fingerprint(
        self, data: Dataset, batch_size: int, seed: int
    ) -> dict:
        return {
            "batch_size": batch_size,
            "data_seed": seed,
            "n_samples": data.n_samples,
            "n_features": data.n_features,
        }

    def _snapshot(
        self,
        step: int,
        losses: list[float],
        rollbacks: int,
        incidents: list[RunIncident],
        run_fingerprint: dict,
    ) -> dict:
        payload = {
            "step": step,
            "run": run_fingerprint,
            "lr": self.trainer.lr,
            "losses": list(losses),
            "rollbacks": rollbacks,
            "incidents": [i.as_dict() for i in incidents],
            "accelerator": self.trainer.acc.state_dict(),
            "manager": None if self.manager is None else self.manager.state_dict(),
        }
        self.store.save(step, payload, kind=_CHECKPOINT_KIND)
        self._last_payload = payload
        _log.debug("checkpoint written at step %d", step)
        _metric_counter("repro_checkpoints_written_total").inc()
        _emit_event("checkpoint", step=step, lr=self.trainer.lr)
        return payload

    def _restore(self, payload: dict) -> None:
        self.trainer.acc.load_state_dict(payload["accelerator"])
        self.trainer.lr = float(payload["lr"])
        if self.manager is not None and payload.get("manager") is not None:
            self.manager.load_state_dict(payload["manager"])

    # ------------------------------------------------------------------
    def _diverged(self, loss: float, losses: list[float]) -> str | None:
        """Reason string if this step's loss means divergence, else None."""
        if not np.isfinite(loss):
            return "non-finite loss"
        window = [v for v in losses[-SPIKE_WINDOW:] if np.isfinite(v)]
        if window:
            baseline = float(np.median(window))
            if baseline > 0 and loss > self.config.spike_factor * baseline:
                return (
                    f"loss spike ({loss:.3g} > {self.config.spike_factor:g} x "
                    f"median {baseline:.3g})"
                )
        return None

    # ------------------------------------------------------------------
    def run(
        self,
        data: Dataset,
        steps: int,
        batch_size: int = 16,
        seed: int = 0,
        resume: bool = False,
        max_steps_this_run: int | None = None,
    ) -> RunReport:
        """Train for ``steps`` optimizer steps with the full harness.

        With ``resume`` the newest verifiable checkpoint in the store is
        restored first (its run fingerprint must match this call's data
        and batch schedule).  ``max_steps_this_run`` stops the process
        after that many *executed* steps without a final checkpoint —
        the crash-simulation hook used by tests and ``repro resume
        --smoke``; such a run reports ``completed=False`` and resumes
        cleanly later.  Returns a :class:`RunReport`; never raises on
        divergence — an exhausted retry budget aborts gracefully instead.
        """
        if steps < 1:
            raise ConfigError(f"steps must be >= 1, got {steps}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        fingerprint = self._run_fingerprint(data, batch_size, seed)

        start_step = 0
        losses: list[float] = []
        rollbacks = 0
        incidents: list[RunIncident] = []
        resumed_from: int | None = None
        if resume:
            newest = self.store.latest(expect_kind=_CHECKPOINT_KIND)
            if newest is not None:
                step_found, payload = newest
                if payload["run"] != fingerprint:
                    raise CheckpointError(
                        "checkpointed run does not match this invocation: "
                        f"snapshot {payload['run']} vs requested {fingerprint}"
                    )
                self._restore(payload)
                self._last_payload = payload
                start_step = int(payload["step"])
                losses = [float(v) for v in payload["losses"]]
                rollbacks = int(payload["rollbacks"])
                incidents = [
                    RunIncident(
                        step=int(i["step"]),
                        loss=float(i["loss"]),
                        reason=str(i["reason"]),
                        restored_step=int(i["restored_step"]),
                        lr_after=float(i["lr_after"]),
                    )
                    for i in payload["incidents"]
                ]
                resumed_from = step_found
                _log.info(
                    "resuming from checkpoint at step %d (lr %.6g)",
                    step_found, self.trainer.lr,
                )
                _emit_event("resume", step=step_found, lr=self.trainer.lr)

        checkpoints_written = 0
        if self._last_payload is None:
            # Anchor checkpoint: rollback always has a target, and a crash
            # before the first cadence point still resumes.
            self._snapshot(start_step, losses, rollbacks, incidents, fingerprint)
            checkpoints_written += 1

        step = start_step
        executed = 0
        retries = 0

        def report(completed: bool, reason: str | None) -> RunReport:
            return RunReport(
                completed=completed,
                aborted_reason=reason,
                steps_completed=step,
                total_steps=steps,
                final_loss=losses[-1] if losses else float("nan"),
                final_lr=self.trainer.lr,
                losses=list(losses),
                rollbacks=rollbacks,
                checkpoints_written=checkpoints_written,
                resumed_from_step=resumed_from,
                incidents=list(incidents),
            )

        while step < steps:
            if max_steps_this_run is not None and executed >= max_steps_this_run:
                return report(False, "halted (simulated crash)")
            forced = self.step_hook(step) if self.step_hook is not None else None
            failure: str | None = None
            if forced is not None:
                loss = float(forced)
            else:
                xb, yb = self._batch_at(data, batch_size, seed, step)
                try:
                    loss = float(self.trainer.train_step(xb, yb))
                except (ReproError, FloatingPointError) as exc:
                    loss = float("inf")
                    failure = f"hardware-model error: {exc}"
            executed += 1
            reason = failure or self._diverged(loss, losses)

            if reason is not None:
                rollbacks += 1
                retries += 1
                if retries > self.config.max_retries:
                    incidents.append(
                        RunIncident(
                            step=step,
                            loss=loss,
                            reason=f"{reason}; retry budget exhausted",
                            restored_step=int(self._last_payload["step"]),
                            lr_after=self.trainer.lr,
                        )
                    )
                    _log.error(
                        "aborting at step %d: %s; %d retries exhausted",
                        step, reason, self.config.max_retries,
                    )
                    _metric_counter("repro_run_aborts_total").inc()
                    _emit_event(
                        "training_abort",
                        step=step,
                        reason=reason,
                        retries=self.config.max_retries,
                    )
                    return report(
                        False,
                        f"{reason} at step {step}; "
                        f"{self.config.max_retries} retries exhausted",
                    )
                payload = self._last_payload
                self._restore(payload)
                # Exponential backoff from the checkpoint's learning rate.
                self.trainer.lr = max(
                    self.config.min_lr,
                    float(payload["lr"]) * self.config.lr_backoff**retries,
                )
                if self.manager is not None:
                    # Repair before retrying: divergence driven by freshly
                    # stuck cells is fixed, not replayed.
                    self.manager.repair()
                restored = int(payload["step"])
                incidents.append(
                    RunIncident(
                        step=step,
                        loss=loss,
                        reason=reason,
                        restored_step=restored,
                        lr_after=self.trainer.lr,
                    )
                )
                _log.warning(
                    "rollback at step %d (%s): restored step %d, lr %.6g",
                    step, reason, restored, self.trainer.lr,
                )
                _metric_counter("repro_rollbacks_total").inc()
                _emit_event(
                    "rollback",
                    step=step,
                    reason=reason,
                    restored_step=restored,
                    lr_after=self.trainer.lr,
                )
                del losses[restored:]
                step = restored
                continue

            losses.append(loss)
            step += 1
            if step % self.config.checkpoint_every == 0:
                self._snapshot(step, losses, rollbacks, incidents, fingerprint)
                checkpoints_written += 1
                retries = 0

        if self._last_payload is None or int(self._last_payload["step"]) != step:
            self._snapshot(step, losses, rollbacks, incidents, fingerprint)
            checkpoints_written += 1
        return report(True, None)
