"""Output attestation and the SDC escalation ladder.

:class:`IntegrityChecker` wraps one accelerator's
:class:`~repro.integrity.abft.ChecksumUnit`;
:class:`PipelineChecker` wraps every part accelerator of a
:class:`~repro.sharding.pipeline.ShardedPipeline`.  Both expose the same
surface — ``verify`` / ``digital_ok`` / ``reexecute`` /
``rewrite_and_recalibrate`` — so :func:`attest_batch` can run the same
ladder for single-chip and sharded workers:

1. **Verify.**  Analog checksum residuals against calibrated
   thresholds.  Clean → done (the overwhelmingly common path: one
   checksum-row MVM per layer, benched < 5% of the forward).
2. **Re-execute once.**  Transients (and consumed one-shot chaos
   injections) don't repeat; a clean second pass settles the batch and
   counts as ``reexec_recovered``.
3. **Digital-spare cross-check.**  The control unit's weight shadow
   recomputes the checksum exactly.  If the *digital* check passes, the
   data path is fine and the analog checksum row itself is the faulty
   element — a false alarm, accepted as ``spare_confirmed`` (and worth a
   rewrite at the next repair sweep).
4. **Escalate.**  Both passes dirty and the spare agrees the output is
   wrong: raise :class:`~repro.errors.IntegrityFault` (a retryable
   ``WorkerFault``) so the server retries the batch on a *peer* worker,
   the breaker records the failure, and the rollup's SDC-rate signal
   feeds fleet quarantine.

Counter conservation — ``tripped == reexec_recovered + spare_confirmed
+ escalated`` and ``checks >= tripped`` — is a post-run audit invariant
(:func:`repro.chaos.audit.audit_serve_run`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import telemetry
from repro.errors import IntegrityError, IntegrityFault
from repro.integrity.abft import ChecksumUnit, IntegrityConfig


@dataclasses.dataclass
class IntegrityCounters:
    """Attestation outcome tallies (conserved; audited post-run)."""

    checks: int = 0
    tripped: int = 0
    reexec_recovered: int = 0
    spare_confirmed: int = 0
    escalated: int = 0

    def conserved(self) -> bool:
        """Every trip resolved to exactly one ladder outcome."""
        return (
            self.tripped
            == self.reexec_recovered + self.spare_confirmed + self.escalated
            and self.checks >= self.tripped
        )

    def as_dict(self) -> dict:
        """JSON-safe counter snapshot."""
        return dataclasses.asdict(self)


class IntegrityChecker:
    """ABFT attestation for a single accelerator worker."""

    def __init__(
        self, acc, config: IntegrityConfig | None = None, seed: int = 0
    ) -> None:
        self.config = config or IntegrityConfig()
        self.unit = ChecksumUnit(acc, self.config, seed=seed)
        self.unit.calibrate()
        self.counters = IntegrityCounters()
        #: Escalated/recovered SDC incidents, for the post-run audit.
        self.incidents: list[dict] = []

    def verify(self, outputs: np.ndarray):
        """Analog checksum violations for the last recorded forward."""
        return self.unit.violations(outputs)

    def digital_ok(self, outputs: np.ndarray) -> bool:
        """Exact digital-shadow checksum verdict (the rung-3 spare)."""
        return self.unit.digital_ok(outputs)

    def reexecute(self, xs: np.ndarray) -> np.ndarray:
        """Second forward pass for the rung-2 transient check."""
        return self.unit.acc.forward_batch(xs, record=True)

    def rewrite_and_recalibrate(self) -> None:
        """Re-track the data tiles after a repair sweep.

        Repair rewrites data tiles (possibly onto migrated PEs) and may
        leave residual degradation within budget; the checksum rows must
        follow the new deployment and the thresholds must re-baseline
        against it, or every post-repair batch would trip.
        """
        self.unit.rewrite()
        self.unit.calibrate()


class PipelineChecker:
    """ABFT attestation for every part of a sharded pipeline.

    One :class:`ChecksumUnit` per part accelerator, each with a seed
    derived from ``(seed, stage, part)`` so calibration draws are
    independent but replay-stable.  ``verify`` checks hidden layers from
    their recordings and maps the worker's final outputs back onto the
    last stage's row-sharded column ranges.
    """

    def __init__(
        self, pipeline, config: IntegrityConfig | None = None, seed: int = 0
    ) -> None:
        self.config = config or IntegrityConfig()
        self.pipeline = pipeline
        self.units: list[list[ChecksumUnit]] = []
        for s, stage in enumerate(pipeline.stages):
            row = []
            for p, part in enumerate(stage.parts):
                unit = ChecksumUnit(
                    part, self.config, seed=hash((seed, s, p)) & 0x7FFFFFFF
                )
                unit.calibrate()
                row.append(unit)
            self.units.append(row)
        self.counters = IntegrityCounters()
        self.incidents: list[dict] = []

    def _final_slices(self):
        """(unit, col0, col1) per part of the last stage."""
        stage_units = self.units[-1]
        parts = self.pipeline.stages[-1].parts
        col = 0
        for part, unit in zip(parts, stage_units):
            width = part.layers[-1].out_dim
            yield unit, col, col + width
            col += width

    def verify(self, outputs: np.ndarray):
        """Checksum violations across every stage/part of the pipeline."""
        violations = []
        for s, (stage, row) in enumerate(zip(self.pipeline.stages, self.units)):
            last = s == len(self.units) - 1
            if last:
                for p, (unit, c0, c1) in enumerate(self._final_slices()):
                    violations.extend(
                        unit.violations(outputs[:, c0:c1], stage=s, part=p)
                    )
            else:
                for p, unit in enumerate(row):
                    violations.extend(unit.violations(stage=s, part=p))
        return violations

    def digital_ok(self, outputs: np.ndarray) -> bool:
        """Exact digital-shadow verdict over every stage/part."""
        for s, row in enumerate(self.units):
            last = s == len(self.units) - 1
            if last:
                for unit, c0, c1 in self._final_slices():
                    if not unit.digital_ok(outputs[:, c0:c1]):
                        return False
            else:
                for unit in row:
                    if not unit.digital_ok(None):
                        return False
        return True

    def reexecute(self, xs: np.ndarray) -> np.ndarray:
        """Replay the batch through all stages for the rung-2 check."""
        value = xs
        for stage in self.pipeline.stages:
            value = stage.forward_batch(value, record=True)
        return value

    def rewrite_and_recalibrate(self) -> None:
        """Re-track every part's checksum rows after a repair sweep."""
        for row in self.units:
            for unit in row:
                unit.rewrite()
                unit.calibrate()


def attest_batch(
    checker,
    xs: np.ndarray,
    outputs: np.ndarray,
    *,
    worker_id: int,
    now_s: float,
    managers=(),
) -> np.ndarray:
    """Run the escalation ladder over one executed batch.

    Returns the attested outputs (the re-executed batch when rung 2
    recovered) or raises :class:`~repro.errors.IntegrityFault`.  Every
    fault manager in ``managers`` gets escalations charged to its repair
    log so worker health reflects SDC history.
    """
    counters = checker.counters
    with telemetry.trace_span("integrity_check", worker=worker_id):
        counters.checks += 1
        violations = checker.verify(outputs)
        if not violations:
            return outputs
        counters.tripped += 1
        telemetry.counter(
            "repro_sdc_detected_total",
            "ABFT checksum violations detected",
        ).inc()
        detail = [v.as_dict() for v in violations]
        telemetry.emit_event(
            "sdc_detected", worker=worker_id, t_s=now_s, violations=detail
        )

        # Rung 2: transients don't repeat — re-execute once and re-verify.
        retried = checker.reexecute(xs)
        if not checker.verify(retried):
            counters.reexec_recovered += 1
            checker.incidents.append(
                {
                    "t": now_s,
                    "worker": worker_id,
                    "action": "reexec_recovered",
                    "violations": detail,
                }
            )
            return retried

        # Rung 3: the digital spare arbitrates — if the exact shadow
        # checksum passes, the analog checksum row is the broken part,
        # not the data path.
        if checker.digital_ok(retried):
            counters.spare_confirmed += 1
            checker.incidents.append(
                {
                    "t": now_s,
                    "worker": worker_id,
                    "action": "spare_confirmed",
                    "violations": detail,
                }
            )
            return retried

        # Rung 4: corrupt beyond local recovery — fail the batch over to
        # a peer and feed every health signal.
        counters.escalated += 1
        telemetry.counter(
            "repro_sdc_escalations_total",
            "SDC incidents escalated to peer retry",
        ).inc()
        checker.incidents.append(
            {
                "t": now_s,
                "worker": worker_id,
                "action": "escalated",
                "violations": detail,
            }
        )
        for manager in managers:
            manager.note_sdc()
        raise IntegrityFault(
            f"worker {worker_id}: batch failed ABFT attestation after "
            f"re-execution and digital cross-check "
            f"({len(detail)} layer violation(s))"
        )


__all__ = [
    "IntegrityChecker",
    "IntegrityCounters",
    "IntegrityError",
    "IntegrityFault",
    "PipelineChecker",
    "attest_batch",
]
