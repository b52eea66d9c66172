"""Algorithm-based fault tolerance (ABFT) for the photonic MVM.

The classic Huang–Abraham construction, realized in the analog domain:
every mapped layer ``W`` (out x in) gets one extra *checksum row*
``c = 1^T W`` — the column sums — programmed onto its own PCM-MRR bank
tiles, column-aligned with the layer's own tile grid (the same
bank-column split ``repro.sharding`` uses for row shards).  Because the
MVM is linear, a clean forward pass satisfies

    sum_j (W x)_j  ==  c . x

for every sample, so summing a layer's detected outputs and streaming
the *same* encoded input through the checksum row yields two
independently computed analog numbers that must agree up to
quantization and device noise.  Any fault that perturbs one side but
not the other — a stuck cell, a drifted tile, a corrupted readout — is
caught by an O(in) comparison instead of a full O(out x in) shadow
multiply.

**Noise-calibrated tolerance.**  The two sides never agree exactly: the
layer and its checksum row quantize independently on the GST level
grid, program-verify leaves per-cell residue, and detection noise (when
enabled) perturbs both.  Each layer's threshold is therefore

    tau_k = quant_bound_k + margin * worst_calibration_residual_k

where ``quant_bound_k`` is the analytic worst case of per-cell level
error over one input column (``(out_k * scale_k + cs_scale_k) * step *
quant_margin_levels``) and the calibration term is measured on a seeded
pass over the *realized* banks — programming residue, stuck survivors,
and noise are all in the baseline.  Residuals are normalized by
``1 + ||x||_1`` so the bound is input-scale free; for noise-free
hardware the quantization bound alone already guarantees a clean run
can never trip (the property tests hold this across seeds).

A second, purely digital threshold ladder (``sum_j y_j`` vs the weight
shadow's ``c . x``) arbitrates escalations: if the analog checksum row
itself is the faulty element, the digital cross-check exonerates the
data path (see :mod:`repro.integrity.checker`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.arch.control import RangeNormalizer
from repro.errors import IntegrityError


#: Samples per seeded calibration batch.
CALIBRATION_BATCH_SIZE = 32


@dataclasses.dataclass(frozen=True)
class IntegrityConfig:
    """Knobs for checksum attachment and tolerance calibration."""

    #: Seeded calibration pass: batches x ``CALIBRATION_BATCH_SIZE``
    #: uniform inputs.
    calibration_batches: int = 4
    #: Half-width of the uniform calibration input distribution.
    calibration_input_scale: float = 1.5
    #: Multiplier on the worst calibration residual (noise headroom).
    margin: float = 2.0
    #: Per-cell level error the analytic quantization bound allows for.
    #: 1.0 is provable for converged cells either way the bank was
    #: programmed: the program-verify acceptance tolerance is ±1 level
    #: *total* (rounding included), and nominal writes round to ≤ 0.5
    #: level.  Unconverged survivors and detection noise are what the
    #: measured ``margin`` term exists to absorb.
    quant_margin_levels: float = 1.0

    def __post_init__(self) -> None:
        if self.calibration_batches < 1:
            raise IntegrityError("calibration needs at least one batch")
        if self.calibration_input_scale <= 0:
            raise IntegrityError("calibration input scale must be positive")
        if self.margin < 1.0:
            raise IntegrityError(
                f"margin must be >= 1 (it multiplies a worst case), "
                f"got {self.margin}"
            )
        if self.quant_margin_levels <= 0:
            raise IntegrityError("quantization margin must be positive")


@dataclasses.dataclass
class Violation:
    """One tripped layer check: where, how far out, against what."""

    layer: int
    residual: float
    threshold: float
    #: Sharded context (part accelerator within a pipeline stage).
    stage: int | None = None
    part: int | None = None

    def as_dict(self) -> dict:
        """JSON-safe record for incidents and events."""
        return {
            "layer": int(self.layer),
            "residual": float(self.residual),
            "threshold": float(self.threshold),
            "stage": self.stage,
            "part": self.part,
        }


class ChecksumUnit:
    """Checksum rows + calibrated thresholds for one accelerator.

    Owns the extra PEs carrying each layer's checksum row (allocated
    beyond the layer mapping, never entering ``layer.tiles`` so health
    signals and fault repair see only data tiles), the per-layer
    checksum vectors/scales, and the calibrated analog + digital
    thresholds.  All hardware work — checksum-tile writes, verification
    streams — is charged to the accelerator's event counters exactly
    like data-path work: integrity is not free and the energy model
    says so.
    """

    def __init__(
        self, acc, config: IntegrityConfig | None = None, seed: int = 0
    ) -> None:
        if not acc.layers:
            raise IntegrityError("map and program a network before attaching")
        if any(layer.weights is None for layer in acc.layers):
            raise IntegrityError("all layers need programmed weights")
        self.acc = acc
        self.config = config or IntegrityConfig()
        self.seed = int(seed)
        #: Per layer: list of (c0, c1, pe_index) checksum tiles.
        self.tiles: list[list[tuple[int, int, int]]] = []
        #: Per layer: checksum vector (true units) and its analog scale.
        self.vectors: list[np.ndarray] = []
        self.scales: list[float] = []
        self.thresholds: np.ndarray | None = None
        self.digital_thresholds: np.ndarray | None = None
        self._calibrations = 0
        self._attach()

    # ------------------------------------------------------------------
    # Attachment / programming
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        acc = self.acc
        cols = acc.config.bank_cols
        needed = sum(-(-layer.in_dim // cols) for layer in acc.layers)
        if len(acc.pes) + needed > acc.config.n_pes:
            raise IntegrityError(
                f"checksum rows need {needed} extra PE tiles but only "
                f"{acc.config.n_pes - len(acc.pes)} of {acc.config.n_pes} "
                "PEs are unallocated; enlarge n_pes to attach integrity"
            )
        for layer in acc.layers:
            tiles: list[tuple[int, int, int]] = []
            for c0 in range(0, layer.in_dim, cols):
                pe_index = len(acc.pes)
                acc._new_pe()
                tiles.append((c0, min(c0 + cols, layer.in_dim), pe_index))
            self.tiles.append(tiles)
            self.vectors.append(np.zeros(layer.in_dim))
            self.scales.append(1.0)
        self.rewrite()

    def rewrite(self) -> None:
        """(Re)program every checksum tile from the weight shadows.

        Run at attach, and again whenever the data tiles are rewritten
        (repair sweeps) so the checksum rows track the same deployment.
        Each write is charged like any tile write — no free scrubs.
        """
        acc = self.acc
        for k, layer in enumerate(acc.layers):
            c = np.asarray(layer.weights, dtype=np.float64).sum(axis=0)
            peak = float(np.max(np.abs(c))) if c.size else 0.0
            scale = peak if peak > 1.0 else 1.0
            self.vectors[k] = c
            self.scales[k] = scale
            for c0, c1, pe_index in self.tiles[k]:
                block = (c[c0:c1] / scale).reshape(1, -1)
                pe = acc.pes[pe_index]
                if acc.verify_writer is not None:
                    pe.bank.program_verified(block, acc.verify_writer)
                else:
                    pe.program_weights(block)
                acc.counters.bank_writes += 1
                acc.counters.cells_written += block.size

    # ------------------------------------------------------------------
    # The two checksum computations
    # ------------------------------------------------------------------
    def analog_sums(self, layer_index: int, inputs: np.ndarray) -> np.ndarray:
        """Stream the layer's (B, in) inputs through its checksum row.

        Encodes the inputs exactly as the data path did (per-sample
        normalization) and accumulates the checksum tiles' detected
        outputs — the analog ``c . x`` per sample, in true units.  When
        ``inputs`` is the layer's recorded batch, the forward pass's
        cached E/O encoding is re-streamed directly (the hot verify
        path; saves an O(in x B) re-encode).  Charges one streamed
        symbol per tile per sample, the same per-bank rule as
        ``forward_batch``.
        """
        acc = self.acc
        layer = acc.layers[layer_index]
        batch = inputs.shape[0]
        if (
            inputs is layer.last_input_batch
            and layer.last_enc_batch is not None
        ):
            enc, scales = layer.last_enc_batch, layer.last_enc_scales
        else:
            enc, scales = RangeNormalizer.normalize_columns(inputs.T)
        total = np.zeros(batch, dtype=np.float64)
        for c0, c1, pe_index in self.tiles[layer_index]:
            part = acc.pes[pe_index].forward_batch(
                # The encoder bounded the slab; skip the range re-check.
                enc[c0:c1], capture_derivative=False, validate=False,
            )
            total += part[0]
            acc.counters.symbols += batch
        return total * scales * self.scales[layer_index]

    def digital_sums(self, layer_index: int, inputs: np.ndarray) -> np.ndarray:
        """The control unit's exact ``c . x`` from the weight shadow."""
        return inputs @ self.vectors[layer_index]

    # ------------------------------------------------------------------
    # Residuals / verification
    # ------------------------------------------------------------------
    def _layer_io(self, outputs: np.ndarray | None):
        """Yield ``(k, inputs, observed_sums)`` per layer.

        Hidden layers (and any layer that fires an activation) check
        their recorded pre-activation logits; the final activation-free
        layer checks ``outputs`` — the array actually handed to the
        caller — so corruption applied after the physics (the silent-SDC
        model) is still in scope.  Requires ``forward_batch(record=True)``.
        """
        last = len(self.acc.layers) - 1
        for k, layer in enumerate(self.acc.layers):
            inputs = layer.last_input_batch
            if inputs is None:
                raise IntegrityError(
                    f"layer {k} has no recorded batch; run "
                    "forward_batch(..., record=True) before verifying"
                )
            if k == last and not layer.apply_activation and outputs is not None:
                observed = np.asarray(outputs, dtype=np.float64)
            else:
                observed = layer.last_logits_batch
            yield k, inputs, observed.sum(axis=1)

    def _input_l1(self, layer_index: int, inputs: np.ndarray) -> np.ndarray:
        """Per-sample ``||x||_1`` for a layer's (B, in) input batch.

        When ``inputs`` is the layer's recorded batch the norm was already
        computed as a byproduct of the E/O peak scan
        (:meth:`~repro.arch.control.RangeNormalizer.normalize_columns`
        with ``return_l1``) — the recorded batch itself is a transpose
        view, and taking ``|inputs|`` would materialize it
        column-by-column on the hot verify path.
        """
        layer = self.acc.layers[layer_index]
        if inputs is layer.last_input_batch and layer.last_l1_batch is not None:
            return layer.last_l1_batch
        return np.abs(inputs).sum(axis=1)

    @staticmethod
    def _normalized_residual(
        sums: np.ndarray, reference: np.ndarray, input_l1: np.ndarray
    ) -> float:
        norm = 1.0 + input_l1
        return float(np.max(np.abs(sums - reference) / norm))

    def analog_residuals(self, outputs: np.ndarray | None = None) -> np.ndarray:
        """Worst normalized |sum(y) - analog c.x| per layer."""
        return np.array(
            [
                self._normalized_residual(
                    sums, self.analog_sums(k, inputs), self._input_l1(k, inputs)
                )
                for k, inputs, sums in self._layer_io(outputs)
            ]
        )

    def digital_residuals(self, outputs: np.ndarray | None = None) -> np.ndarray:
        """Worst normalized |sum(y) - digital c.x| per layer."""
        return np.array(
            [
                self._normalized_residual(
                    sums, self.digital_sums(k, inputs), self._input_l1(k, inputs)
                )
                for k, inputs, sums in self._layer_io(outputs)
            ]
        )

    def violations(
        self,
        outputs: np.ndarray | None = None,
        *,
        stage: int | None = None,
        part: int | None = None,
    ) -> list[Violation]:
        """Layers whose analog checksum residual exceeds its threshold."""
        if self.thresholds is None:
            raise IntegrityError("calibrate thresholds before verifying")
        residuals = self.analog_residuals(outputs)
        return [
            Violation(k, float(r), float(t), stage=stage, part=part)
            for k, (r, t) in enumerate(zip(residuals, self.thresholds))
            if r > t
        ]

    def digital_ok(self, outputs: np.ndarray | None = None) -> bool:
        """True when every layer passes the digital-shadow cross-check."""
        if self.digital_thresholds is None:
            raise IntegrityError("calibrate thresholds before verifying")
        residuals = self.digital_residuals(outputs)
        return bool(np.all(residuals <= self.digital_thresholds))

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _weight_step(self) -> float:
        levels = int(self.acc.config.tuning.levels)
        return 2.0 / (levels - 1)

    def calibrate(self) -> np.ndarray:
        """Seeded pass over the realized banks -> per-layer thresholds.

        Draws uniform input batches from a generator derived from
        ``(seed, calibration_round)`` (re-calibrating after a repair
        sweep measures the repaired state, deterministically), records
        forward passes, and sets each layer's threshold to the analytic
        quantization bound plus ``margin`` times the worst observed
        residual.  The calibration forwards run the real physics and are
        charged like any other traffic.  Returns the analog thresholds.
        """
        cfg = self.config
        acc = self.acc
        rng = np.random.default_rng(
            (0x5DC, self.seed, self._calibrations)
        )
        self._calibrations += 1
        n_layers = len(acc.layers)
        worst_analog = np.zeros(n_layers)
        worst_digital = np.zeros(n_layers)
        in_dim = acc.layers[0].in_dim
        for _ in range(cfg.calibration_batches):
            xs = rng.uniform(
                -cfg.calibration_input_scale,
                cfg.calibration_input_scale,
                (CALIBRATION_BATCH_SIZE, in_dim),
            )
            acc.forward_batch(xs, record=True)
            worst_analog = np.maximum(worst_analog, self.analog_residuals())
            worst_digital = np.maximum(
                worst_digital, self.digital_residuals()
            )
        step = self._weight_step()
        lev = cfg.quant_margin_levels
        quant_analog = np.array(
            [
                (layer.out_dim * layer.weight_scale + self.scales[k])
                * step
                * lev
                for k, layer in enumerate(acc.layers)
            ]
        )
        quant_digital = np.array(
            [
                layer.out_dim * layer.weight_scale * step * lev
                for layer in acc.layers
            ]
        )
        self.thresholds = quant_analog + cfg.margin * worst_analog
        self.digital_thresholds = quant_digital + cfg.margin * worst_digital
        return self.thresholds
