"""One Trident processing element (paper Fig 1, right).

A PE is: a J x N PCM-MRR weight bank, J balanced photodetectors (one per
row), J programmable-gain TIAs, one LDSU (J comparator+flip-flop rows), J
E/O lasers re-encoding the row outputs onto fresh wavelengths, and J GST
activation cells.  The same silicon computes three different products
depending on the control unit's encoding (Table II):

- :meth:`forward_batch` — inference: h = W x, capturing f'(h) in the LDSU
  (the accelerator fires the activation once a layer's tiles have summed).
- :meth:`gradient_vector_batch` — training step 1: (W_{k+1}^T d_{k+1}) ⊙
  f'(h_k), the Hadamard realized by programming the TIA gains from the
  LDSU bits.
- :meth:`outer_product_batch` — training step 2: dW_k = d_k ⊗ y_{k-1},
  streamed one wavelength per symbol through the bank; a batch returns
  the weighted sum of its B gradient blocks.

Each mode takes a batch of B samples, one column (or row) per sample; a
single sample is the B = 1 case.  All vector math is normalized to the
analog [-1, 1] range; the accelerator's control unit owns the scale
factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.weight_bank import WeightBank
from repro.devices.activation_cell import GSTActivationCell
from repro.devices.ldsu import LDSU
from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector
from repro.devices.tia import TransimpedanceAmplifier
from repro.errors import ShapeError


@dataclass
class ProcessingElement:
    """Weight bank + row electronics + photonic activation."""

    bank: WeightBank = field(default_factory=WeightBank)
    bpd: BalancedPhotodetector = field(default_factory=BalancedPhotodetector)
    ldsu: LDSU | None = None
    activation: GSTActivationCell = field(default_factory=GSTActivationCell)
    tias: list[TransimpedanceAmplifier] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.ldsu is None:
            self.ldsu = LDSU(n_rows=self.bank.rows)
        elif self.ldsu.n_rows != self.bank.rows:
            raise ShapeError(
                f"LDSU rows {self.ldsu.n_rows} != bank rows {self.bank.rows}"
            )
        if not self.tias:
            self.tias = [TransimpedanceAmplifier() for _ in range(self.bank.rows)]
        elif len(self.tias) != self.bank.rows:
            raise ShapeError(
                f"need one TIA per row ({self.bank.rows}), got {len(self.tias)}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def with_noise(cls, noise: NoiseModel, rows: int = 16, cols: int = 16) -> "ProcessingElement":
        """Convenience constructor wiring one noise model everywhere."""
        return cls(
            bank=WeightBank(rows=rows, cols=cols, noise=noise),
            bpd=BalancedPhotodetector(noise=noise),
        )

    @property
    def rows(self) -> int:
        """Weight-bank row count (J)."""
        return self.bank.rows

    @property
    def cols(self) -> int:
        """Weight-bank column count (N)."""
        return self.bank.cols

    def program_weights(self, weights: np.ndarray) -> np.ndarray:
        """Program the weight matrix for whatever mode comes next."""
        return self.bank.program(weights)

    def _tia_gains(self) -> np.ndarray:
        return np.array([t.gain for t in self.tias], dtype=np.float64)

    def set_tia_gains(self, gains: np.ndarray) -> None:
        """Program per-row TIA multipliers (vector of length rows)."""
        gains = np.asarray(gains, dtype=np.float64)
        if gains.shape != (self.bank.rows,):
            raise ShapeError(
                f"expected {self.bank.rows} gains, got shape {gains.shape}"
            )
        for tia, g in zip(self.tias, gains):
            tia.set_gain(float(g))

    def reset_tia_gains(self) -> None:
        """Return every TIA to unit gain (inference / outer-product modes)."""
        for tia in self.tias:
            tia.set_gain(1.0)

    # ------------------------------------------------------------------
    # Mode 1: inference (Table II column 1)
    # ------------------------------------------------------------------
    def forward_batch(
        self,
        x: np.ndarray,
        capture_derivative: bool = True,
        validate: bool = True,
    ) -> np.ndarray:
        """Batched inference: a (cols_used, B) slab streams in one pass.

        Returns the detected (rows_used, B) logits in normalized units.
        Activation firing happens at the accelerator level after partial
        sums from all of a layer's tiles have accumulated, so this method
        never fires the cell.  With ``capture_derivative`` the LDSU latches
        the whole batch's bit plane (see :meth:`LDSU.capture_batch`).
        ``validate=False`` forwards to :meth:`WeightBank.matmat` for slabs
        the encoder already bounded.
        """
        diff = self.bank.matmat(x, validate=validate)
        logits = self.bpd.detect_normalized(diff)
        if capture_derivative:
            padded = np.zeros((self.bank.rows, x.shape[1]), dtype=np.float64)
            padded[: logits.shape[0]] = logits
            self.ldsu.capture_batch(padded)
        return logits

    # ------------------------------------------------------------------
    # Mode 2: gradient vector (Table II column 2)
    # ------------------------------------------------------------------
    def gradient_vector_batch(
        self, delta_next: np.ndarray, samples: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched Eq. (3): one (cols_used, B) slab of deltas in one pass.

        The bank holds W_{k+1}^T once for the whole batch (the grouped
        reprogramming that makes batched training O(layers) writes for
        this step instead of O(layers x batch)); the per-sample Hadamard
        comes from the LDSU's batched bit plane captured during the
        batched forward pass.  ``samples`` names the bit-plane columns the
        slab's columns belong to (the survivors of a dead-path
        compaction); ``None`` means every captured column, in order.
        Returns (rows_used, B).
        """
        diff = self.bank.matmat(delta_next)
        detected = self.bpd.detect_normalized(diff)
        gains = self.ldsu.derivative_gains_batch()[: detected.shape[0]]
        if samples is not None:
            gains = gains[:, samples]
        return detected * gains

    # ------------------------------------------------------------------
    # Mode 3: outer product (Table II column 3)
    # ------------------------------------------------------------------
    def outer_product_batch(
        self, delta_h: np.ndarray, y_prev: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Weighted batch sum of dW_k = d_k ⊗ y_{k-1} via the weight bank.

        ``delta_h`` is (B, d) and ``y_prev`` is (B, y), both normalized;
        ``weights`` is (B,).  Returns the (d, y) block
        sum_b weights[b] * detect(d_b ⊗ y_b), the digital accumulation the
        control unit applies to the B detected gradient blocks.

        Physically each sample programs the bank column-constant with its
        own y_{k-1} (each ring of row j holds y_{k-1}[j]) and streams the
        elements of d_k one wavelength per symbol, so symbol i reads out
        row i of dW.  The hardware cost — B programming events of y*d cells
        and B*d symbols — is charged to the bank's stats per sample, and
        each sample's y_{k-1} passes through the same quantization +
        programming-noise model as :meth:`WeightBank.program` (the bank's
        realized state is left untouched; callers reprogram the forward
        weights afterwards anyway).

        The B detections are not formed one by one.  Detection i of sample
        b reads m_b = realized_y_b ⊗ (d_b * colsum) plus independent,
        zero-mean Gaussian noise of variance a|m_b| + c + (r m_b)^2, so
        the weighted sum has exactly the distribution of one detection of
        the mean sum_b w_b m_b with variance
        sum_b w_b^2 (a|m_b| + c + (r m_b)^2).  Both are separable in
        (y, d), so the mean is one (y x B) @ (B x d) GEMM, the variance two
        more plus c * sum_b w_b^2, and y*d Gaussians are drawn instead of
        B*y*d.  With noise off the result equals the per-sample sum up to
        floating-point summation order, and at B = 1 with unit weight it
        is the single detected block bit for bit.
        """
        delta_h = np.atleast_2d(np.asarray(delta_h, dtype=np.float64))
        y_prev = np.atleast_2d(np.asarray(y_prev, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        if delta_h.shape[0] != y_prev.shape[0]:
            raise ShapeError(
                f"batch mismatch: {delta_h.shape[0]} deltas vs "
                f"{y_prev.shape[0]} layer inputs"
            )
        batch, d = delta_h.shape
        y = y_prev.shape[1]
        if weights.shape != (batch,):
            raise ShapeError(
                f"need one weight per sample ({batch}), got shape {weights.shape}"
            )
        if y > self.bank.rows:
            raise ShapeError(
                f"y_prev width {y} exceeds bank rows {self.bank.rows}"
            )
        if d > self.bank.cols:
            raise ShapeError(
                f"delta_h width {d} exceeds bank cols {self.bank.cols}"
            )
        if np.any(np.abs(delta_h) > 1.0 + 1e-9):
            raise ShapeError("delta_h must lie in [-1, 1] (normalize first)")
        realized_y = self.bank.realize_virtually(y_prev)  # (B, y)
        # matmat(diag(delta)) on a column-constant bank reduces to the outer
        # product scaled by the crosstalk column sums (identity -> ones).
        if self.bank.crosstalk is not None:
            colsum = self.bank.crosstalk[:d, :d].sum(axis=0)
        else:
            colsum = np.ones(d)
        streamed = delta_h * colsum  # (B, d)
        mean = (realized_y.T * weights) @ streamed  # (y, d)
        variance = None
        noise = self.bpd.noise
        if noise.enabled:
            a, c, r = noise.detection_variance_coeffs
            w2 = weights * weights
            variance = a * ((np.abs(realized_y).T * w2) @ np.abs(streamed))
            variance += (r * r) * ((np.square(realized_y).T * w2) @ np.square(streamed))
            variance += c * w2.sum()
        detected = self.bpd.detect_normalized(mean, variance=variance)
        self.bank.account_writes(batch, y * d)
        self.bank.account_symbols(batch * d)
        return detected.T  # (d, y)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of everything mutable in the PE: bank state, LDSU
        bits, TIA gains, and the activation cell's wear counters."""
        return {
            "bank": self.bank.state_dict(),
            "ldsu": self.ldsu.state_dict(),
            "tia_gains": self._tia_gains(),
            "activation": self.activation.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this PE."""
        self.bank.load_state_dict(state["bank"])
        self.ldsu.load_state_dict(state["ldsu"])
        self.set_tia_gains(np.asarray(state["tia_gains"], dtype=np.float64))
        self.activation.load_state_dict(state["activation"])

    # ------------------------------------------------------------------
    @property
    def write_energy_j(self) -> float:
        """Total programming energy spent by this PE's bank."""
        return self.bank.stats.write_energy_j
