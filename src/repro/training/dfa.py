"""Direct Feedback Alignment (DFA) on the photonic hardware.

The paper's Related Work discusses Filipovich et al. [9], who train
photonic networks with DFA instead of backpropagation, and argues Trident's
true-gradient training is preferable ("DFA is not effective for training
convolutional layers" [35]).  This module implements DFA on the same
functional hardware so the comparison is quantitative:

- **DFA**: the error at the *output* layer is projected to every hidden
  layer through a fixed random feedback matrix B_k:
  ``delta_k = (B_k e) ⊙ f'(h_k)`` — no transposed weights anywhere.
- **Hardware consequence**: B_k never changes, so it can live permanently
  in *dedicated* feedback PEs.  Unlike backprop, the backward pass then
  costs **zero weight-bank retuning** — DFA's genuine attraction for
  photonics, which this model captures (and prices: extra PEs).

Both the photonic :class:`DFATrainer` and a :class:`DigitalDFA` reference
are provided; the ablation bench races them against true backprop.
"""

from __future__ import annotations

import numpy as np

from repro.arch.accelerator import TridentAccelerator
from repro.arch.control import RangeNormalizer
from repro.arch.pe import ProcessingElement
from repro.arch.weight_bank import WeightBank
from repro.devices.photodetector import BalancedPhotodetector
from repro.errors import MappingError, ShapeError
from repro.nn.reference import ACTIVATIONS, DigitalMLP, cross_entropy_loss


class DigitalDFA:
    """Reference DFA trainer for a bias-free MLP (same API as DigitalMLP)."""

    def __init__(self, dims: list[int], activation: str = "gst", seed: int = 0) -> None:
        self.mlp = DigitalMLP(dims, activation=activation, seed=seed)
        rng = np.random.default_rng(seed + 1)
        n_out = dims[-1]
        self.feedback = [
            rng.normal(0.0, 1.0 / np.sqrt(n_out), size=(n, n_out))
            for n in dims[1:-1]
        ]
        self._act_grad = ACTIVATIONS[activation][1]

    def train_step(self, x: np.ndarray, labels: np.ndarray, lr: float = 0.05) -> float:
        """One DFA step; returns the batch loss."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        _, inputs, logits = self.mlp.forward(x, return_intermediates=True)
        loss, error = cross_entropy_loss(logits[-1], labels)
        n_layers = self.mlp.n_layers
        for k in range(n_layers):
            if k == n_layers - 1:
                delta = error
            else:
                delta = (error @ self.feedback[k].T) * self._act_grad(logits[k])
            self.mlp.weights[k] -= lr * delta.T @ inputs[k]
        return loss

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a batch."""
        return self.mlp.accuracy(x, labels)


class DFATrainer:
    """DFA on the functional Trident accelerator.

    With ``dedicated_feedback`` (default), one extra PE per hidden layer
    holds its feedback matrix permanently — the backward projection costs
    symbols but *no* bank writes.  Without it, feedback matrices are
    programmed into the layer PEs per sample (costed like backprop).
    """

    def __init__(
        self,
        accelerator: TridentAccelerator,
        lr: float = 0.05,
        seed: int = 0,
        dedicated_feedback: bool = True,
    ) -> None:
        if lr <= 0:
            raise MappingError(f"learning rate must be positive, got {lr}")
        if not accelerator.layers:
            raise MappingError("map and program a network before training")
        for layer in accelerator.layers:
            if len(layer.tiles) != 1:
                raise MappingError(
                    "DFA training requires each layer to fit one PE"
                )
        self.acc = accelerator
        self.lr = lr
        self.dedicated_feedback = dedicated_feedback

        rng = np.random.default_rng(seed + 1)
        n_out = accelerator.layers[-1].out_dim
        cfg = accelerator.config
        if n_out > cfg.bank_cols:
            raise MappingError(
                f"output width {n_out} exceeds bank columns {cfg.bank_cols}"
            )
        self.feedback: list[np.ndarray] = []
        self.feedback_pes: list[ProcessingElement] = []
        for layer in accelerator.layers[:-1]:
            b = rng.normal(0.0, 1.0 / np.sqrt(n_out), size=(layer.out_dim, n_out))
            self.feedback.append(b)
            if dedicated_feedback:
                pe = ProcessingElement(
                    bank=WeightBank(
                        rows=cfg.bank_rows, cols=cfg.bank_cols,
                        tuning=cfg.tuning, noise=accelerator.noise,
                    ),
                    bpd=BalancedPhotodetector(noise=accelerator.noise),
                )
                norm = RangeNormalizer.normalize(b.ravel())
                pe.program_weights(b / norm.scale)
                pe.bank.stats.write_events = 1  # programmed exactly once
                self.feedback_pes.append(pe)
                setattr(pe, "_dfa_scale", norm.scale)
        total_pes = len(accelerator.pes) + len(self.feedback_pes)
        if total_pes > cfg.n_pes:
            raise MappingError(
                f"network + dedicated feedback needs {total_pes} PEs; "
                f"configuration has {cfg.n_pes}"
            )

    # ------------------------------------------------------------------
    def _project_error(self, k: int, error: np.ndarray) -> np.ndarray:
        """B_k e through a photonic bank (dedicated or layer PE)."""
        e_norm = RangeNormalizer.normalize(error)
        if self.dedicated_feedback:
            pe = self.feedback_pes[k]
            scale = getattr(pe, "_dfa_scale")
        else:
            # Fallback: program B_k into the layer's PE (costs a write).
            layer = self.acc.layers[k]
            pe = self.acc.pes[layer.tiles[0][4]]
            b_norm = RangeNormalizer.normalize(self.feedback[k].ravel())
            pe.program_weights(self.feedback[k] / b_norm.scale)
            self.acc.counters.bank_writes += 1
            self.acc.counters.cells_written += self.feedback[k].size
            scale = b_norm.scale
        out = pe.bpd.detect_normalized(pe.bank.matmat(e_norm.values[:, None]))
        self.acc.counters.symbols += 1
        return out[:, 0] * scale * e_norm.scale

    def _outer(self, k: int, delta: np.ndarray, y_prev: np.ndarray) -> np.ndarray:
        pe = self.acc.pes[self.acc.layers[k].tiles[0][4]]
        d_norm = RangeNormalizer.normalize(delta)
        y_norm = RangeNormalizer.normalize(y_prev)
        grad = pe.outer_product_batch(
            d_norm.values[None], y_norm.values[None], np.ones(1)
        )
        self.acc.counters.bank_writes += 1
        self.acc.counters.cells_written += y_prev.size * delta.size
        self.acc.counters.symbols += delta.size
        return grad * d_norm.scale * y_norm.scale

    # ------------------------------------------------------------------
    def train_step(self, x_batch: np.ndarray, labels: np.ndarray) -> float:
        """One photonic DFA step over a minibatch; returns the loss.

        Samples run one at a time (batches of one through the accelerator's
        batched kernels): each sample's error is projected and its outer
        products taken before the next sample streams, so the layer banks
        are restored to the forward weights between samples.
        """
        x_batch = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))
        if x_batch.shape[0] != labels.shape[0]:
            raise ShapeError("batch and labels must have matching lengths")
        layers = self.acc.layers
        accum = [np.zeros((l.out_dim, l.in_dim)) for l in layers]
        total_loss = 0.0
        batch = x_batch.shape[0]
        for i in range(batch):
            if i > 0:
                self.acc.set_weights([layer.weights for layer in layers])
            logits = self.acc.forward_batch(x_batch[i : i + 1], record=True)
            loss, grad = cross_entropy_loss(logits, labels[i : i + 1])
            total_loss += loss
            error = grad[0]
            # Output layer uses the true error (as in DFA).
            accum[-1] += self._outer(
                len(layers) - 1, error, layers[-1].last_input_batch[0]
            )
            for k in range(len(layers) - 1):
                projected = self._project_error(k, error)
                pe = self.acc.pes[layers[k].tiles[0][4]]
                gains = pe.ldsu.derivative_gains_batch()[: layers[k].out_dim, 0]
                delta = projected * gains
                if np.max(np.abs(delta)) > 0:
                    accum[k] += self._outer(k, delta, layers[k].last_input_batch[0])
        self.acc.set_weights(
            [layer.weights - self.lr * a / batch for layer, a in zip(layers, accum)]
        )
        return total_loss / batch

    def predict(self, x_batch: np.ndarray) -> np.ndarray:
        """Argmax classes from hardware forward passes."""
        return np.argmax(self.acc.forward_batch(np.atleast_2d(x_batch)), axis=-1)

    def accuracy(self, x_batch: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy measured on the hardware."""
        return float(np.mean(self.predict(x_batch) == np.asarray(labels)))

    @property
    def feedback_writes(self) -> int:
        """Total bank writes spent on feedback projection so far."""
        return sum(pe.bank.stats.write_events for pe in self.feedback_pes)
