"""Accuracy vs weight bit-resolution.

Quantifies the paper's Sec. II-B argument: thermally tuned banks resolve
only 6 bits, "meaning that training is not possible" [34], while GST's 255
levels (8 bits) suffice.  Two measurements per bit width:

- **deployment**: train digitally, quantize the weights to b bits, measure
  inference accuracy (cheap, mirrors the thermal-bank deployment path);
- **in-situ training**: train on hardware whose banks quantize to b bits —
  the harder test, since every gradient step must survive the coarse grid
  (small updates round to zero below a resolution-dependent threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.accelerator import TridentAccelerator
from repro.arch.config import TridentConfig
from repro.devices.tuning import GSTTuning
from repro.errors import ConfigError
from repro.nn.datasets import make_blobs, to_analog_range
from repro.nn.quantization import quantize_tensor
from repro.nn.reference import DigitalMLP
from repro.training.insitu import InSituTrainer
from repro.training.trainer import train_classifier

DIMS = [10, 14, 3]


@dataclass(frozen=True)
class PrecisionPoint:
    """Accuracy at one weight bit-width."""

    bits: int
    deployed_accuracy: float
    insitu_accuracy: float
    digital_accuracy: float

    @property
    def deployment_drop(self) -> float:
        """Accuracy lost by quantized deployment vs the digital ceiling."""
        return self.digital_accuracy - self.deployed_accuracy

    @property
    def training_drop(self) -> float:
        """Accuracy lost by in-situ training vs the digital ceiling."""
        return self.digital_accuracy - self.insitu_accuracy


def _task(seed: int):
    data = make_blobs(n_samples=400, n_features=10, n_classes=3, spread=2.0, seed=seed)
    data = to_analog_range(data)
    return data.split(0.8, seed=1)


def _bank_config(bits: int) -> TridentConfig:
    """Trident config whose banks quantize to ``bits`` (tuning swap)."""
    tuning = replace(GSTTuning(), bit_resolution=bits)
    return TridentConfig(tuning=tuning, weight_bits=bits)


def precision_sweep(
    bits_list: tuple[int, ...] = (3, 4, 6, 8),
    epochs: int = 8,
    lr: float = 0.4,
    seed: int = 5,
) -> list[PrecisionPoint]:
    """Deployment + in-situ accuracy across weight bit widths."""
    if not bits_list:
        raise ConfigError("need at least one bit width")
    train, test = _task(seed)

    digital = DigitalMLP(DIMS, activation="gst", seed=7)
    for epoch in range(epochs):
        for xb, yb in train.batches(16, seed=epoch):
            digital.train_step(xb, yb, lr=lr)
    digital_acc = digital.accuracy(test.x, test.y)

    points = []
    for bits in bits_list:
        if bits < 2:
            raise ConfigError(f"bits must be >= 2, got {bits}")
        # Deployment path: post-training quantization.
        quantized = DigitalMLP(DIMS, activation="gst", seed=7)
        quantized.weights = [quantize_tensor(w, bits).values for w in digital.weights]
        deployed_acc = quantized.accuracy(test.x, test.y)

        # In-situ path: banks at b-bit resolution.
        acc = TridentAccelerator(config=_bank_config(bits))
        acc.map_mlp(DIMS)
        acc.set_weights(
            [w.copy() for w in DigitalMLP(DIMS, activation="gst", seed=7).weights]
        )
        trainer = InSituTrainer(acc, lr=lr)
        history = train_classifier(trainer, train, test, epochs=epochs, batch_size=16)

        points.append(
            PrecisionPoint(
                bits=bits,
                deployed_accuracy=deployed_acc,
                insitu_accuracy=history.final_test_accuracy,
                digital_accuracy=digital_acc,
            )
        )
    return points
