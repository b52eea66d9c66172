"""Monte Carlo accuracy under device variation.

The functional accelerator exposes two imperfection knobs: programming
noise (GST level placement error) and detection noise (shot/thermal/RIN).
This analysis trains a reference network digitally, deploys it across many
random device instances, and reports the accuracy distribution per
variation level — the quantitative version of the paper's claim that
analog imperfections degrade offline-trained deployments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.accelerator import TridentAccelerator
from repro.devices.noise import NoiseModel
from repro.errors import ConfigError
from repro.nn.datasets import Dataset, make_blobs, to_analog_range
from repro.nn.reference import DigitalMLP


@dataclass(frozen=True)
class VariationPoint:
    """Accuracy distribution at one variation level."""

    programming_noise_levels: float
    detection_noise_std: float
    mean_accuracy: float
    std_accuracy: float
    worst_accuracy: float
    n_trials: int


def make_reference_task(seed: int = 5):
    """Standard task + digitally trained reference network."""
    dims = [10, 14, 3]
    data = make_blobs(n_samples=400, n_features=10, n_classes=3, spread=2.0, seed=seed)
    data = to_analog_range(data)
    train, test = data.split(0.8, seed=1)
    mlp = DigitalMLP(dims, activation="gst", seed=7)
    for epoch in range(8):
        for xb, yb in train.batches(16, seed=epoch):
            mlp.train_step(xb, yb, lr=0.4)
    return dims, mlp, test


def deploy_accuracy(
    dims: list[int],
    weights: list[np.ndarray],
    test: Dataset,
    programming_noise_levels: float,
    detection_noise_std: float,
    seed: int,
) -> float:
    """Accuracy of one random hardware instance running the weights."""
    noise = NoiseModel(
        enabled=(programming_noise_levels > 0 or detection_noise_std > 0),
        thermal_noise_std=detection_noise_std,
        shot_noise_coeff=detection_noise_std / 2,
        rin_coeff=detection_noise_std / 4,
        seed=seed,
    )
    acc = TridentAccelerator(
        noise=noise, programming_noise_levels=programming_noise_levels
    )
    acc.map_mlp(dims)
    acc.set_weights([w.copy() for w in weights])
    pred = np.argmax(acc.forward_batch(test.x), axis=1)
    return float(np.mean(pred == test.y))


def variation_sweep(
    programming_levels: tuple[float, ...] = (0.0, 1.0, 3.0, 8.0),
    detection_stds: tuple[float, ...] = (0.0, 0.05, 0.15),
    n_trials: int = 5,
    seed: int = 5,
) -> list[VariationPoint]:
    """Grid of variation levels x Monte Carlo trials."""
    if n_trials < 1:
        raise ConfigError("need at least one trial")
    dims, mlp, test = make_reference_task(seed)
    points = []
    for prog in programming_levels:
        for det in detection_stds:
            accs = [
                deploy_accuracy(dims, mlp.weights, test, prog, det, seed=100 + t)
                for t in range(n_trials)
            ]
            points.append(
                VariationPoint(
                    programming_noise_levels=prog,
                    detection_noise_std=det,
                    mean_accuracy=float(np.mean(accs)),
                    std_accuracy=float(np.std(accs)),
                    worst_accuracy=float(np.min(accs)),
                    n_trials=n_trials,
                )
            )
    return points
