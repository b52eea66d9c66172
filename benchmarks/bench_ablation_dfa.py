"""Ablation: true backprop vs Direct Feedback Alignment on the hardware.

The paper's Related Work argues for Trident's true-gradient training over
the DFA used by Filipovich et al. [9].  This bench races both on the same
functional hardware and prices DFA's genuine advantage — resident feedback
matrices cost no backward retuning — against its convergence penalty.

DFA streams one sample at a time, so its writes are compared with
backprop on the same per-sample schedule (``tests/oracles.py``), which
restores the forward weights before every sample.  The batched backprop
row shows what grouping the W^T reprogram saves on top; it is not the
like-for-like comparison.
"""

import sys
from pathlib import Path

from repro import TridentAccelerator
from repro.eval.formatting import format_table
from repro.nn.datasets import make_blobs, to_analog_range
from repro.nn.reference import DigitalMLP
from repro.training.dfa import DFATrainer
from repro.training.insitu import InSituTrainer
from repro.training.trainer import train_classifier

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests import oracles  # noqa: E402

DIMS = [8, 12, 3]


class PerSampleBackprop(InSituTrainer):
    """True backprop on DFA's one-sample-at-a-time schedule."""

    def train_step(self, x_batch, labels):
        return oracles.train_step(self.acc, self.lr, x_batch, labels)


TRAINERS = {
    "backprop (per-sample)": lambda acc: PerSampleBackprop(acc, lr=0.3),
    "backprop (batched)": lambda acc: InSituTrainer(acc, lr=0.3),
    "dfa": lambda acc: DFATrainer(acc, lr=0.3, seed=4),
}


def dfa_vs_bp(epochs: int = 6, seed: int = 1):
    data = make_blobs(n_samples=300, n_features=8, n_classes=3, spread=0.8, seed=seed)
    data = to_analog_range(data)
    train, test = data.split(0.8, seed=0)

    results = []
    for name, make_trainer in TRAINERS.items():
        acc = TridentAccelerator()
        acc.map_mlp(DIMS)
        acc.set_weights(
            [w.copy() for w in DigitalMLP(DIMS, activation="gst", seed=2).weights]
        )
        trainer = make_trainer(acc)
        hist = train_classifier(trainer, train, test, epochs=epochs, batch_size=16)
        results.append(
            [
                name,
                hist.test_accuracies[1],  # early convergence
                hist.final_test_accuracy,
                acc.counters.bank_writes,
                acc.counters.symbols,
            ]
        )
    return results


def test_ablation_dfa_vs_backprop(benchmark, record_report):
    rows = benchmark.pedantic(dfa_vs_bp, rounds=1, iterations=1)
    text = format_table(
        ["algorithm", "epoch-2 accuracy", "final accuracy", "bank writes", "symbols"],
        rows,
        title="Ablation: true backprop (Trident) vs DFA [9] on the photonic hardware",
    )
    record_report("ablation_dfa", text)
    by_name = {r[0]: r for r in rows}
    backprop = by_name["backprop (per-sample)"]
    # On the same per-sample schedule DFA saves retuning (its feedback
    # matrices stay resident) ...
    assert by_name["dfa"][3] < backprop[3]
    # ... but true-gradient training converges at least as fast early on
    # (the paper's argument for implementing real backprop).
    assert backprop[1] >= by_name["dfa"][1]
    # Both reach a good solution on this small task.
    assert backprop[2] > 0.9
    assert by_name["dfa"][2] > 0.9
