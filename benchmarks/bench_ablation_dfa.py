"""Ablation: true backprop vs Direct Feedback Alignment on the hardware.

The paper's Related Work argues for Trident's true-gradient training over
the DFA used by Filipovich et al. [9].  This bench races both on the same
functional hardware and prices DFA's genuine advantage — resident feedback
matrices cost no backward retuning — against its convergence penalty.
"""

from repro import TridentAccelerator
from repro.eval.formatting import format_table
from repro.nn.datasets import make_blobs, to_analog_range
from repro.nn.reference import DigitalMLP
from repro.training.dfa import DFATrainer
from repro.training.insitu import InSituTrainer
from repro.training.trainer import train_classifier

DIMS = [8, 12, 3]


def dfa_vs_bp(epochs: int = 6, seed: int = 1):
    data = make_blobs(n_samples=300, n_features=8, n_classes=3, spread=0.8, seed=seed)
    data = to_analog_range(data)
    train, test = data.split(0.8, seed=0)

    results = []
    for name in ("backprop", "dfa"):
        acc = TridentAccelerator()
        acc.map_mlp(DIMS)
        acc.set_weights(
            [w.copy() for w in DigitalMLP(DIMS, activation="gst", seed=2).weights]
        )
        trainer = (
            InSituTrainer(acc, lr=0.3)
            if name == "backprop"
            else DFATrainer(acc, lr=0.3, seed=4)
        )
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
    # DFA saves retuning (its feedback matrices stay resident) ...
    assert by_name["dfa"][3] < by_name["backprop"][3]
    # ... but true-gradient training converges at least as fast early on
    # (the paper's argument for implementing real backprop).
    assert by_name["backprop"][1] >= by_name["dfa"][1]
    # Both reach a good solution on this small task.
    assert by_name["backprop"][2] > 0.9
    assert by_name["dfa"][2] > 0.9
