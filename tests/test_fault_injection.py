"""Failure-injection tests: stuck-at PCM cells.

Worn-out PCM cells stop switching and hold one level forever.  These tests
exercise the fault machinery and measure graceful degradation — the
yield/fault-tolerance story an adopter of the architecture needs.
"""

import numpy as np
import pytest

from repro import TridentAccelerator
from repro.arch.weight_bank import WeightBank
from repro.errors import ProgrammingError
from repro.nn.datasets import make_blobs, to_analog_range
from repro.nn.reference import DigitalMLP


class TestInjection:
    def test_fraction_zero_is_noop(self, rng):
        bank = WeightBank()
        assert bank.inject_stuck_faults(0.0, rng) == 0
        assert bank.stuck_fraction == 0.0

    def test_fraction_one_sticks_everything(self, rng):
        bank = WeightBank()
        n = bank.inject_stuck_faults(1.0, rng)
        assert n == 256
        assert bank.stuck_fraction == 1.0

    def test_default_stuck_level_is_weight_zero(self, rng):
        bank = WeightBank()
        bank.program(np.full((16, 16), 0.9))
        bank.inject_stuck_faults(1.0, rng)
        assert np.allclose(bank.realized_weights, 0.0, atol=bank.weight_step)

    def test_stuck_cells_survive_reprogramming(self, rng):
        bank = WeightBank()
        w = rng.uniform(-1, 1, (16, 16))
        bank.program(w)
        bank.inject_stuck_faults(0.2, rng)
        frozen = bank.realized_weights
        bank.program(rng.uniform(-1, 1, (16, 16)))
        after = bank.realized_weights
        stuck = frozen != after
        # At least the stuck cells kept their values.
        assert bank.stuck_fraction > 0.1
        assert np.isclose(after, frozen).mean() >= bank.stuck_fraction

    def test_stuck_at_extreme_levels(self, rng):
        bank = WeightBank()
        bank.program(np.zeros((16, 16)))
        bank.inject_stuck_faults(1.0, rng, stuck_level=254)
        assert np.allclose(bank.realized_weights, 1.0)

    def test_repeated_injection_accumulates(self, rng):
        bank = WeightBank()
        first = bank.inject_stuck_faults(0.3, rng)
        second = bank.inject_stuck_faults(0.3, rng)
        assert bank.stuck_fraction == pytest.approx((first + second) / 256)

    def test_validation(self, rng):
        bank = WeightBank()
        with pytest.raises(ProgrammingError):
            bank.inject_stuck_faults(1.5, rng)
        with pytest.raises(ProgrammingError):
            bank.inject_stuck_faults(0.1, rng, stuck_level=300)

    def test_unprogrammed_cells_stay_excluded(self, rng):
        bank = WeightBank()
        bank.program(rng.uniform(-1, 1, (4, 4)))  # partial occupancy
        bank.inject_stuck_faults(1.0, rng, stuck_level=254)
        # Cells outside the programmed block stay at 0 in the MVM view.
        assert np.all(bank.realized_weights[4:, :] == 0.0)

    def test_physical_levels_track_stuck_state_everywhere(self, rng):
        """State-consistency invariant: _levels is the *physical* ring
        state, so off-block stuck cells hold their stuck level even though
        the MVM view excludes them (module docstring)."""
        bank = WeightBank()
        bank.program(rng.uniform(-1, 1, (4, 4)))
        bank.inject_stuck_faults(1.0, rng, stuck_level=254)
        assert np.all(bank.physical_levels == 254)
        # ... and re-programming the block does not shake stuck cells loose.
        bank.program(rng.uniform(-1, 1, (4, 4)))
        assert np.all(bank.physical_levels == 254)
        assert np.all(bank.realized_weights[4:, :] == 0.0)

    def test_in_block_stuck_levels_consistent_with_realized(self, rng):
        """Inside the programmed block, level / realized / mask must agree:
        the realized weight is exactly the dequantized stuck level."""
        bank = WeightBank()
        bank.program(rng.uniform(-1, 1, (16, 16)))
        bank.inject_stuck_faults(0.3, rng, stuck_level=200)
        bank.program(rng.uniform(-1, 1, (16, 16)))
        stuck = bank.physical_levels == 200
        assert stuck.any()
        expected = 2 * 200 / (bank.levels - 1) - 1
        assert np.allclose(bank.realized_weights[stuck], expected)


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def task(self):
        data = make_blobs(n_samples=300, n_features=10, n_classes=3, spread=1.2, seed=5)
        data = to_analog_range(data)
        train, test = data.split(0.8, seed=1)
        mlp = DigitalMLP([10, 14, 3], activation="gst", seed=7)
        for epoch in range(8):
            for xb, yb in train.batches(16, seed=epoch):
                mlp.train_step(xb, yb, lr=0.4)
        return mlp, test

    def _deployed_accuracy(self, mlp, test, fault_fraction, seed):
        acc = TridentAccelerator()
        acc.map_mlp([10, 14, 3])
        rng = np.random.default_rng(seed)
        for pe in acc.pes:
            pe.bank.inject_stuck_faults(fault_fraction, rng)
        acc.set_weights([w.copy() for w in mlp.weights])
        pred = np.argmax(acc.forward_batch(test.x), axis=1)
        return float(np.mean(pred == test.y))

    def test_small_fault_rates_degrade_gracefully(self, task):
        mlp, test = task
        clean = self._deployed_accuracy(mlp, test, 0.0, seed=0)
        mild = np.mean(
            [self._deployed_accuracy(mlp, test, 0.02, seed=s) for s in range(5)]
        )
        # 2 % stuck-at-zero cells cost only a few points.
        assert mild >= clean - 0.1

    def test_heavy_fault_rates_collapse(self, task):
        mlp, test = task
        heavy = np.mean(
            [self._deployed_accuracy(mlp, test, 0.6, seed=s) for s in range(3)]
        )
        clean = self._deployed_accuracy(mlp, test, 0.0, seed=0)
        assert heavy < clean

    def test_monotone_on_average(self, task):
        mlp, test = task
        levels = [0.0, 0.05, 0.3, 0.8]
        means = [
            np.mean(
                [self._deployed_accuracy(mlp, test, f, seed=s) for s in range(4)]
            )
            for f in levels
        ]
        assert means[0] >= means[-1]
        assert means[1] >= means[3]
