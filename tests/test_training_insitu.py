"""Tests for in-situ photonic backpropagation."""

import numpy as np
import pytest

from repro.arch.accelerator import TridentAccelerator
from repro.arch.pe import ProcessingElement
from repro.devices.noise import NoiseModel
from repro.errors import MappingError, ShapeError
from repro.nn.datasets import make_blobs, to_analog_range
from repro.nn.reference import DigitalMLP, cross_entropy_loss
from repro.training.insitu import InSituTrainer
from tests import oracles


def make_accelerator(dims, seed=0, noise=None):
    acc = TridentAccelerator(noise=noise)
    acc.map_mlp(dims)
    mlp = DigitalMLP(dims, activation="gst", seed=seed)
    acc.set_weights([w.copy() for w in mlp.weights])
    return acc, mlp


@pytest.fixture
def blob_data():
    data = make_blobs(n_samples=240, n_features=8, n_classes=3, spread=0.7, seed=1)
    data = to_analog_range(data)
    return data.split(0.8, seed=0)


class TestConstruction:
    def test_requires_mapped_network(self):
        with pytest.raises(MappingError):
            InSituTrainer(TridentAccelerator())

    def test_rejects_tiled_layers(self):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])  # multi-tile layers
        with pytest.raises(MappingError):
            InSituTrainer(acc)

    def test_rejects_bad_lr(self):
        acc, _ = make_accelerator([8, 4])
        with pytest.raises(MappingError):
            InSituTrainer(acc, lr=0.0)


class TestGradientFidelity:
    def test_photonic_gradients_match_digital(self):
        """The three photonic passes must reproduce Eqs. (1)-(3) up to
        quantization error."""
        dims = [8, 10, 4]
        acc, mlp = make_accelerator(dims, seed=3)
        trainer = InSituTrainer(acc, lr=0.1)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 8)
        label = 2

        logits_hw = acc.forward(x, record=True)
        _, grad = cross_entropy_loss(logits_hw[None, :], np.array([label]))
        grads_hw = trainer.backward_batch(grad)

        grads_ref = mlp.gradients(x[None, :], grad).weights
        for g_hw, g_ref in zip(grads_hw, grads_ref):
            assert g_hw.shape == g_ref.shape
            assert np.max(np.abs(g_hw - g_ref)) < 0.05

    def test_backward_requires_recorded_forward(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        acc.forward(np.zeros(8))  # not recorded
        with pytest.raises(MappingError):
            trainer.backward_batch(np.zeros((1, 4)))

    def test_backward_shape_checked(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        acc.forward(np.zeros(8), record=True)
        with pytest.raises(ShapeError):
            trainer.backward_batch(np.zeros((1, 5)))


class TestTrainStep:
    def test_reduces_loss(self, blob_data):
        train, _ = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        xb, yb = train.x[:32], train.y[:32]
        first = trainer.train_step(xb, yb)
        for _ in range(8):
            last = trainer.train_step(xb, yb)
        assert last < first

    def test_weights_stay_on_quantized_grid(self, blob_data):
        """After an update the programmed weights are re-quantized — the
        8-bit constraint the paper's training argument hinges on."""
        train, _ = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        trainer.train_step(train.x[:16], train.y[:16])
        for layer, pe_index in zip(acc.layers, range(len(acc.pes))):
            bank = acc.pes[layer.tiles[0][4]].bank
            realized = bank.realized_weights[: layer.out_dim, : layer.in_dim]
            levels = (realized + 1) / 2 * (bank.levels - 1)
            assert np.allclose(levels, np.rint(levels), atol=1e-6)

    def test_batch_shape_mismatch_rejected(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        with pytest.raises(ShapeError):
            trainer.train_step(np.zeros((4, 8)), np.zeros(3, dtype=int))

    def test_hardware_events_accumulate(self, blob_data):
        train, _ = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        trainer.train_step(train.x[:8], train.y[:8])
        # Training is write-heavy even batched: every sample still pays its
        # outer-product bank program, plus the grouped W^T and update writes.
        assert acc.counters.bank_writes > 8
        assert acc.counters.mode_switches > 0
        assert acc.energy_estimate_j() > 0


class TestEndToEnd:
    def test_learns_blobs_to_high_accuracy(self, blob_data):
        train, test = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        from repro.training.trainer import train_classifier

        hist = train_classifier(trainer, train, test, epochs=6, batch_size=16)
        assert hist.final_test_accuracy > 0.85

    def test_tracks_digital_twin(self, blob_data):
        """In-situ training must land close to an identically-initialized
        digital run (the no-mismatch property)."""
        train, test = blob_data
        dims = [8, 12, 3]
        acc, _ = make_accelerator(dims, seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        digital = DigitalMLP(dims, activation="gst", seed=2)
        from repro.training.trainer import train_classifier

        class Wrap:
            def train_step(self, x, y):
                return digital.train_step(x, y, lr=0.3)

            def accuracy(self, x, y):
                return digital.accuracy(x, y)

        h_hw = train_classifier(trainer, train, test, epochs=5, batch_size=16)
        h_dig = train_classifier(Wrap(), train, test, epochs=5, batch_size=16)
        assert abs(h_hw.final_test_accuracy - h_dig.final_test_accuracy) < 0.1

    def test_training_with_noise_still_learns(self, blob_data):
        train, test = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2, noise=NoiseModel.realistic(seed=6))
        trainer = InSituTrainer(acc, lr=0.3)
        from repro.training.trainer import train_classifier

        hist = train_classifier(trainer, train, test, epochs=6, batch_size=16)
        assert hist.final_test_accuracy > 0.8

    def test_weights_property_returns_copies(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        ws = trainer.weights
        ws[0][:] = 99.0
        assert not np.allclose(trainer.weights[0], 99.0)


class TestBatchedMatchesStreaming:
    """The batched schedule must reproduce the per-sample oracle on
    noise-free hardware — same losses, same updated weights."""

    def test_identical_losses_and_weights(self, blob_data):
        train, _ = blob_data
        acc_b, _ = make_accelerator([8, 12, 3], seed=2)
        acc_s, _ = make_accelerator([8, 12, 3], seed=2)
        batched = InSituTrainer(acc_b, lr=0.3)
        for start in (0, 16, 32):
            xb = train.x[start : start + 16]
            yb = train.y[start : start + 16]
            loss_b = batched.train_step(xb, yb)
            loss_s = oracles.train_step(acc_s, 0.3, xb, yb)
            assert np.isclose(loss_b, loss_s, rtol=0, atol=1e-12)
        for w_b, layer in zip(batched.weights, acc_s.layers):
            np.testing.assert_allclose(w_b, layer.weights, rtol=0, atol=1e-12)

    def test_backward_batch_matches_accumulated_samples(self, blob_data):
        train, _ = blob_data
        B = 6
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        xb, yb = train.x[:B], train.y[:B]

        logits = acc.forward_batch(xb, record=True)
        _, grad = cross_entropy_loss(logits, yb)
        grads_batch = trainer.backward_batch(grad * B)

        accum = [np.zeros((l.out_dim, l.in_dim)) for l in acc.layers]
        for x, label in zip(xb, yb):
            # The previous backward pass left W^T in the banks — restore
            # forward weights before every sample.
            acc.set_weights([layer.weights for layer in acc.layers])
            record = []
            lg = oracles.forward(acc, x, record)
            _, g = cross_entropy_loss(lg[None, :], np.array([label]))
            for a, gr in zip(accum, oracles.backward(acc, record, g[0])):
                a += gr
        for g_b, g_s in zip(grads_batch, accum):
            np.testing.assert_allclose(g_b, g_s, rtol=0, atol=1e-10)

    def test_dead_path_accounting_parity(self):
        """A sample whose hidden layer never fires dies after one
        gradient-vector hop.  The per-sample oracle skips its upstream
        outer product; the batched engine must compact the dead column
        out and charge exactly the same symbols — not stream a zero
        vector the control unit already knows is dead."""
        dims = [8, 12, 3]
        weights = [w.copy() for w in DigitalMLP(dims, activation="gst", seed=2).weights]
        # All-positive first layer + an all-negative sample => its hidden
        # pre-activations are all negative, so no GST cell fires and the
        # LDSU derivative bits are all zero for that sample.
        weights[0] = np.abs(weights[0])
        xb = np.vstack([np.full(8, 0.4), np.full(8, -0.4), np.full(8, 0.2)])
        yb = np.array([0, 1, 2])
        B = len(yb)

        def fresh():
            acc = TridentAccelerator()
            acc.map_mlp(dims)
            acc.set_weights([w.copy() for w in weights])
            return acc

        acc_b = fresh()
        batched = InSituTrainer(acc_b, lr=0.1)
        logits = acc_b.forward_batch(xb, record=True)
        _, grad = cross_entropy_loss(logits, yb)
        before = acc_b.counters.symbols
        grads_batch = batched.backward_batch(grad * B)
        symbols_batch = acc_b.counters.symbols - before

        acc_s = fresh()
        symbols_sample = 0
        accum = [np.zeros((l.out_dim, l.in_dim)) for l in acc_s.layers]
        for x, g in zip(xb, grad * B):
            acc_s.set_weights([layer.weights for layer in acc_s.layers])
            record = []
            oracles.forward(acc_s, x, record)
            before = acc_s.counters.symbols
            for a, gr in zip(accum, oracles.backward(acc_s, record, g)):
                a += gr
            symbols_sample += acc_s.counters.symbols - before

        assert symbols_batch == symbols_sample
        # The dead sample really was skipped: one layer-0 outer product
        # (12 symbols) short of the no-dead-path law B*(3 + 1 + 12).
        assert symbols_batch == B * (3 + 1 + 12) - 12
        for g_b, g_s in zip(grads_batch, accum):
            np.testing.assert_allclose(g_b, g_s, rtol=0, atol=1e-10)

    def test_partial_dead_path_on_three_weight_layers(self):
        """Half the batch dies after the first gradient-vector hop of a
        three-weight-layer net.  The survivors' deltas then meet layer 0's
        LDSU bit plane, which still holds the whole batch: the Hadamard
        must read the survivors' columns, and the gradients and symbols
        must equal the per-sample oracle's."""
        dims = [6, 5, 4, 3]
        weights = [w.copy() for w in DigitalMLP(dims, activation="gst", seed=0).weights]
        xb = np.random.default_rng(0).uniform(-1, 1, (8, 6))
        grad = np.random.default_rng(1).normal(size=(8, 3))
        grad[:4] = 0.0

        def fresh():
            acc = TridentAccelerator()
            acc.map_mlp(dims)
            acc.set_weights([w.copy() for w in weights])
            return acc

        acc_b = fresh()
        acc_b.forward_batch(xb, record=True)
        before = acc_b.counters.symbols
        grads_batch = InSituTrainer(acc_b).backward_batch(grad)
        symbols_batch = acc_b.counters.symbols - before
        assert [g.shape for g in grads_batch] == [(5, 6), (4, 5), (3, 4)]

        acc_s = fresh()
        symbols_sample = 0
        accum = [np.zeros((l.out_dim, l.in_dim)) for l in acc_s.layers]
        for x, g in zip(xb, grad):
            acc_s.set_weights([layer.weights for layer in acc_s.layers])
            record = []
            oracles.forward(acc_s, x, record)
            before = acc_s.counters.symbols
            for a, gr in zip(accum, oracles.backward(acc_s, record, g)):
                a += gr
            symbols_sample += acc_s.counters.symbols - before

        assert symbols_batch == symbols_sample
        for g_b, g_s in zip(grads_batch, accum):
            np.testing.assert_allclose(g_b, g_s, rtol=0, atol=1e-10)

    def test_summed_outer_products_match_stack_kernel(self, blob_data, monkeypatch):
        """The trainer on the one-GEMM outer product vs the same trainer on
        the (B, y, d) stack summed over B: gradients to 1e-12, and every
        event counter and bank stat exactly equal."""
        train, _ = blob_data
        dims, B = [8, 12, 6, 3], 16
        xb, yb = train.x[:B], train.y[:B]

        def backward(kernel=None):
            acc, _ = make_accelerator(dims, seed=4)
            logits = acc.forward_batch(xb, record=True)
            _, grad = cross_entropy_loss(logits, yb)
            with monkeypatch.context() as patch:
                if kernel is not None:
                    patch.setattr(ProcessingElement, "outer_product_batch", kernel)
                grads = InSituTrainer(acc).backward_batch(grad * B)
            return acc, grads

        acc_new, grads_new = backward()
        acc_old, grads_old = backward(oracles.summed_outer_product)
        for g_new, g_old in zip(grads_new, grads_old):
            np.testing.assert_allclose(g_new, g_old, rtol=1e-12, atol=1e-12)
        assert acc_new.counters == acc_old.counters
        for pe_new, pe_old in zip(acc_new.pes, acc_old.pes):
            assert pe_new.bank.stats == pe_old.bank.stats

    def test_backward_batch_requires_recorded_forward_batch(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        with pytest.raises(MappingError):
            trainer.backward_batch(np.zeros((1, 4)))

    def test_backward_batch_shape_checked(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        acc.forward_batch(np.zeros((3, 8)), record=True)
        with pytest.raises(ShapeError):
            trainer.backward_batch(np.zeros((3, 5)))


class TestWriteCostLaw:
    def test_batched_bank_writes_follow_closed_form(self, blob_data):
        """Grouped reprogramming is *the* saving of the batched schedule:
        B*L per-sample outer-product programs survive, but the W^T
        programs collapse to one per hidden layer and the inter-sample
        restores disappear entirely."""
        train, _ = blob_data
        for B in (1, 4, 9):
            acc, _ = make_accelerator([8, 12, 3], seed=2)
            trainer = InSituTrainer(acc, lr=0.1)
            L = len(acc.layers)
            base = acc.counters.bank_writes
            trainer.train_step(train.x[:B], train.y[:B])
            got = acc.counters.bank_writes - base
            predicted = B * L + (L - 1) + L
            assert got == predicted, (B, got, predicted)

    def test_symbols_follow_closed_form(self, blob_data):
        """Symbols per batch: B forward symbols per layer + B gradient
        symbols per hidden layer + B outer-product streams (one symbol per
        delta element).  Batching saves writes, not symbols — the batch
        streams exactly the vectors B one-sample passes would."""
        train, _ = blob_data
        B = 5
        # forward: 2 layers -> 2B; gradient: 1 hidden -> B;
        # outer: layer1 streams len(delta1)=3, layer0 streams len(delta0)=12.
        predicted = 2 * B + B + B * (3 + 12)
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.1)
        base = acc.counters.symbols
        trainer.train_step(train.x[:B], train.y[:B])
        got = acc.counters.symbols - base
        assert got == predicted, (got, predicted)
