"""Tests for the processing element's three operating modes."""

import numpy as np
import pytest

from repro.arch.pe import ProcessingElement
from repro.arch.weight_bank import WeightBank
from repro.devices.ldsu import LDSU
from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector
from repro.errors import DeviceError, ShapeError
from tests import oracles


@pytest.fixture
def pe():
    return ProcessingElement()


class TestConstruction:
    def test_defaults(self, pe):
        assert pe.rows == 16
        assert pe.cols == 16
        assert len(pe.tias) == 16
        assert pe.ldsu.n_rows == 16

    def test_ldsu_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ProcessingElement(bank=WeightBank(rows=8), ldsu=LDSU(n_rows=16))

    def test_tia_count_mismatch_rejected(self):
        from repro.devices.tia import TransimpedanceAmplifier

        with pytest.raises(ShapeError):
            ProcessingElement(tias=[TransimpedanceAmplifier()])

    def test_with_noise_factory(self):
        pe = ProcessingElement.with_noise(NoiseModel.realistic(seed=0), rows=8, cols=8)
        assert pe.rows == 8
        assert pe.bank.noise.enabled
        assert pe.bpd.noise.enabled


def one(v):
    """A single sample as a one-column batch."""
    return np.asarray(v, dtype=np.float64)[:, None]


class TestForward:
    def test_matches_digital_gst_network(self, pe, rng):
        w = rng.uniform(-1, 1, (16, 16))
        x = rng.uniform(-1, 1, 16)
        pe.program_weights(w)
        out = pe.activation.fire(pe.forward_batch(one(x))[:, 0])
        expected = 0.34 * np.maximum(w @ x, 0)
        assert np.max(np.abs(out - expected)) < 0.1

    def test_no_activation_returns_logits(self, pe, rng):
        w = rng.uniform(-1, 1, (8, 8))
        x = rng.uniform(-1, 1, 8)
        pe.program_weights(w)
        logits = pe.forward_batch(one(x))[:, 0]
        assert np.max(np.abs(logits - w @ x)) < 0.05
        assert pe.activation.firing_events == 0

    def test_ldsu_captures_derivative_bits(self, pe, rng):
        w = rng.uniform(-1, 1, (16, 16))
        x = rng.uniform(-1, 1, 16)
        pe.program_weights(w)
        logits = pe.forward_batch(one(x))[:, 0]
        expected_bits = logits > 0
        assert np.array_equal(pe.ldsu.batch_bits[:, 0], expected_bits)

    def test_capture_can_be_disabled(self, pe, rng):
        pe.program_weights(rng.uniform(-1, 1, (16, 16)))
        pe.forward_batch(one(rng.uniform(-1, 1, 16)), capture_derivative=False)
        with pytest.raises(DeviceError):
            pe.ldsu.batch_bits

    def test_activation_firing_counted(self, pe, rng):
        pe.program_weights(rng.uniform(-1, 1, (16, 16)))
        pe.activation.fire(pe.forward_batch(one(rng.uniform(-1, 1, 16)))[:, 0])
        assert pe.activation.firing_events > 0


class TestGradientVector:
    def test_hadamard_with_ldsu_gains(self, pe, rng):
        n = 16
        # Forward pass on W to latch f'(h).
        w = rng.uniform(-1, 1, (n, n))
        x = rng.uniform(-1, 1, n)
        pe.program_weights(w)
        h = pe.forward_batch(one(x))[:, 0]
        # Backward with W_next^T programmed.
        w_next = rng.uniform(-1, 1, (n, n))
        pe.program_weights(w_next.T)
        delta = rng.uniform(-1, 1, n)
        got = pe.gradient_vector_batch(one(delta))[:, 0]
        expected = (w_next.T @ delta) * np.where(h > 0, 0.34, 0.0)
        assert np.max(np.abs(got - expected)) < 0.1

    def test_dead_rows_zeroed(self, pe, rng):
        n = 8
        pe.program_weights(-np.ones((n, n)))  # all logits negative
        pe.forward_batch(one(np.ones(n) * 0.5))
        pe.program_weights(rng.uniform(-1, 1, (n, n)))
        out = pe.gradient_vector_batch(one(rng.uniform(-1, 1, n)))
        assert np.allclose(out, 0.0)


class TestOuterProduct:
    def test_matches_numpy_outer(self, pe, rng):
        d = rng.uniform(-1, 1, 10)
        y = rng.uniform(-1, 1, 12)
        got = pe.outer_product_batch(d[None], y[None], np.ones(1))
        assert got.shape == (10, 12)
        assert np.max(np.abs(got - np.outer(d, y))) < 0.05

    def test_full_bank(self, pe, rng):
        d = rng.uniform(-1, 1, 16)
        y = rng.uniform(-1, 1, 16)
        got = pe.outer_product_batch(d[None], y[None], np.ones(1))
        assert np.max(np.abs(got - np.outer(d, y))) < 0.05

    def test_rejects_oversize(self, pe, rng):
        with pytest.raises(ShapeError):
            pe.outer_product_batch(
                rng.uniform(-1, 1, (1, 17)), rng.uniform(-1, 1, (1, 4)), np.ones(1)
            )
        with pytest.raises(ShapeError):
            pe.outer_product_batch(
                rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, (1, 17)), np.ones(1)
            )

    def test_rejects_matrices(self, pe):
        # Two deltas against one layer input: the batch sizes disagree.
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.zeros((2, 2)), np.zeros(2), np.ones(2))

    def test_costs_one_write_and_len_delta_symbols(self, pe, rng):
        d = rng.uniform(-1, 1, (1, 6))
        y = rng.uniform(-1, 1, (1, 4))
        pe.outer_product_batch(d, y, np.ones(1))
        assert pe.bank.stats.write_events == 1
        assert pe.bank.stats.symbols == 6


class TestBatchedModes:
    """Each batched mode against the per-sample oracle, column by column."""

    def test_forward_batch_matches_per_sample(self, rng):
        w = rng.uniform(-1, 1, (16, 16))
        xs = rng.uniform(-1, 1, (16, 5))
        batched_pe = ProcessingElement()
        batched_pe.program_weights(w)
        got = batched_pe.forward_batch(xs)
        single_pe = ProcessingElement()
        single_pe.program_weights(w)
        expected = np.stack(
            [oracles.pe_forward(single_pe, xs[:, b]) for b in range(5)], axis=1
        )
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert np.array_equal(batched_pe.ldsu.batch_bits, got > 0)
        # Same streamed-symbol cost as five per-sample passes.
        assert batched_pe.bank.stats.symbols == single_pe.bank.stats.symbols

    def test_gradient_vector_batch_matches_per_sample(self, rng):
        n, B = 16, 4
        w = rng.uniform(-1, 1, (n, n))
        x_cols = rng.uniform(-1, 1, (n, B))
        w_next = rng.uniform(-1, 1, (n, n))
        deltas = rng.uniform(-1, 1, (n, B))

        pe_b = ProcessingElement()
        pe_b.program_weights(w)
        pe_b.forward_batch(x_cols)
        pe_b.program_weights(w_next.T)
        got = pe_b.gradient_vector_batch(deltas)

        for b in range(B):
            pe_s = ProcessingElement()
            pe_s.program_weights(w)
            gains = oracles.ldsu_gains(pe_s, oracles.pe_forward(pe_s, x_cols[:, b]))
            pe_s.program_weights(w_next.T)
            expected = oracles.pe_gradient_vector(pe_s, deltas[:, b], gains)
            np.testing.assert_allclose(got[:, b], expected, rtol=0, atol=1e-12)

    def test_gradient_vector_batch_reads_surviving_sample_columns(self, rng):
        n, B = 16, 6
        pe = ProcessingElement()
        pe.program_weights(rng.uniform(-1, 1, (n, n)))
        pe.forward_batch(rng.uniform(-1, 1, (n, B)))
        pe.program_weights(rng.uniform(-1, 1, (n, n)))
        deltas = rng.uniform(-1, 1, (n, B))
        full = pe.gradient_vector_batch(deltas)
        survivors = np.array([1, 4, 5])
        got = pe.gradient_vector_batch(deltas[:, survivors], survivors)
        np.testing.assert_array_equal(got, full[:, survivors])

    def test_outer_product_batch_matches_per_sample(self, rng):
        B, d, y = 3, 6, 4
        deltas = rng.uniform(-1, 1, (B, d))
        ys = rng.uniform(-1, 1, (B, y))
        weights = rng.uniform(0.5, 2.0, B)
        pe_b = ProcessingElement()
        got = pe_b.outer_product_batch(deltas, ys, weights)
        assert got.shape == (d, y)
        pe_s = ProcessingElement()
        expected = sum(
            w * oracles.pe_outer_product(pe_s, deltas[b], ys[b])
            for b, w in enumerate(weights)
        )
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # Program-then-stream per sample costs exactly what the batch charged.
        assert pe_b.bank.stats == pe_s.bank.stats

    def test_outer_product_batch_charges_per_sample_costs(self, rng):
        B, d, y = 5, 6, 4
        pe = ProcessingElement()
        pe.outer_product_batch(
            rng.uniform(-1, 1, (B, d)), rng.uniform(-1, 1, (B, y)), np.ones(B)
        )
        # B programming events of y*d cells and B*d symbols — exactly what
        # B sequential program-then-stream outer products would charge.
        assert pe.bank.stats.write_events == B
        assert pe.bank.stats.cells_written == B * d * y
        assert pe.bank.stats.symbols == B * d
        assert pe.bank.stats.write_energy_j == pytest.approx(B * d * y * 660e-12)

    def test_outer_product_batch_validation(self, rng):
        pe = ProcessingElement()
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.zeros((2, 6)), np.zeros((3, 4)), np.ones(2))
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.zeros((2, 17)), np.zeros((2, 4)), np.ones(2))
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.full((2, 6), 2.0), np.zeros((2, 4)), np.ones(2))
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.zeros((2, 6)), np.zeros((2, 4)), np.ones(3))


def _crosstalk_pe(noise=None, n=16):
    """A PE whose bank mixes neighbouring channels (non-trivial colsum)."""
    leak = 0.02 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return ProcessingElement(
        bank=WeightBank(rows=n, cols=n, noise=noise or NoiseModel.ideal(),
                        crosstalk=np.eye(n) + leak),
        bpd=BalancedPhotodetector(noise=noise or NoiseModel.ideal()),
    )


class TestSummedOuterProduct:
    """The one-GEMM batch sum against the (B, y, d) stack of per-sample
    detections summed over B (``oracles.summed_outer_product``)."""

    @pytest.mark.parametrize("make", [ProcessingElement, _crosstalk_pe])
    def test_noise_off_matches_stack_sum(self, rng, make):
        B, d, y = 9, 7, 5
        deltas = rng.uniform(-1, 1, (B, d))
        ys = rng.uniform(-1, 1, (B, y))
        weights = rng.uniform(0.1, 3.0, B)
        pe_new, pe_old = make(), make()
        got = pe_new.outer_product_batch(deltas, ys, weights)
        expected = oracles.summed_outer_product(pe_old, deltas, ys, weights)
        assert got.shape == expected.shape == (d, y)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert pe_new.bank.stats == pe_old.bank.stats

    @pytest.mark.parametrize("make", [ProcessingElement, _crosstalk_pe])
    def test_single_sample_unit_weight_is_the_detected_block(self, rng, make):
        d = rng.uniform(-1, 1, 11)
        y = rng.uniform(-1, 1, 13)
        d[3] = 0.0
        y[2] = -0.0
        got = make().outer_product_batch(d[None], y[None], np.ones(1))
        expected = oracles.outer_product_stack(make(), d[None], y[None])[0]
        assert got.tobytes() == expected.tobytes()

    def test_noise_on_moments_match_per_sample_draws(self, rng):
        """Same mean and variance per gradient cell as summing B
        independently noisy detections, over many seeded draws."""
        B, d, y, draws = 5, 3, 4, 4000

        def noisy_pe(seed):
            noise = NoiseModel(enabled=True, shot_noise_coeff=0.05,
                               thermal_noise_std=0.03, rin_coeff=0.08, seed=seed)
            return ProcessingElement.with_noise(noise)

        deltas = rng.uniform(-1, 1, (B, d))
        ys = rng.uniform(-1, 1, (B, y))
        weights = rng.uniform(0.3, 2.5, B)
        pe_new, pe_old = noisy_pe(1), noisy_pe(2)
        new = np.stack([pe_new.outer_product_batch(deltas, ys, weights)
                        for _ in range(draws)])
        old = np.stack([oracles.summed_outer_product(pe_old, deltas, ys, weights)
                        for _ in range(draws)])
        exact = oracles.summed_outer_product(ProcessingElement(), deltas, ys, weights)
        var_new, var_old = new.var(axis=0), old.var(axis=0)
        # Means: both unbiased around the noise-free sum.
        se = np.sqrt((var_new + var_old) / draws)
        assert np.all(np.abs(new.mean(axis=0) - old.mean(axis=0)) < 5 * se)
        assert np.all(np.abs(new.mean(axis=0) - exact) < 5 * np.sqrt(var_new / draws))
        # Variances: sample variances of 4000 Gaussian draws agree to a
        # few percent; sum w_b^2 var_b vs (sum w_b)^2 or sum w_b var_b
        # would be off by tens of percent.
        np.testing.assert_allclose(var_new, var_old, rtol=0.15)
        m = np.einsum("bi,bj->bij", deltas, ys)  # per-sample (d, y) means
        a, c, r = pe_new.bpd.noise.detection_variance_coeffs
        law = np.einsum("b,bij->ij", weights**2, a * np.abs(m) + c + (r * m) ** 2)
        np.testing.assert_allclose(var_new, law, rtol=0.15)
        # y*d draws per call, not B*y*d: the generators advanced by
        # different amounts.
        assert (pe_new.bpd.noise.rng.bit_generator.state
                != pe_old.bpd.noise.rng.bit_generator.state)

    def test_draws_one_gaussian_per_gradient_cell(self):
        B, d, y = 6, 5, 4
        noise = NoiseModel.realistic(seed=3)
        pe = ProcessingElement.with_noise(noise)
        pe.outer_product_batch(np.full((B, d), 0.5), np.full((B, y), 0.5), np.ones(B))
        replay = NoiseModel.realistic(seed=3)
        replay.rng.standard_normal(d * y)
        assert noise.rng.bit_generator.state == replay.rng.bit_generator.state


class TestTIAGains:
    def test_set_and_reset(self, pe):
        gains = np.linspace(0, 1, 16)
        pe.set_tia_gains(gains)
        assert np.allclose([t.gain for t in pe.tias], gains)
        pe.reset_tia_gains()
        assert all(t.gain == 1.0 for t in pe.tias)

    def test_rejects_wrong_length(self, pe):
        with pytest.raises(ShapeError):
            pe.set_tia_gains(np.ones(4))

    def test_write_energy_property(self, pe, rng):
        pe.program_weights(rng.uniform(-1, 1, (16, 16)))
        assert pe.write_energy_j == pytest.approx(256 * 660e-12)
