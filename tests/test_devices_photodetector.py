"""Tests for photodetector and balanced-pair models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector, Photodetector
from repro.errors import ConfigError, DeviceError
from tests import oracles


class TestPhotodetector:
    def test_photocurrent_linear_in_power(self):
        pd = Photodetector(dark_current_a=0.0)
        assert float(pd.photocurrent(2e-3)) == pytest.approx(2 * float(pd.photocurrent(1e-3)))

    def test_dark_current_added(self):
        pd = Photodetector(dark_current_a=5e-9)
        assert float(pd.photocurrent(0.0)) == pytest.approx(5e-9)

    def test_rejects_negative_power(self):
        with pytest.raises(DeviceError):
            Photodetector().photocurrent(-1e-3)

    def test_shot_noise_grows_with_sqrt_power(self):
        pd = Photodetector(dark_current_a=0.0)
        ratio = float(pd.shot_noise_std(4e-3)) / float(pd.shot_noise_std(1e-3))
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_thermal_noise_independent_of_power(self):
        pd = Photodetector()
        assert pd.thermal_noise_std() > 0

    def test_snr_improves_with_power(self):
        pd = Photodetector()
        assert pd.snr_db(1e-3) > pd.snr_db(1e-6)

    def test_snr_rejects_nonpositive_power(self):
        with pytest.raises(DeviceError):
            Photodetector().snr_db(0.0)

    def test_snr_is_tens_of_db_at_milliwatt(self):
        assert 20 < Photodetector().snr_db(1e-3) < 120

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            Photodetector(responsivity_a_per_w=0.0)
        with pytest.raises(ConfigError):
            Photodetector(dark_current_a=-1e-9)
        with pytest.raises(ConfigError):
            Photodetector(bandwidth_hz=0.0)


class TestBalancedPhotodetector:
    def test_differential_subtracts(self):
        bpd = BalancedPhotodetector()
        r = bpd.detector.responsivity_a_per_w
        out = bpd.detect(2e-3, 0.5e-3)
        assert float(out) == pytest.approx(r * 1.5e-3)

    def test_dark_current_cancels(self):
        bpd = BalancedPhotodetector(detector=Photodetector(dark_current_a=1e-6))
        assert float(bpd.detect(1e-3, 1e-3)) == pytest.approx(0.0)

    def test_rejects_shape_mismatch(self):
        bpd = BalancedPhotodetector()
        with pytest.raises(DeviceError):
            bpd.detect(np.ones(3), np.ones(4))

    def test_rejects_negative_power(self):
        bpd = BalancedPhotodetector()
        with pytest.raises(DeviceError):
            bpd.detect(np.array([-1e-3]), np.array([0.0]))

    def test_detect_normalized_identity_when_ideal(self):
        bpd = BalancedPhotodetector()
        sig = np.array([1.0, -2.0, 0.25, 0.0])
        assert np.allclose(bpd.detect_normalized(sig), sig)

    def test_detect_normalized_noisy_is_unbiased(self):
        bpd = BalancedPhotodetector(noise=NoiseModel.realistic(seed=3))
        sig = np.full(20000, 0.5)
        out = bpd.detect_normalized(sig)
        assert np.mean(out) == pytest.approx(0.5, abs=1e-3)
        assert np.std(out) > 0

    def test_noise_repeatable_from_seed(self):
        sig = np.linspace(-1, 1, 64)
        a = BalancedPhotodetector(noise=NoiseModel.realistic(seed=9)).detect_normalized(sig)
        b = BalancedPhotodetector(noise=NoiseModel.realistic(seed=9)).detect_normalized(sig)
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# The lean detector against the branch-split oracle
# ----------------------------------------------------------------------
_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
            -2.2e-308, 1e-310, -1e-310, 1e308, -1e308, 1.0, -1.0]


@st.composite
def _signals(draw):
    shape = draw(st.sampled_from([(), (1,), (7,), (3, 5), (2, 3, 4)]))
    size = int(np.prod(shape, dtype=int))
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_SPECIAL),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            ),
            min_size=size,
            max_size=size,
        )
    )
    return np.array(values, dtype=np.float64).reshape(shape)


class TestLeanDetectorMatchesOracle:
    """``detect_normalized`` must reproduce the explicit plus/minus branch
    split byte for byte: ±0, NaN, ±inf, subnormals, any responsivity and
    scale, and the same noise draws from a shared seed."""

    @settings(max_examples=300, deadline=None)
    @given(
        signal=_signals(),
        responsivity=st.sampled_from([1.0, 0.8, 1.7, 3e-5]),
        scale_w=st.sampled_from([1e-3, 1.0, 0.37, 1e-300, 1e300]),
        noisy=st.booleans(),
        # (shot, thermal, rin): the defaults, then laws each dominated by
        # one term so a reordered variance expression shows in the bits.
        coeffs=st.sampled_from(
            [(0.002, 0.001, 0.001), (0.0, 0.0, 0.37), (0.3, 0.0, 0.0), (0.3, 0.05, 0.7)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_byte_identical(self, signal, responsivity, scale_w, noisy, coeffs, seed):
        shot, thermal, rin = coeffs

        def bpd():
            return BalancedPhotodetector(
                detector=Photodetector(responsivity_a_per_w=responsivity),
                noise=NoiseModel(enabled=noisy, shot_noise_coeff=shot,
                                 thermal_noise_std=thermal, rin_coeff=rin, seed=seed),
            )

        with np.errstate(all="ignore"):
            expected = oracles.detect_normalized(bpd(), signal, scale_w)
            got = bpd().detect_normalized(signal, scale_w)
        assert isinstance(got, np.ndarray)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_apply_detection_noise_matches_oracle(self):
        sig = np.linspace(-2.0, 2.0, 101)
        got = NoiseModel.realistic(seed=4).apply_detection_noise(sig)
        expected = oracles.detection_noise(NoiseModel.realistic(seed=4), sig)
        assert got.tobytes() == expected.tobytes()

    def test_never_mutates_input(self):
        sig = np.array([-0.0, 1.0, np.nan])
        before = sig.tobytes()
        BalancedPhotodetector(noise=NoiseModel.realistic(seed=1)).detect_normalized(sig)
        assert sig.tobytes() == before

    def test_rejects_non_positive_scale(self):
        with pytest.raises(DeviceError):
            BalancedPhotodetector().detect_normalized(np.ones(2), scale_w=0.0)
