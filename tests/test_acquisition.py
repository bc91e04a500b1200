import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sp_signal

from aesynth import (
    AcquisitionSpec,
    add_thermal_noise,
    differential_subtract,
    matched_filter,
    pulse_waveform,
)
from aesynth.errors import ValidationError


def brute_correlate_centered(trace, template):
    """Independent oracle: centered cross-correlation with peak-preserving scale."""
    scale = np.max(np.abs(template)) / np.sum(template * template)
    c = (len(template) - 1) // 2
    out = np.zeros(len(trace))
    for n in range(len(trace)):
        acc = 0.0
        for j in range(len(template)):
            k = n + j - c
            if 0 <= k < len(trace):
                acc += trace[k] * template[j]
        out[n] = acc * scale
    return out


class TestThermalNoise:
    def test_zero_noise_is_identity(self, rng):
        x = np.linspace(-1, 1, 100)
        out = add_thermal_noise(x, 0.0, 4, rng)
        np.testing.assert_array_equal(out, x)

    def test_unit_variance_monte_carlo(self):
        rng = np.random.default_rng(42)
        out = add_thermal_noise(np.zeros(10**6), 1.0, 1, rng)
        assert np.var(out) == pytest.approx(1.0, abs=0.01)

    def test_one_over_k_variance(self):
        rng = np.random.default_rng(43)
        out = add_thermal_noise(np.zeros(10**6), 1.0, 16, rng)
        assert np.var(out) == pytest.approx(1 / 16, abs=0.002)

    def test_variance_ratio_across_k(self):
        # 1 : 1/4 : 1/16 within 10% at 1e5 samples
        variances = {}
        for k in (1, 4, 16):
            rng = np.random.default_rng(100 + k)
            variances[k] = np.var(add_thermal_noise(np.zeros(10**5), 2.5, k, rng))
        for k in (4, 16):
            assert variances[k] / variances[1] == pytest.approx(1 / k, rel=0.1)

    def test_matches_explicit_k_fold_averaging(self):
        # oracle: actually average k independent noisy repetitions
        k, n, noise_power = 8, 10**5, 3.0
        rng = np.random.default_rng(7)
        explicit = np.mean(
            rng.normal(0.0, np.sqrt(noise_power), size=(k, n)), axis=0
        )
        analytic = add_thermal_noise(np.zeros(n), noise_power, k, np.random.default_rng(8))
        assert np.var(analytic) == pytest.approx(np.var(explicit), rel=0.1)

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValidationError):
            add_thermal_noise(np.zeros(4), -1.0, 1, rng)
        with pytest.raises(ValidationError):
            add_thermal_noise(np.zeros(4), 1.0, 0, rng)


class TestDifferentialSubtract:
    def test_common_mode_cancels_bitwise_on_dyadic_data(self):
        # dyadic values incur no rounding, so cancellation is exact
        s = np.array([0.25, -0.5, 1.0, 0.0, 2.0])
        cm = np.array([0.5, 0.5, -1.0, 4.0, 0.25])
        out = differential_subtract(s + cm, -s + cm)
        np.testing.assert_array_equal(out, 2 * s)

    def test_common_mode_cancels_general(self, rng):
        s = rng.normal(size=1000)
        cm = rng.normal(size=1000) * 100
        out = differential_subtract(s + cm, -s + cm)
        np.testing.assert_allclose(out, 2 * s, atol=1e-12 * 100)

    def test_identical_traces_cancel(self, rng):
        v = rng.normal(size=64)
        np.testing.assert_array_equal(differential_subtract(v, v), np.zeros(64))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
    def test_elementwise_difference(self, values):
        v = np.asarray(values)
        w = v[::-1].copy()
        np.testing.assert_array_equal(differential_subtract(v, w), v - w)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            differential_subtract(np.zeros(4), np.zeros(5))


class TestMatchedFilter:
    def test_self_match_preserves_peak(self, tone_pulse):
        h = pulse_waveform(tone_pulse)
        out = matched_filter(h, h)
        assert np.argmax(out) == np.argmax(h)
        assert out.max() == pytest.approx(np.max(np.abs(h)))

    def test_zero_trace(self, tone_pulse):
        h = pulse_waveform(tone_pulse)
        out = matched_filter(np.zeros(50), h)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_delayed_template(self, tone_pulse):
        h = pulse_waveform(tone_pulse)
        trace = np.zeros(64)
        d = 20
        trace[d : d + h.size] = h
        out = matched_filter(trace, h)
        peak_in = d + np.argmax(h)
        assert np.argmax(out) == peak_in
        assert out[peak_in] == pytest.approx(np.max(np.abs(h)))

    def test_matches_brute_force_oracle(self, rng, tone_pulse):
        h = pulse_waveform(tone_pulse)
        trace = rng.normal(size=100)
        np.testing.assert_allclose(
            matched_filter(trace, h), brute_correlate_centered(trace, h), atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_linear_and_shift_equivariant(self, seed):
        from aesynth import PulseSpec

        h = pulse_waveform(PulseSpec(center_frequency=2e6, num_cycles=1, sample_rate=16e6))
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 80))
        alpha, beta = rng.normal(size=2)
        np.testing.assert_allclose(
            matched_filter(alpha * a + beta * b, h),
            alpha * matched_filter(a, h) + beta * matched_filter(b, h),
            atol=1e-10,
        )
        # shift equivariance away from the borders
        shifted = np.roll(a, 3)
        lhs = matched_filter(shifted, h)
        rhs = np.roll(matched_filter(a, h), 3)
        np.testing.assert_allclose(lhs[10:-10], rhs[10:-10], atol=1e-10)

    @pytest.mark.parametrize("shape, taps, method", [
        ((550,), 9, "direct"),  # a desk-scene trace
        ((20000,), 801, "fft"),
        ((3, 40), 9, "direct"),  # stacks of traces go through scipy
        ((4, 300), 9, "fft"),
    ])
    def test_bitwise_equal_to_scipy_auto(self, rng, shape, taps, method):
        trace, h = rng.normal(size=shape), rng.normal(size=taps)
        kernel = (h * (np.max(np.abs(h)) / np.sum(h * h))).reshape((1,) * (len(shape) - 1) + (taps,))
        assert sp_signal.choose_conv_method(trace, kernel, mode="full") == method
        start = taps - 1 - (taps - 1) // 2
        full = sp_signal.correlate(trace, kernel, mode="full", method="auto")
        assert np.array_equal(matched_filter(trace, h), full[..., start : start + shape[-1]])

    def test_zero_template_rejected(self):
        with pytest.raises(ValidationError):
            matched_filter(np.ones(10), np.zeros(5))

    def test_impulse_template_is_identity(self, rng):
        trace = rng.normal(size=30)
        np.testing.assert_allclose(matched_filter(trace, np.ones(1)), trace)


class TestAcquisitionSpec:
    def test_defaults(self):
        spec = AcquisitionSpec()
        assert spec.k == 1 and spec.rf_gain == 1.0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            AcquisitionSpec(k=0)
        with pytest.raises(ValidationError):
            AcquisitionSpec(noise_power=-2.0)
