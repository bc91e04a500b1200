"""Signal conditioning: thermal noise with transmit averaging, differential
subtraction for common-mode rejection, and amplitude-preserving matched
filtering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from .errors import ValidationError


@dataclass(frozen=True)
class AcquisitionSpec:
    """Acquisition chain parameters.

    ``k`` is the number of repeated transmissions coherently averaged per
    recorded trace; ``noise_power`` the pre-averaging per-sample thermal
    noise variance (V^2); ``common_mode_amplitude`` the amplitude of the
    deterministic interference identical in the (+) and (-) acquisitions;
    ``rf_gain`` a lumped analog gain applied to everything the receiver sees.
    """

    k: int = 1
    noise_power: float = 0.0
    common_mode_amplitude: float = 0.0
    rf_gain: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.noise_power < 0:
            raise ValidationError("noise_power must be >= 0")


def add_thermal_noise(
    trace: np.ndarray, noise_power: float, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Add zero-mean Gaussian noise with variance ``noise_power / k``.

    Averaging ``k`` repeated acquisitions of a deterministic signal leaves
    the signal untouched and divides the noise variance by k; the averaged
    result is drawn directly instead of simulating k repetitions.
    """
    if noise_power < 0:
        raise ValidationError("noise_power must be >= 0")
    if k < 1:
        raise ValidationError("k must be >= 1")
    trace = np.asarray(trace, dtype=float)
    if noise_power == 0:
        return trace.copy()
    return trace + rng.normal(0.0, np.sqrt(noise_power / k), size=trace.shape)


def differential_subtract(v_plus: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """Subtract the negative-polarity trace from the positive-polarity one.

    Any additive component common to both acquisitions cancels.
    """
    v_plus = np.asarray(v_plus, dtype=float)
    v_minus = np.asarray(v_minus, dtype=float)
    if v_plus.shape != v_minus.shape:
        raise ValidationError(
            f"trace length mismatch: {v_plus.shape} vs {v_minus.shape}"
        )
    return v_plus - v_minus


def matched_filter(trace: np.ndarray, pulse_template: np.ndarray) -> np.ndarray:
    """Cross-correlate ``trace`` with the emitted pulse template.

    The template is rescaled by ``max|template| / sum(template^2)`` so a trace
    equal to the template produces a peak output equal to the trace's own peak
    amplitude, and the output is aligned so a pulse centered at time t stays
    centered at t (the template center is its middle sample).
    """
    trace = np.asarray(trace, dtype=float)
    return _matched_filter(pulse_template, trace.shape)(trace)


def _matched_filter(pulse_template: np.ndarray, shape: tuple):
    """``matched_filter`` for traces of ``shape``.  scipy's "auto" method is
    chosen once from the shapes; its 1D direct path, ``np.convolve`` with the
    reversed kernel, is called without scipy's per-call wrapper (same bits)."""
    h = np.asarray(pulse_template, dtype=float)
    if h.ndim != 1 or h.size == 0 or not np.any(h):
        raise ValidationError("pulse template must be a nonzero 1D array")
    kernel = (h * (np.max(np.abs(h)) / np.sum(h * h))).reshape((1,) * (len(shape) - 1) + (h.size,))
    method = sp_signal.choose_conv_method(np.broadcast_to(0.0, shape), kernel, mode="full")
    start = h.size - 1 - (h.size - 1) // 2
    def apply(trace: np.ndarray) -> np.ndarray:
        out = (np.convolve(trace, kernel[::-1]) if method == "direct" and trace.ndim == 1
               else sp_signal.correlate(trace, kernel, mode="full", method=method))
        return out[..., start : start + trace.shape[-1]]
    return apply
