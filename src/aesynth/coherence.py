"""Coherence-factor weighting and effective-beam amplitude correction.

The coherence factor of a pixel's delayed aperture samples is the ratio of
coherent to incoherent energy,

    CF = |sum_i s_i|^2 / (count * sum_i s_i^2),

where ``count`` is the number of elements actually contributing at that
pixel (edge-truncated sub-apertures and out-of-support samples reduce it).
The pulse-length variant averages the CF over the samples spanning one
pulse length starting at the arrival time.

Both work one depth row at a time on the lanes of the aperture band that
the row uses (see ``ApertureSamples``), so CF and a one-sample CFPL reduce
identical vectors and agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import ArrayGeometry, Medium, PixelGrid, PulseSpec
from .errors import GridMismatchError, ValidationError
from .forward import PressureModel, _amplitude
from .reconstruct import (
    ApertureSamples,
    BeamformedImage,
    _Scratch,
    _gather,
    _lane_elements,
    _sub_aperture_windows,
    envelope,
)

KIND_CF = "cf"
KIND_CFPL = "cfpl"


@dataclass(frozen=True, eq=False)
class CoherenceMap:
    """Per-pixel coherence values in [0, 1]."""

    grid: PixelGrid
    values: np.ndarray = field(repr=False)
    kind: str = KIND_CF
    pulse_samples: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nz, self.grid.nx):
            raise ValidationError("coherence map shape must match its grid")
        if np.any(v < 0) or np.any(v > 1):
            raise ValidationError("coherence values must lie in [0, 1]")
        if self.kind == KIND_CFPL and (self.pulse_samples is None or self.pulse_samples < 1):
            raise ValidationError("pulse_samples must be >= 1 for CFPL maps")
        object.__setattr__(self, "values", v)


def _cf_values(
    vals: np.ndarray, valid: np.ndarray, scratch: _Scratch | None = None
) -> np.ndarray:
    """CF of sample vectors along the last axis; 0 where there is no energy.

    ``vals`` must be 0 wherever ``valid`` is False.
    """
    num = vals.sum(axis=-1) ** 2
    square = None if scratch is None else scratch("square", vals.shape)
    energy = np.square(vals, out=square).sum(axis=-1)
    count = np.count_nonzero(valid, axis=-1)
    den = count * energy
    with np.errstate(invalid="ignore", divide="ignore"):
        cf = np.where(den > 0, num / den, 0.0)
    # Cauchy-Schwarz bounds CF by 1; clip float rounding excursions only.
    return np.clip(cf, 0.0, 1.0)


def _row_widths(samples: ApertureSamples) -> np.ndarray:
    """Per depth row, the number of leading band lanes holding any member."""
    used = samples.member.any(axis=1)
    last = used.shape[1] - np.argmax(used[:, ::-1], axis=1)
    return np.where(used.any(axis=1), last, 0)


def coherence_factor(samples: ApertureSamples) -> CoherenceMap:
    """Coherence factor of the delayed aperture samples at every pixel."""
    cf = np.zeros((samples.grid.nz, samples.grid.nx))
    for iz, w in enumerate(_row_widths(samples)):
        valid = samples.valid[iz, :, :w]
        cf[iz] = _cf_values(np.where(valid, samples.samples[iz, :, :w], 0.0), valid)
    return CoherenceMap(grid=samples.grid, values=cf, kind=KIND_CF)


def coherence_factor_pl(
    samples: ApertureSamples,
    pulse_samples: int,
    centered: bool = False,
    threads: int = 1,
) -> CoherenceMap:
    """Pulse-length coherence factor.

    The CF is evaluated at each of the ``pulse_samples`` instants spanning
    the pulse length and averaged.  The window starts at the arrival-time
    sample; pass ``centered=True`` to center it on the arrival instead.
    Instants with zero energy contribute 0 to the mean.

    Each depth row gathers all instants at once, (pulse_samples, nx, w)
    samples for the row's w lanes, into buffers reused across rows.  Rows
    run in one loop on the calling thread; ``threads`` is accepted and
    ignored.
    """
    if pulse_samples < 1:
        raise ValidationError("pulse_samples must be >= 1")
    offsets = np.arange(pulse_samples)
    if centered:
        offsets = offsets - (pulse_samples - 1) // 2
    offsets = offsets.astype(float)[:, None, None]
    nz, nx = samples.grid.nz, samples.grid.nx
    total = np.zeros((nz, nx))
    scratch = _Scratch(pulse_samples * nx * samples.samples.shape[2])
    for iz, w in enumerate(_row_widths(samples)):
        shape = (pulse_samples, nx, w)
        pos = np.add(samples.positions[iz, :, :w], offsets, out=scratch("pos", shape))
        elem = _lane_elements(samples.start[iz], w, samples.num_elements)
        vals, support = _gather(samples.channels, elem, pos, scratch)
        valid = np.logical_and(samples.member[iz, :, :w], support, out=support)
        invalid = np.logical_not(valid, out=scratch("invalid", shape, bool))
        np.copyto(vals, 0.0, where=invalid)
        # a running sum in instant order, whatever the row's shape
        acc = total[iz]
        for cf in _cf_values(vals, valid, scratch):
            acc += cf
    cfpl = total / pulse_samples
    return CoherenceMap(
        grid=samples.grid, values=cfpl, kind=KIND_CFPL, pulse_samples=pulse_samples
    )


def apply_weighting(image: BeamformedImage, cmap: CoherenceMap) -> BeamformedImage:
    """Multiply the pre-envelope image by the coherence map pixel-wise.

    The envelope, when present, is recomputed from the weighted values.
    """
    if cmap.grid != image.grid:
        raise GridMismatchError("coherence map grid does not match the image grid")
    weighted = replace(image, values=image.values * cmap.values, envelope=None)
    if image.envelope is not None:
        weighted = envelope(weighted)
    return weighted


def effective_beam_map(
    geometry: ArrayGeometry,
    grid: PixelGrid,
    f_number: float,
    medium: Medium,
    pulse: PulseSpec,
    model: PressureModel,
    threads: int = 1,
) -> np.ndarray:
    """Synthesized on-focus beam amplitude at every pixel.

    Per pixel this is the sum of the sub-aperture elements' beam amplitudes;
    with a constant-amplitude pressure model it equals the local element
    count, growing with depth and dimming near the lateral edges.  ``medium``
    and ``pulse`` are accepted for interface stability with frequency-aware
    pressure models.  Rows run in one loop on the calling thread;
    ``threads`` is accepted and ignored.
    """
    del medium, pulse
    m = geometry.num_elements
    elem_x = geometry.element_positions()
    xs = grid.x_coords()
    zs = grid.z_coords()
    lo, hi = _sub_aperture_windows(geometry, xs, zs, f_number)
    span = hi - lo
    out = np.zeros((grid.nz, grid.nx))

    for iz in range(grid.nz):
        w = int(span[iz].max()) + 1
        elem = _lane_elements(lo[iz], w, m)
        amp = _amplitude(xs[:, None] - elem_x[elem], zs[iz], model)
        out[iz] = np.where(np.arange(w) <= span[iz][:, None], amp, 0.0).sum(axis=1)
    return out


def amplitude_correct(
    image: BeamformedImage, beam_map: np.ndarray, epsilon: float = 0.05
) -> BeamformedImage:
    """Divide the image by the effective beam map to equalize depth amplitude.

    The divisor is clamped below at ``epsilon * max(beam_map)`` so weak-beam
    pixels (e.g. the shallow zone where the sub-aperture clamps to one
    element) cannot blow up.
    """
    beam_map = np.asarray(beam_map, dtype=float)
    if beam_map.shape != image.values.shape:
        raise GridMismatchError("beam map shape does not match the image grid")
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")
    peak = beam_map.max()
    if not peak > 0:
        raise ValidationError("beam map must contain positive values")
    divisor = np.maximum(beam_map, epsilon * peak)
    corrected = replace(image, values=image.values / divisor, envelope=None)
    if image.envelope is not None:
        corrected = envelope(corrected)
    return corrected
