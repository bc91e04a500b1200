"""Coherence-factor weighting and effective-beam amplitude correction.

The coherence factor of a pixel's delayed aperture samples is the ratio of
coherent to incoherent energy,

    CF = |sum_i s_i|^2 / (count * sum_i s_i^2),

where ``count`` is the number of elements actually contributing at that
pixel (edge-truncated sub-apertures and out-of-support samples reduce it).
The pulse-length variant averages the CF over the samples spanning one
pulse length starting at the arrival time.

One row pass, ``_sa_pass``, forms every CF and CFPL map.  ``sa_frame``
feeds it the rows of ``_sa_rows`` and gets the SA image with its maps
without storing an aperture; its delays, windows and gather indices depend
only on the array, grid, medium and sampling, never on the traces, so it
takes a batch of datasets that share them and plans each row once for all.
``coherence_factor`` and ``coherence_factor_pl`` feed it the rows of the
delay plan (``ApertureSamples``) that ``das_sa`` stores and give the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import ArrayGeometry, Medium, PixelGrid, PulseSpec
from .errors import GridMismatchError, ValidationError
from .forward import ChannelDataSet, PressureModel, _amplitude
from .reconstruct import (
    METHOD_SA,
    ApertureSamples,
    BeamformedImage,
    _Scratch,
    _gather_plan,
    _interpolate,
    _lane_elements,
    _lanes_used,
    _plan_inputs,
    _sa_rows,
    _window_rows,
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
    vals: np.ndarray, count: np.ndarray, scratch: _Scratch | None = None
) -> np.ndarray:
    """CF of sample vectors along the last axis; 0 where there is no energy.

    ``count`` is the number of valid samples of each vector, and ``vals``
    must be 0 wherever a sample is not valid.
    """
    num = vals.sum(axis=-1) ** 2
    square = None if scratch is None else scratch("square", vals.shape)
    energy = np.square(vals, out=square).sum(axis=-1)
    den = count * energy
    with np.errstate(invalid="ignore", divide="ignore"):
        cf = np.where(den > 0, num / den, 0.0)
    # Cauchy-Schwarz bounds CF by 1; clip float rounding excursions only.
    return np.clip(cf, 0.0, 1.0)


def _sa_pass(
    rows, flats, num_samples: int, grid: PixelGrid, width: int, pulse_samples: int, centered: bool
):
    """Image values, coverage, CF and CFPL of every channel block, in one pass over depth rows.

    ``rows`` yields, per depth row, ``_sa_rows``-style lanes: trace indices,
    membership and arrival positions, each (nx, w), and the lanes up to the
    last member; ``width`` bounds every row's w.  ``flats`` are flattened
    channel blocks of ``num_samples``-sample traces that share those rows.
    Per row the ``pulse_samples`` instants from the arrival (centered on it
    with ``centered``) are planned once; per block only the interpolation,
    the sums and the CF run.  The image and coverage come from the arrival
    instant, summed over the row's w lanes.  The CF reduces only the lanes up
    to the last member: trailing empty lanes would regroup numpy's pairwise
    sums.  CF is the arrival instant's CF and CFPL the mean CF over the
    instants, summed in instant order.  Returns (blocks, nz, nx) values, CF
    and CFPL and the shared (nz, nx) coverage.
    """
    if pulse_samples < 1:
        raise ValidationError("pulse_samples must be >= 1")
    offsets = np.arange(pulse_samples)
    if centered:
        offsets = offsets - (pulse_samples - 1) // 2
    arrival = int(-offsets[0])
    offsets = offsets.astype(float)[:, None, None]
    values, cf, cfpl = np.zeros((3, len(flats), grid.nz, grid.nx))
    coverage = np.zeros((grid.nz, grid.nx), dtype=np.int64)
    scratch = _Scratch(pulse_samples * grid.nx * width)
    for iz, (trace, member, pos, used) in enumerate(rows):
        block = np.add(pos, offsets, out=scratch("pos", offsets.shape[:1] + pos.shape))
        plan = _gather_plan(num_samples, trace, block, scratch, member)
        valid = plan[3]
        coverage[iz] = valid[arrival].sum(axis=-1)
        count = np.count_nonzero(valid[..., :used], axis=-1)
        for k, flat in enumerate(flats):
            vals = _interpolate(flat, plan, scratch)
            values[k, iz] = vals[arrival].sum(axis=-1)
            row_cf = _cf_values(vals[..., :used], count, scratch)
            cf[k, iz] = row_cf[arrival]
            for instant in row_cf:
                cfpl[k, iz] += instant
    cfpl /= pulse_samples
    return values, coverage, cf, cfpl


def coherence_factor(samples: ApertureSamples) -> CoherenceMap:
    """Coherence factor of the delayed aperture samples at every pixel.

    The one-instant case of ``coherence_factor_pl``: the samples are
    re-gathered at the arrival positions.
    """
    return replace(coherence_factor_pl(samples, 1), kind=KIND_CF, pulse_samples=None)


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

    The stored plan's rows, cut to their lanes up to the last member, go
    through ``_sa_pass``.  Rows run in one loop on the calling thread;
    ``threads`` is accepted and ignored.
    """

    def rows():
        for iz, w in enumerate(_lanes_used(samples.member)):
            elem = _lane_elements(samples.start[iz], w, samples.num_elements)
            yield elem, samples.member[iz, :, :w], samples.positions[iz, :, :w], w

    channels, width = samples.channels, samples.positions.shape[2]
    cfpl = _sa_pass(
        rows(), [channels.ravel()], channels.shape[1], samples.grid, width, pulse_samples, centered
    )[3]
    return CoherenceMap(samples.grid, cfpl[0], KIND_CFPL, pulse_samples)


def sa_frame(
    datasets, grid: PixelGrid, f_number: float, pulse_samples: int = 1, centered: bool = False,
) -> list[tuple[BeamformedImage, CoherenceMap, CoherenceMap]]:
    """SA image (with coverage), CF map and CFPL map of each dataset, in one pass over depth rows.

    The datasets must share one delay plan: the same array, speed of sound,
    sampling and element -> event map with its delays (``_plan_inputs``),
    else ``ValidationError``.  The rows of ``_sa_rows`` go through
    ``_sa_pass`` once for the whole batch; one frame is a one-item batch.

    Each triple is bitwise equal to ``das_sa`` followed by
    ``coherence_factor`` and ``coherence_factor_pl`` on its aperture, but
    nothing larger than one row's (pulse_samples, nx, w) block is stored.
    The images share one coverage array.
    """
    if not datasets:
        raise ValidationError("sa_frame needs at least one dataset")
    first = datasets[0]
    plan = _plan_inputs(first)
    if any(_plan_inputs(data) != plan for data in datasets[1:]):
        raise ValidationError(
            "datasets in one SA frame pass must share the array, speed of sound, "
            "sampling and transmit events"
        )
    _, _, width, rows = _sa_rows(first, grid, f_number)
    flats = [data.channels.ravel() for data in datasets]
    values, coverage, cf, cfpl = _sa_pass(
        rows, flats, first.num_samples, grid, width, pulse_samples, centered
    )
    return [
        (
            BeamformedImage(grid, v, method=METHOD_SA, f_number=f_number, coverage=coverage),
            CoherenceMap(grid, c, KIND_CF),
            CoherenceMap(grid, p, KIND_CFPL, pulse_samples),
        )
        for v, c, p in zip(values, cf, cfpl)
    ]


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
    elem_x = geometry.element_positions()
    xs = grid.x_coords()
    _, _, windows = _window_rows(geometry, grid, f_number)
    out = np.zeros((grid.nz, grid.nx))
    for out_row, z, (elem, in_window) in zip(out, grid.z_coords(), windows):
        amp = _amplitude(xs[:, None] - elem_x[elem], z, model)
        out_row[:] = np.where(in_window, amp, 0.0).sum(axis=1)
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
