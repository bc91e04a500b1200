"""Coherence-factor weighting and effective-beam amplitude correction.

The coherence factor of a pixel's delayed aperture samples is the ratio of
coherent to incoherent energy,

    CF = |sum_i s_i|^2 / (count * sum_i s_i^2),

where ``count`` is the number of elements actually contributing at that
pixel (edge-truncated sub-apertures and out-of-support samples reduce it).
The pulse-length variant averages the CF over the samples spanning one
pulse length starting at the arrival time.

``sa_frame`` forms the SA image, CF and CFPL in one pass over depth rows
without storing an aperture.  Its delays, windows and gather indices depend
only on the array, grid, medium and sampling, never on the traces, so it
takes a batch of datasets that share them and plans each row once for all.
``coherence_factor`` and ``coherence_factor_pl`` give the same bits from the
``ApertureSamples`` that ``das_sa`` returns.
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
    _plan_inputs,
    _sa_rows,
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


def _lanes_used(member: np.ndarray) -> np.ndarray:
    """Number of leading lanes holding any member, per (nx, w) row of ``member``."""
    used = member.any(axis=-2)
    return np.where(used.any(axis=-1), used.shape[-1] - np.argmax(used[..., ::-1], axis=-1), 0)


def coherence_factor(samples: ApertureSamples) -> CoherenceMap:
    """Coherence factor of the delayed aperture samples at every pixel."""
    cf = np.zeros((samples.grid.nz, samples.grid.nx))
    for iz, w in enumerate(_lanes_used(samples.member)):
        valid = samples.valid[iz, :, :w]
        vals = np.where(valid, samples.samples[iz, :, :w], 0.0)
        cf[iz] = _cf_values(vals, np.count_nonzero(valid, axis=-1))
    return CoherenceMap(grid=samples.grid, values=cf, kind=KIND_CF)


def _pulse_offsets(pulse_samples: int, centered: bool) -> np.ndarray:
    """Sample offsets of the pulse-length instants from the arrival, (L, 1, 1)."""
    if pulse_samples < 1:
        raise ValidationError("pulse_samples must be >= 1")
    offsets = np.arange(pulse_samples)
    if centered:
        offsets = offsets - (pulse_samples - 1) // 2
    return offsets.astype(float)[:, None, None]


def _pulse_blocks(flats, num_samples: int, rows, offsets: np.ndarray, scratch: _Scratch):
    """Per row of ``_sa_rows``-style ``(trace, member, pos, used)``, plan the L instants once.

    ``flats`` are flattened channel blocks of ``num_samples``-sample traces
    that share one delay plan.  Each row yields its (L, nx, w) valid mask and
    an iterator over ``flats`` of the (L, nx, w) samples and the (L, nx) CF
    of every instant, which must be consumed before the next row.  Only the
    interpolation and the CF run per block.  The CF reduces only the ``used``
    lanes, up to the last one holding a member: trailing empty lanes would
    regroup numpy's pairwise sums.
    """
    for trace, member, pos, w in rows:
        block = np.add(pos, offsets, out=scratch("pos", offsets.shape[:1] + pos.shape))
        plan = _gather_plan(num_samples, trace, block, scratch, member)
        valid = plan[3]
        count = np.count_nonzero(valid[..., :w], axis=-1)
        yield valid, _block_samples(flats, plan, w, count, scratch)


def _block_samples(flats, plan, w: int, count: np.ndarray, scratch: _Scratch):
    for flat in flats:
        vals = _interpolate(flat, plan, scratch)
        yield vals, _cf_values(vals[..., :w], count, scratch)


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
    offsets = _pulse_offsets(pulse_samples, centered)
    nz, nx = samples.grid.nz, samples.grid.nx

    def rows():
        for iz, w in enumerate(_lanes_used(samples.member)):
            elem = _lane_elements(samples.start[iz], w, samples.num_elements)
            yield elem, samples.member[iz, :, :w], samples.positions[iz, :, :w], w

    total = np.zeros((nz, nx))
    scratch = _Scratch(pulse_samples * nx * samples.samples.shape[2])
    channels = samples.channels
    blocks = _pulse_blocks([channels.ravel()], channels.shape[1], rows(), offsets, scratch)
    for acc, (_, frames) in zip(total, blocks):
        for _, cf in frames:
            for instant in cf:  # a running sum in instant order, whatever the row's shape
                acc += instant
    return CoherenceMap(
        grid=samples.grid, values=total / pulse_samples, kind=KIND_CFPL, pulse_samples=pulse_samples
    )


def sa_frame(
    datasets, grid: PixelGrid, f_number: float, pulse_samples: int = 1, centered: bool = False,
) -> list[tuple[BeamformedImage, CoherenceMap, CoherenceMap]]:
    """SA image (with coverage), CF map and CFPL map of each dataset, in one pass over depth rows.

    The datasets must share one delay plan: the same array, speed of sound,
    sampling and element -> event map with its delays (``_plan_inputs``),
    else ``ValidationError``.  Per depth row the windows, arrival positions,
    gather indices, interpolation weights, support and valid counts are
    computed once; per dataset only the interpolation, the sums and the CF
    run, in buffers that do not grow with the number of datasets.  One frame
    is a one-item batch.

    Each triple is bitwise equal to ``das_sa`` followed by
    ``coherence_factor`` and ``coherence_factor_pl`` on its aperture, but
    nothing larger than one row's (pulse_samples, nx, w) block is stored.
    The image and coverage come from the arrival instant, summed over the
    row's full window width, CF is that instant's CF and CFPL the mean CF
    over all instants.  The images share one coverage array.
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
    offsets = _pulse_offsets(pulse_samples, centered)
    arrival = int(-offsets[0, 0, 0])
    _, _, width, rows = _sa_rows(first, grid, f_number)
    values, cf = np.zeros((2, len(datasets), grid.nz, grid.nx))
    total = np.zeros(values.shape)  # apart, so it is freed once the CFPL means are taken
    coverage = np.zeros((grid.nz, grid.nx), dtype=np.int64)
    scratch = _Scratch(pulse_samples * grid.nx * width)
    flats = [data.channels.ravel() for data in datasets]
    blocks = _pulse_blocks(flats, first.num_samples, rows, offsets, scratch)
    for iz, (valid, frames) in enumerate(blocks):
        coverage[iz] = valid[arrival].sum(axis=-1)
        for k, (vals, row_cf) in enumerate(frames):
            values[k, iz] = vals[arrival].sum(axis=-1)
            cf[k, iz] = row_cf[arrival]
            for instant in row_cf:
                total[k, iz] += instant
    return [
        (
            BeamformedImage(
                grid, values[k], method=METHOD_SA, f_number=f_number, coverage=coverage
            ),
            CoherenceMap(grid, cf[k], KIND_CF),
            CoherenceMap(grid, total[k] / pulse_samples, KIND_CFPL, pulse_samples),
        )
        for k in range(len(datasets))
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
