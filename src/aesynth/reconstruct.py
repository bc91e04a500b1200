"""Image formation.

Synthetic-aperture imaging is a pixel-oriented delay-and-sum over
single-element channels with a depth-proportional sub-aperture (fixed
F-number).  Focused-transmit imaging arranges each ray line's trace into an
image column, mapping time to depth at the medium speed of sound.  Envelope
detection takes the analytic-signal magnitude along depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import hilbert

from .core import ArrayGeometry, Medium, PixelGrid
from .errors import InvalidEventError, MethodMismatchError, ValidationError
from .forward import ChannelDataSet

METHOD_SA = "sa"
METHOD_FUS = "fus"


@dataclass(frozen=True, eq=False)
class BeamformedImage:
    """Reconstructed image: pre-envelope values plus optional envelope.

    ``values`` and ``envelope`` have shape (grid.nz, grid.nx).  ``coverage``
    counts, per pixel, how many channel samples actually contributed (SA) or
    marks filled columns (FUS).
    """

    grid: PixelGrid
    values: np.ndarray = field(repr=False)
    envelope: np.ndarray | None = field(default=None, repr=False)
    method: str = METHOD_SA
    f_number: float | None = None
    coverage: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nz, self.grid.nx):
            raise ValidationError(
                f"values shape {v.shape} does not match grid ({self.grid.nz}, {self.grid.nx})"
            )
        object.__setattr__(self, "values", v)
        if self.envelope is not None:
            e = np.asarray(self.envelope, dtype=float)
            if e.shape != v.shape:
                raise ValidationError("envelope shape must match values")
            if np.any(e < 0):
                raise ValidationError("envelope must be nonnegative")
            object.__setattr__(self, "envelope", e)


@dataclass(frozen=True, eq=False)
class ApertureSamples:
    """The SA delay plan ``das_sa`` returns: where each pixel samples each lane.

    ``coherence_factor`` and ``coherence_factor_pl`` re-gather the delayed
    samples from it; the pipeline uses ``coherence.sa_frame``, which forms
    the same maps row by row and stores no plan.  Band layout: a pixel keeps
    only its sub-aperture window, on ``W`` lanes, where ``W`` is the widest
    window of the grid.  Lane ``j`` of pixel (ix, iz) holds element
    ``start[iz, ix] + j``; lanes past the window are padding with ``member``
    False.  The full-aperture case is ``start = 0`` and ``W = M``.  The
    arrays hold nz * nx * W lanes rather than nz * nx * M.

    ``member[iz, ix, j]`` marks sub-aperture membership and
    ``positions[iz, ix, j]`` is the lane's arrival time as a fractional
    sample index into ``channels`` (one row per array element).  A lane
    contributes where it is a member and its position lies within the trace.
    """

    grid: PixelGrid
    member: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    channels: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)

    @property
    def num_elements(self) -> int:
        return self.channels.shape[0]

    def valid_count(self) -> np.ndarray:
        """Per-pixel number of contributing elements (edge/support aware)."""
        inside = (self.positions >= 0) & (self.positions <= self.channels.shape[1] - 1)
        return (inside & self.member).sum(axis=2)


def sub_aperture_size(z: float, f_number: float, pitch: float, num_elements: int) -> int:
    """Element count covering the aperture z / f_number, clamped to [1, M]."""
    if not (z > 0 and f_number > 0 and pitch > 0):
        raise ValidationError("z, f_number and pitch must be > 0")
    m = int(np.floor(z / (f_number * pitch) + 0.5))
    return min(max(m, 1), num_elements)


def _sub_aperture_windows(geometry: ArrayGeometry, xs, zs, f_number: float):
    """First and last sub-aperture element of every pixel, each (len(zs), len(xs)).

    The window of ``sub_aperture_size`` elements is centered on the element
    nearest the pixel's lateral position and truncated (not shifted) at the
    array edges, so fewer elements contribute near the lateral borders.
    """
    m = geometry.num_elements
    nearest = np.array([geometry.nearest_element(x) for x in xs], dtype=np.int64)
    sizes = np.array([sub_aperture_size(z, f_number, geometry.pitch, m) for z in zs])[:, None]
    return np.maximum(nearest - (sizes - 1) // 2, 0), np.minimum(nearest + sizes // 2, m - 1)


def _lane_elements(lo: np.ndarray, width: int, num_elements: int) -> np.ndarray:
    """Element of each of ``width`` lanes from ``lo`` on (padding lanes clamped)."""
    return np.minimum(lo[..., None] + np.arange(width), num_elements - 1)


def _lanes_used(member: np.ndarray) -> np.ndarray:
    """Number of leading lanes holding any member, per (nx, w) row of ``member``."""
    used = member.any(axis=-2)
    return np.where(used.any(axis=-1), used.shape[-1] - np.argmax(used[..., ::-1], axis=-1), 0)


class _Scratch:
    """Reusable flat buffers, one per name, handed out as contiguous arrays.

    A buffer is sized for ``capacity`` elements (or the first request, if
    larger), so a loop of differently sized requests allocates once.  An
    array handed out stays valid until the next request of the same name.
    """

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(max(size, self.capacity), dtype=dtype)
        return buf[:size].reshape(shape)


def _gather_plan(n: int, rows, pos: np.ndarray, scratch: _Scratch, member=None):
    """Where and how to interpolate traces of ``n`` samples at ``pos``.

    ``rows`` (trace indices) broadcasts to the shape of ``pos`` (fractional
    sample indices).  Returns the flat index of each lower sample, its
    weights ``frac`` and ``1 - frac``, the support mask (inside the trace
    and, with a ``member`` mask broadcast the same way, a member) and its
    complement.  The plan depends on no sample value, so one plan serves
    every channel block of the same shape.
    """
    if n < 2:
        raise ValidationError("channel traces must have at least 2 samples")
    shape = pos.shape
    support = np.greater_equal(pos, 0, out=scratch("support", shape, bool))
    outside = scratch("outside", shape, bool)
    support &= np.less_equal(pos, n - 1, out=outside)
    if member is not None:
        support &= member
    k0 = np.floor(pos, out=scratch("k0", shape))
    np.clip(k0, 0, n - 2, out=k0)
    index = scratch("index", shape, np.int64)
    index[...] = k0
    index += rows * n
    frac = np.subtract(pos, k0, out=k0)
    lower = np.subtract(1, frac, out=scratch("lower", shape))
    return index, frac, lower, support, np.logical_not(support, out=outside)


def _interpolate(flat: np.ndarray, plan, scratch: _Scratch) -> np.ndarray:
    """Samples of the flattened traces ``flat`` at a ``_gather_plan``; 0 off its support."""
    index, frac, lower, _, outside = plan
    v = flat.take(index, out=scratch("v", index.shape), mode="clip")
    upper = flat[1:].take(index, out=scratch("upper", index.shape), mode="clip")
    upper *= frac
    v *= lower
    v += upper
    np.copyto(v, 0.0, where=outside)
    return v


def _element_map(data: ChannelDataSet):
    """Channel row (-1 if none) and transmit delay of every element.

    Every event must be single-element, and no element may transmit twice.
    """
    m = data.geometry.num_elements
    trace_of_elem = np.full(m, -1, dtype=np.int64)
    elem_delay = np.zeros(m)
    for row, ev in enumerate(data.events):
        i = ev.single_element_index()
        if trace_of_elem[i] >= 0:
            raise InvalidEventError(f"element {i} transmitted in more than one event")
        trace_of_elem[i] = row
        elem_delay[i] = ev.delays[i]
    return trace_of_elem, elem_delay


def _plan_inputs(data: ChannelDataSet) -> tuple:
    """What an SA delay plan reads from a dataset besides the grid and F-number.

    The array, the speed of sound, the sampling (rate, t0, trace length) and
    the element -> event map with its delays; never the recorded samples.
    """
    trace_of_elem, elem_delay = _element_map(data)
    return (
        data.geometry, data.medium.sos, data.sample_rate, data.t0, data.num_samples,
        trace_of_elem.tobytes(), elem_delay.tobytes(),
    )


def _window_rows(geometry: ArrayGeometry, grid: PixelGrid, f_number: float):
    """The sub-aperture window of every pixel, row by row.

    Returns the window starts ``lo`` (nz, nx), the grid's widest window and a
    generator over depth rows.  Row ``iz`` yields its lanes' elements and
    whether each lane lies in its pixel's window, each (nx, w) for the row's
    widest window ``w``.
    """
    lo, hi = _sub_aperture_windows(geometry, grid.x_coords(), grid.z_coords(), f_number)
    span = hi - lo

    def rows():
        for row_lo, row_span in zip(lo, span):
            w = int(row_span.max()) + 1
            yield _lane_elements(row_lo, w, geometry.num_elements), np.arange(w) <= row_span[:, None]

    return lo, int(span.max()) + 1, rows()


def _sa_rows(data: ChannelDataSet, grid: PixelGrid, f_number: float):
    """Row setup shared by every SA beamformer.

    Returns the channel row of each element (-1 where an element has no
    event), the window starts ``lo`` (nz, nx), the grid's widest window and a
    generator over depth rows.  Row ``iz`` yields its lanes' channel rows,
    sub-aperture membership and arrival positions (fractional sample
    indices), each (nx, w) for the row's widest window ``w``, and its lanes up
    to the last member.  A lane whose element has no event reads row 0 and is
    never a member.  Nothing here reads a sample, so the rows serve every
    dataset with the same ``_plan_inputs``.
    """
    elem_x = data.geometry.element_positions()
    trace_of_elem, elem_delay = _element_map(data)
    has_channel = trace_of_elem >= 0
    trace_row = np.maximum(trace_of_elem, 0)
    xs = grid.x_coords()
    c = data.medium.sos
    lo, width, windows = _window_rows(data.geometry, grid, f_number)

    def rows():
        for z, (elem, in_window) in zip(grid.z_coords(), windows):
            member = in_window & has_channel[elem]
            tau = elem_delay[elem] + np.hypot(xs[:, None] - elem_x[elem], z) / c
            yield trace_row[elem], member, (tau - data.t0) * data.sample_rate, int(_lanes_used(member))

    return trace_of_elem, lo, width, rows()


def das_sa(
    data: ChannelDataSet, grid: PixelGrid, f_number: float, threads: int = 1
) -> tuple[BeamformedImage, ApertureSamples]:
    """Delay-and-sum reconstruction of single-element channel data.

    For each pixel, every sub-aperture element's channel is sampled (linear
    interpolation) at that element's time of flight to the pixel and the
    samples are summed in ascending element order.  Samples outside the
    recorded trace contribute zero and are excluded from the valid count.
    Only the window elements are gathered (see ``ApertureSamples``).  Rows
    run in one loop on the calling thread; ``threads`` is accepted and
    ignored.
    """
    trace_of_elem, lo, width, rows = _sa_rows(data, grid, f_number)
    shape = (grid.nz, grid.nx, width)
    values = np.zeros((grid.nz, grid.nx))
    coverage = np.zeros((grid.nz, grid.nx), dtype=np.int64)
    member = np.zeros(shape, dtype=bool)
    positions = np.full(shape, -1.0)
    flat = data.channels.ravel()
    scratch = _Scratch(grid.nx * width)

    for iz, (trace, row_member, pos, _) in enumerate(rows):
        w = pos.shape[1]
        plan = _gather_plan(data.num_samples, trace, pos, scratch, row_member)
        values[iz] = _interpolate(flat, plan, scratch).sum(axis=1)
        coverage[iz] = plan[3].sum(axis=1)
        member[iz, :, :w] = row_member
        positions[iz, :, :w] = pos

    # the stored aperture re-gathers by element: channels in element order
    has_channel = trace_of_elem >= 0
    channels = np.zeros((data.geometry.num_elements, data.num_samples))
    channels[has_channel] = data.channels[trace_of_elem[has_channel]]
    aperture = ApertureSamples(grid, member, positions, channels, lo)
    image = BeamformedImage(
        grid=grid, values=values, method=METHOD_SA, f_number=f_number, coverage=coverage
    )
    return image, aperture


def fus_line_map(
    data: ChannelDataSet, grid: PixelGrid, medium: Medium
) -> BeamformedImage:
    """Arrange focused-transmit ray lines into an image.

    Each event's trace becomes the grid column nearest its line center, with
    time mapped to depth as ``z = c * (t - t_ref)``.  ``t_ref`` is the
    event's largest transmit delay: with the focusing delay law it is the
    moment the converging wavefront crosses the array plane on the beam
    axis, so the focal arrival lands at the focal depth.  Line centers are
    taken as the position of the most-delayed element (line centers are
    assumed to coincide with element positions).  Columns with no line stay
    zero and are flagged in ``coverage``.
    """
    geometry = data.geometry
    elem_x = geometry.element_positions()
    for ev in data.events:
        if ev.num_active < 2:
            raise MethodMismatchError(
                "line mapping requires focused (multi-element) events; "
                f"event {ev.label!r} has {ev.num_active} active element(s)"
            )

    xs = grid.x_coords()
    zs = grid.z_coords()
    fs = data.sample_rate
    values = np.zeros((grid.nz, grid.nx))
    filled = np.zeros(grid.nx, dtype=bool)
    # Column -> (distance to its line center, event index); closest line wins.
    best = np.full(grid.nx, np.inf)
    scratch = _Scratch()

    for row, ev in enumerate(data.events):
        delays = np.where(ev.active, ev.delays, -np.inf)
        k = int(np.argmax(delays))
        line_x = elem_x[k]
        t_ref = float(delays[k])
        cc = (line_x - grid.origin[0]) / grid.dx
        col = int(np.ceil(cc - 0.5))
        if col < 0 or col >= grid.nx:
            continue
        dist = abs(line_x - xs[col])
        if dist >= best[col]:
            continue
        best[col] = dist
        pos = (t_ref + zs / medium.sos - data.t0) * fs
        plan = _gather_plan(data.num_samples, 0, pos, scratch)
        values[:, col] = _interpolate(data.channels[row], plan, scratch)
        filled[col] = True

    coverage = np.broadcast_to(filled, (grid.nz, grid.nx)).copy()
    return BeamformedImage(
        grid=grid, values=values, method=METHOD_FUS, coverage=coverage
    )


def envelope(image: BeamformedImage) -> BeamformedImage:
    """Fill the envelope: analytic-signal magnitude along the depth axis."""
    if image.grid.nz < 4:
        raise ValidationError("envelope requires at least 4 depth samples")
    env = np.abs(hilbert(image.values, axis=0))
    return replace(image, envelope=env)
