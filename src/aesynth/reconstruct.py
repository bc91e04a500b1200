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
    """Per-pixel delayed single-element samples, as ``das_sa`` returns them.

    This is the stored aperture that ``coherence_factor`` and
    ``coherence_factor_pl`` read; the pipeline uses ``coherence.sa_frame``,
    which forms the same maps row by row and stores none.  Band layout: a
    pixel keeps only its sub-aperture window, on ``W`` lanes, where ``W`` is
    the widest window of the grid.  Lane ``j`` of pixel (ix, iz) holds
    element ``start[iz, ix] + j``; lanes past the window are padding with
    ``member`` False.  The full-aperture case is ``start = 0`` and
    ``W = M``.  The arrays hold nz * nx * W lanes rather than nz * nx * M.

    ``samples[iz, ix, j]`` is the lane's channel sampled at the pixel's
    arrival time (0 where unusable); ``member`` marks sub-aperture
    membership, ``valid`` additionally requires the sample time to lie
    within the recorded trace.  ``positions`` are fractional sample indices
    so pulse-length windows can be re-gathered from ``channels`` (one row
    per array element).
    """

    grid: PixelGrid
    samples: np.ndarray = field(repr=False)
    member: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    channels: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)

    @property
    def num_elements(self) -> int:
        return self.channels.shape[0]

    def valid_count(self) -> np.ndarray:
        """Per-pixel number of contributing elements (edge/support aware)."""
        return self.valid.sum(axis=2)


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


def sub_aperture_elements(pixel, geometry: ArrayGeometry, f_number: float) -> np.ndarray:
    """Indices of the sub-aperture elements for one pixel.

    The window is centered on the element nearest the pixel and truncated,
    not shifted, at the array edges (see ``_sub_aperture_windows``).
    """
    x, z = pixel
    lo, hi = _sub_aperture_windows(geometry, [x], [z], f_number)
    return np.arange(int(lo[0, 0]), int(hi[0, 0]) + 1)


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


def _gather(
    channels: np.ndarray, rows, pos: np.ndarray, scratch: _Scratch | None = None, member=None
):
    """Linear-interpolated samples ``channels[rows, pos]`` with a support mask.

    The flattened traces are indexed directly, so only the requested samples
    are read; samples outside the trace, or off the ``member`` mask, are 0
    (see ``_gather_plan``).  With a ``scratch`` the results live in its
    buffers, so repeated large gathers do not allocate.
    """
    buf = scratch or _Scratch()
    plan = _gather_plan(channels.shape[1], rows, pos, buf, member)
    return _interpolate(channels.ravel(), plan, buf), plan[3]


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
    geometry = data.geometry
    m = geometry.num_elements
    elem_x = geometry.element_positions()
    trace_of_elem, elem_delay = _element_map(data)
    has_channel = trace_of_elem >= 0
    trace_row = np.maximum(trace_of_elem, 0)

    xs = grid.x_coords()
    zs = grid.z_coords()
    c = data.medium.sos
    lo, hi = _sub_aperture_windows(geometry, xs, zs, f_number)
    span = hi - lo
    # Each window's last member: the last element up to ``hi`` with a channel.
    last = np.maximum.accumulate(np.where(has_channel, np.arange(m), -1))[hi]
    last -= lo  # in place: a second (nz, nx) temporary raised the frame's peak RSS
    used = np.maximum(last.max(axis=1) + 1, 0)

    def rows():
        for iz in range(grid.nz):
            w = int(span[iz].max()) + 1
            elem = _lane_elements(lo[iz], w, m)
            member = (np.arange(w) <= span[iz][:, None]) & has_channel[elem]
            tau = elem_delay[elem] + np.hypot(xs[:, None] - elem_x[elem], zs[iz]) / c
            yield trace_row[elem], member, (tau - data.t0) * data.sample_rate, int(used[iz])

    return trace_of_elem, lo, int(span.max()) + 1, rows()


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
    samples = np.zeros(shape)
    member = np.zeros(shape, dtype=bool)
    valid = np.zeros(shape, dtype=bool)
    positions = np.full(shape, -1.0)

    for iz, (trace, row_member, pos, _) in enumerate(rows):
        w = pos.shape[1]
        vals, row_valid = _gather(data.channels, trace, pos, member=row_member)
        values[iz] = vals.sum(axis=1)
        samples[iz, :, :w] = vals
        member[iz, :, :w] = row_member
        valid[iz, :, :w] = row_valid
        positions[iz, :, :w] = pos

    # the stored aperture re-gathers by element: channels in element order
    has_channel = trace_of_elem >= 0
    channels = np.zeros((data.geometry.num_elements, data.num_samples))
    channels[has_channel] = data.channels[trace_of_elem[has_channel]]
    aperture = ApertureSamples(grid, samples, member, valid, positions, channels, lo)
    image = BeamformedImage(
        grid=grid, values=values, method=METHOD_SA, f_number=f_number, coverage=valid.sum(axis=2)
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
        trace = data.channels[row]
        values[:, col], _ = _gather(trace[None, :], 0, pos)
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
