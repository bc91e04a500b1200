"""Forward simulation of acoustoelectric voltage channels.

Each transmit event superposes delayed spherical waves from its active
elements over a gridded source field.  The recorded voltage is the
source-weighted sum of pulse arrivals:

    V(t) = -C * sum_cells s(x) * sum_i b_i(x) * a(t - delay_i - |x - x_i| / c)

with C = k_i * p0 * cell_area unless an explicit amplitude scale is given.
Sub-sample arrival times are rendered by two-tap linear interpolation of a
spike train that is convolved with the sampled pulse waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acquisition import AcquisitionSpec, _matched_filter, add_thermal_noise, differential_subtract
from .core import ArrayGeometry, Medium, PulseSpec, SFieldGrid
from .errors import InvalidEventError, ValidationError

DECAY_MODES = ("none", "inverse_sqrt", "inverse")
DIRECTIVITY_MODES = ("omni", "cosine")

# Element x cell lanes per table-building step and per scatter (cache-sized temporaries).
_BLOCK_LANES = 1 << 14


@dataclass(frozen=True, eq=False)
class TransmitEvent:
    """One transmission: per-element delays and an active mask.

    ``delays`` has one entry per array element; entries for inactive elements
    are ignored (kept as 0).  Delays are nonnegative and at least one element
    is active.
    """

    delays: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        a = np.asarray(self.active, dtype=bool)
        if d.ndim != 1 or a.shape != d.shape:
            raise InvalidEventError("delays and active mask must be 1D and equal length")
        if not a.any():
            raise InvalidEventError("event must have at least one active element")
        if np.any(d[a] < 0):
            raise InvalidEventError("active-element delays must be >= 0")
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "active", a)

    @property
    def num_active(self) -> int:
        return int(self.active.sum())

    def single_element_index(self) -> int:
        """Index of the only active element; error if more than one."""
        idx = np.flatnonzero(self.active)
        if idx.size != 1:
            raise InvalidEventError(f"event {self.label!r} is not single-element")
        return int(idx[0])


@dataclass(frozen=True)
class PressureModel:
    """Per-element beam amplitude model.

    ``decay`` sets the amplitude falloff with distance r: constant,
    1/sqrt(r) (2D cylindrical spreading) or 1/r; ``r_min`` clamps the
    singularity.  ``directivity`` optionally applies a cos(theta) factor
    about the element normal (+z).
    """

    decay: str = "none"
    r_min: float = 1e-4
    directivity: str = "omni"

    def __post_init__(self):
        if self.decay not in DECAY_MODES:
            raise ValidationError(f"decay must be one of {DECAY_MODES}")
        if self.directivity not in DIRECTIVITY_MODES:
            raise ValidationError(f"directivity must be one of {DIRECTIVITY_MODES}")
        if not self.r_min > 0:
            raise ValidationError("r_min must be > 0")


@dataclass(frozen=True, eq=False)
class ChannelDataSet:
    """Recorded voltage traces for a sequence of transmit events.

    ``channels`` has shape (M_tx, T); row m is the conditioned trace for
    ``events[m]``.  ``t0`` is the time of the first sample.
    """

    channels: np.ndarray = field(repr=False)
    sample_rate: float
    t0: float
    events: tuple[TransmitEvent, ...]
    geometry: ArrayGeometry = None
    medium: Medium = None
    pulse: PulseSpec = None

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=float)
        if ch.ndim != 2:
            raise ValidationError("channels must be 2D (events x samples)")
        if ch.shape[0] != len(self.events):
            raise ValidationError("one channel row per transmit event required")
        if not np.all(np.isfinite(ch)):
            raise ValidationError("channel samples must be finite")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def num_events(self) -> int:
        return self.channels.shape[0]

    @property
    def num_samples(self) -> int:
        return self.channels.shape[1]


def trace_length(max_depth: float, medium: Medium, pulse: PulseSpec) -> int:
    """Number of samples covering one-way propagation to ``max_depth`` plus the pulse."""
    if not max_depth > 0:
        raise ValidationError("max_depth must be > 0")
    return int(np.ceil(max_depth / medium.sos * pulse.sample_rate)) + pulse.length_samples


def pulse_waveform(pulse: PulseSpec) -> np.ndarray:
    """Sampled pulse a(t) centered on its middle sample, peak amplitude 1.

    Impulse: a single unit sample.  Tone: ``num_cycles`` cycles of a cosine
    under a Hann window; the odd sample count puts the window center (and the
    amplitude peak) exactly on a sample.
    """
    if pulse.kind == "impulse":
        return np.ones(1)
    n = pulse.length_samples
    t = (np.arange(n) - (n - 1) / 2) / pulse.sample_rate
    duration = pulse.num_cycles / pulse.center_frequency
    window = np.where(
        np.abs(t) <= duration / 2, 0.5 * (1 + np.cos(2 * np.pi * t / duration)), 0.0
    )
    return np.cos(2 * np.pi * pulse.center_frequency * t) * window


def pulse_center_index(pulse: PulseSpec) -> int:
    return (pulse.length_samples - 1) // 2


def element_beam_amplitude(
    geometry: ArrayGeometry, element_index: int, point, model: PressureModel
) -> float:
    """Beam amplitude of one element at an (x, z) point under ``model``."""
    x, z = point
    ex = geometry.element_positions()[element_index]
    return float(_amplitude(float(x) - ex, float(z), model))


def _amplitude(dx, pz, model: PressureModel) -> np.ndarray:
    """Element amplitude at lateral offset ``dx`` and depth ``pz`` (broadcast)."""
    r = np.hypot(dx, pz)
    rc = np.maximum(r, model.r_min)
    if model.decay == "none":
        amp = np.ones_like(r)
    elif model.decay == "inverse_sqrt":
        amp = np.sqrt(model.r_min / rc)
    else:
        amp = model.r_min / rc
    if model.directivity == "cosine":
        cos_t = np.where(r > 0, pz / np.maximum(r, 1e-300), 1.0)
        amp = amp * cos_t
    return amp


def single_element_sequence(geometry: ArrayGeometry) -> list[TransmitEvent]:
    """One zero-delay event per element, element i alone active in event i."""
    m = geometry.num_elements
    return [
        TransmitEvent(delays=np.zeros(m), active=np.arange(m) == i, label=f"sa:{i}")
        for i in range(m)
    ]


def focused_sequence(
    geometry: ArrayGeometry,
    medium: Medium,
    focal_depth: float,
    line_centers,
) -> list[TransmitEvent]:
    """Full-aperture focused transmissions, one per line center.

    Element delays equalize the time of flight to the focus
    (x_line, focal_depth): ``delay_i = (max_j d_j - d_i) / c`` so the
    farthest element fires first and the minimum delay is 0.
    """
    if not focal_depth > 0:
        raise ValidationError("focal_depth must be > 0")
    ex = geometry.element_positions()
    events = []
    for x_line in np.atleast_1d(np.asarray(line_centers, dtype=float)):
        d = np.hypot(ex - x_line, focal_depth)
        delays = (d.max() - d) / medium.sos
        events.append(
            TransmitEvent(
                delays=delays,
                active=np.ones(geometry.num_elements, dtype=bool),
                label=f"fus:x={x_line:.6e}",
            )
        )
    return events


def simulate_channel(
    s_field: SFieldGrid,
    event: TransmitEvent,
    geometry: ArrayGeometry,
    medium: Medium,
    pulse: PulseSpec,
    model: PressureModel,
    n_samples: int,
    amplitude_scale: float | None = None,
) -> np.ndarray:
    """Noise-free voltage trace (length ``n_samples``) for one transmit event.

    ``amplitude_scale`` overrides the physical constant ``k_i * p0 *
    cell_area`` when a normalized amplitude unit is more convenient.
    """
    active = _active_elements(event, geometry)
    elem_x = geometry.element_positions()[active]
    travel, amp = _source_tables(s_field, elem_x, medium, model, amplitude_scale)
    rows = np.arange(active.size)
    return _render(travel, amp, rows, event.delays[active], pulse, pulse_waveform(pulse), n_samples)


def _element_blocks(rows: int, cells: int) -> list[slice]:
    step = max(1, _BLOCK_LANES // max(cells, 1))
    return [slice(a, a + step) for a in range(0, rows, step)]


def _active_elements(event: TransmitEvent, geometry: ArrayGeometry) -> np.ndarray:
    if event.delays.size != geometry.num_elements:
        raise InvalidEventError("event delay table does not match the array size")
    return np.flatnonzero(event.active)


def _source_tables(s_field: SFieldGrid, elem_x, medium: Medium, model: PressureModel,
                   amplitude_scale: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Travel time and signed amplitude from each element to each nonzero cell.

    Both are (elements, cells), 16 bytes per pair, built a block of elements
    at a time so the distance temporaries stay block-sized.
    """
    zi, xi = np.nonzero(s_field.values)
    sx = s_field.origin[0] + xi * s_field.dx
    sz = s_field.origin[1] + zi * s_field.dz
    const = amplitude_scale if amplitude_scale is not None else (
        medium.k_i * medium.p0 * s_field.cell_area
    )
    base = -const * s_field.values[zi, xi]
    travel = np.empty((elem_x.size, zi.size))
    amp = np.empty_like(travel)
    for blk in _element_blocks(elem_x.size, zi.size):
        dx = sx - elem_x[blk, None]
        travel[blk] = np.hypot(dx, sz) / medium.sos
        amp[blk] = base * _amplitude(dx, sz, model)
    return travel, amp


def _render(travel, amp, rows, delays, pulse: PulseSpec, waveform, n_samples: int) -> np.ndarray:
    """Trace of the table ``rows`` firing at ``delays`` (one per row).

    ``waveform`` is ``pulse_waveform(pulse)``, built once by the caller.  A
    block of elements is one ``np.add.at`` over two taps per arrival,
    element-major with each element's lower taps first: the order of a loop
    over elements, so each sample sums in the same order at any block size.
    Off-trace taps are clipped onto the spare last slot of ``buf`` (-1 wraps).
    """
    if travel.shape[1] == 0:
        return np.zeros(n_samples)
    center = pulse_center_index(pulse)
    buf = np.zeros(n_samples + waveform.size + 1)
    top = buf.size - 1
    for blk in _element_blocks(rows.size, travel.shape[1]):
        r = rows[blk]
        pos = (delays[blk, None] + travel[r]) * pulse.sample_rate
        lo = np.floor(pos)
        frac = pos - lo
        idx = np.clip(np.stack([lo, lo + 1], axis=1), -1, top).astype(np.int64)
        w = np.stack([amp[r] * (1 - frac), amp[r] * frac], axis=1)
        np.add.at(buf, idx.ravel(), w.ravel())
    return np.convolve(buf[:top], waveform)[center : center + n_samples]


def common_mode_trace(
    amplitude: float, pulse: PulseSpec, n_samples: int
) -> np.ndarray:
    """Deterministic interference trace identical in (+) and (-) acquisitions."""
    if amplitude == 0:
        return np.zeros(n_samples)
    t = np.arange(n_samples) / pulse.sample_rate
    return amplitude * np.sin(2 * np.pi * (pulse.center_frequency / 8) * t)


def simulate_dataset(
    s_field: SFieldGrid,
    events,
    geometry: ArrayGeometry,
    medium: Medium,
    pulse: PulseSpec,
    model: PressureModel,
    acquisition: AcquisitionSpec,
    seed: int,
    max_depth: float,
    amplitude_scale: float | None = None,
    threads: int = 1,
) -> ChannelDataSet:
    """Simulate the full conditioned channel set for a transmit sequence.

    Per event: the clean trace and its polarity-flipped copy are acquired
    with independent averaged noise and a shared common-mode component,
    differentially subtracted, and matched-filtered with the pulse template.
    Channel ``i`` draws its noise from a generator seeded by ``(seed, i)``,
    so results do not depend on execution order.  ``threads`` is accepted
    but unused: a thread pool over events measured slower than one thread.
    """
    events = list(events)
    if not events:
        raise InvalidEventError("at least one transmit event is required")
    n = trace_length(max_depth, medium, pulse)
    template = pulse_waveform(pulse)
    filt = _matched_filter(template, (n,))
    cm = common_mode_trace(acquisition.common_mode_amplitude, pulse, n)
    elem_x = geometry.element_positions()
    travel, amp = _source_tables(s_field, elem_x, medium, model, amplitude_scale)
    channels = np.zeros((len(events), n))
    for i, event in enumerate(events):
        active = _active_elements(event, geometry)
        clean = _render(travel, amp, active, event.delays[active], pulse, template, n)
        rng = np.random.default_rng((seed, i))
        v_plus = add_thermal_noise(clean + cm, acquisition.noise_power, acquisition.k, rng)
        v_minus = add_thermal_noise(-clean + cm, acquisition.noise_power, acquisition.k, rng)
        diff = differential_subtract(
            acquisition.rf_gain * v_plus, acquisition.rf_gain * v_minus
        )
        channels[i] = filt(diff)

    return ChannelDataSet(
        channels=channels,
        sample_rate=pulse.sample_rate,
        t0=0.0,
        events=tuple(events),
        geometry=geometry,
        medium=medium,
        pulse=pulse,
    )
