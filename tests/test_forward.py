import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aesynth import (
    AcquisitionSpec,
    ArrayGeometry,
    Medium,
    PressureModel,
    PulseSpec,
    SFieldGrid,
    TransmitEvent,
    differential_subtract,
    focused_sequence,
    matched_filter,
    pulse_waveform,
    simulate_channel,
    simulate_dataset,
    single_element_sequence,
    trace_length,
)
from aesynth.errors import InvalidEventError, ValidationError
from aesynth.forward import (
    DECAY_MODES,
    DIRECTIVITY_MODES,
    _amplitude,
    _element_blocks,
    common_mode_trace,
    element_beam_amplitude,
    pulse_center_index,
    time_of_flight,
)


def point_field(x, z, amplitude=1.0, dx=1e-4, dz=1e-4):
    """Single-cell s-field whose only nonzero cell sits exactly at (x, z)."""
    values = np.zeros((3, 3))
    values[1, 1] = amplitude
    return SFieldGrid(origin=(x - dx, z - dz), dx=dx, dz=dz, values=values)


def oracle_channel(s_field, event, geometry, medium, pulse, model, n, scale):
    """Independent forward oracle: direct per-sample evaluation, no convolution.

    Each arrival contributes the sampled pulse weighted by two-tap linear
    interpolation of its fractional arrival position.
    """
    w = pulse_waveform(pulse)
    c = pulse_center_index(pulse)
    zi, xi = np.nonzero(s_field.values)
    sx = s_field.origin[0] + xi * s_field.dx
    sz = s_field.origin[1] + zi * s_field.dz
    sv = s_field.values[zi, xi]
    ex = geometry.element_positions()
    out = np.zeros(n)
    for i in np.flatnonzero(event.active):
        for cell in range(sx.size):
            b = element_beam_amplitude(geometry, i, (sx[cell], sz[cell]), model)
            amp = -scale * sv[cell] * b
            pos = (event.delays[i] + np.hypot(sx[cell] - ex[i], sz[cell]) / medium.sos) * pulse.sample_rate
            k0 = int(np.floor(pos))
            frac = pos - k0
            for m in range(n):
                wl = m - k0 + c
                acc = 0.0
                if 0 <= wl < w.size:
                    acc += (1 - frac) * w[wl]
                if 0 <= wl - 1 < w.size:
                    acc += frac * w[wl - 1]
                out[m] += amp * acc
    return out


def _element_amplitudes(elem_x, px, pz, model):
    """Amplitudes of elements (E,) at points (N,), returned as (E, N)."""
    return _amplitude(px[None, :] - elem_x[:, None], pz[None, :], model)


def loop_channel(s_field, event, geometry, medium, pulse, model, n_samples, amplitude_scale=None):
    """Bitwise oracle: the per-element loop with two ``np.add.at`` calls per element."""
    if event.delays.size != geometry.num_elements:
        raise InvalidEventError("event delay table does not match the array size")
    waveform = pulse_waveform(pulse)
    center = pulse_center_index(pulse)
    fs = pulse.sample_rate

    zi, xi = np.nonzero(s_field.values)
    trace = np.zeros(n_samples)
    if zi.size == 0:
        return trace
    sx = s_field.origin[0] + xi * s_field.dx
    sz = s_field.origin[1] + zi * s_field.dz
    sval = s_field.values[zi, xi]
    const = amplitude_scale if amplitude_scale is not None else (
        medium.k_i * medium.p0 * s_field.cell_area
    )
    base = -const * sval

    elem_x = geometry.element_positions()
    active = np.flatnonzero(event.active)
    beam = _element_amplitudes(elem_x[active], sx, sz, model)
    buf = np.zeros(n_samples + waveform.size)
    for j, i in enumerate(active):
        r = np.hypot(sx - elem_x[i], sz)
        tau = event.delays[i] + r / medium.sos
        amp = base * beam[j]
        pos = tau * fs
        k0 = np.floor(pos).astype(np.int64)
        frac = pos - k0
        ok0 = (k0 >= 0) & (k0 < buf.size)
        np.add.at(buf, k0[ok0], amp[ok0] * (1 - frac[ok0]))
        k1 = k0 + 1
        ok1 = (k1 >= 0) & (k1 < buf.size)
        np.add.at(buf, k1[ok1], amp[ok1] * frac[ok1])
    trace = np.convolve(buf, waveform)[center : center + n_samples]
    return trace


def loop_dataset_channels(s_field, events, geometry, medium, pulse, model, acquisition,
                          seed, max_depth, amplitude_scale=None):
    """Bitwise oracle of ``simulate_dataset``: the loop above plus inline noise."""
    n = trace_length(max_depth, medium, pulse)
    template = pulse_waveform(pulse)
    cm = common_mode_trace(acquisition.common_mode_amplitude, pulse, n)
    channels = np.zeros((len(events), n))
    for i, event in enumerate(events):
        clean = loop_channel(s_field, event, geometry, medium, pulse, model, n, amplitude_scale)
        rng = np.random.default_rng((seed, i))
        sigma2 = acquisition.noise_power
        v_plus = clean + cm
        v_minus = -clean + cm
        if sigma2 > 0:
            v_plus = v_plus + rng.normal(0.0, np.sqrt(sigma2 / acquisition.k), n)
            v_minus = v_minus + rng.normal(0.0, np.sqrt(sigma2 / acquisition.k), n)
        diff = differential_subtract(
            acquisition.rf_gain * v_plus, acquisition.rf_gain * v_minus
        )
        channels[i] = matched_filter(diff, template)
    return channels


def raw_event(delays, active):
    """Transmit event that skips the nonnegative-delay check.

    Arrivals can then land before sample 0: the only way to reach the tap
    k0 = -1, which the scatter must drop.
    """
    event = TransmitEvent(delays=np.zeros(len(delays)), active=active)
    object.__setattr__(event, "delays", np.asarray(delays, dtype=float))
    return event


class TestTimeOfFlight:
    def test_axial(self):
        assert time_of_flight((0, 0), (0, 14.8e-3), 1480.0) == pytest.approx(10e-6)

    def test_zero_distance(self):
        assert time_of_flight((1e-3, 2e-3), (1e-3, 2e-3), 1480.0) == 0.0

    def test_three_four_five(self):
        assert time_of_flight((3e-3, 0), (0, 4e-3), 1000.0) == pytest.approx(5e-6)

    def test_rejects_bad_sos(self):
        with pytest.raises(ValidationError):
            time_of_flight((0, 0), (0, 1), 0.0)


class TestElementBeamAmplitude:
    def test_no_decay(self, geometry):
        model = PressureModel(decay="none")
        assert element_beam_amplitude(geometry, 3, (5e-3, 30e-3), model) == 1.0

    def test_inverse_decay(self, geometry):
        model = PressureModel(decay="inverse", r_min=1e-3)
        x = geometry.element_positions()[0]
        assert element_beam_amplitude(geometry, 0, (x, 2e-3), model) == pytest.approx(0.5)

    def test_inverse_sqrt_decay(self, geometry):
        model = PressureModel(decay="inverse_sqrt", r_min=1e-3)
        x = geometry.element_positions()[0]
        assert element_beam_amplitude(geometry, 0, (x, 4e-3), model) == pytest.approx(0.5)

    def test_inside_r_min_clamps(self, geometry):
        model = PressureModel(decay="inverse", r_min=1e-3)
        x = geometry.element_positions()[0]
        assert element_beam_amplitude(geometry, 0, (x, 0.5e-3), model) == 1.0

    def test_cosine_directivity(self, geometry):
        model = PressureModel(decay="none", directivity="cosine")
        x = geometry.element_positions()[5]
        assert element_beam_amplitude(geometry, 5, (x, 1e-3), model) == pytest.approx(1.0)
        # 45 degrees off axis
        assert element_beam_amplitude(geometry, 5, (x + 1e-3, 1e-3), model) == pytest.approx(
            np.sqrt(0.5)
        )


class TestSequences:
    @pytest.mark.parametrize("m", [1, 4, 64])
    def test_single_element_sequence(self, m):
        g = ArrayGeometry(num_elements=m, pitch=0.315e-3)
        events = single_element_sequence(g)
        assert len(events) == m
        masks = np.stack([e.active for e in events])
        np.testing.assert_array_equal(masks, np.eye(m, dtype=bool))
        assert all(np.all(e.delays == 0) for e in events)

    def test_focused_delays_symmetric_above_element(self, medium):
        g = ArrayGeometry(num_elements=9, pitch=0.5e-3)
        x4 = g.element_positions()[4]
        (event,) = focused_sequence(g, medium, 20e-3, [x4])
        d = event.delays
        np.testing.assert_allclose(d, d[::-1], atol=1e-18)
        assert d.min() == 0.0
        assert np.argmax(d) == 4

    def test_far_focus_limit_is_plane_wave(self, geometry, medium):
        (event,) = focused_sequence(geometry, medium, 1e3, [0.0])
        assert event.delays.max() < 1e-10

    def test_sixty_four_lines(self, geometry, medium):
        events = focused_sequence(geometry, medium, 22e-3, geometry.element_positions())
        assert len(events) == 64
        assert all(e.active.all() for e in events)


class TestTransmitEvent:
    def test_requires_active_element(self):
        with pytest.raises(InvalidEventError):
            TransmitEvent(delays=np.zeros(4), active=np.zeros(4, dtype=bool))

    def test_rejects_negative_delay(self):
        active = np.array([True, False])
        with pytest.raises(InvalidEventError):
            TransmitEvent(delays=np.array([-1e-6, 0.0]), active=active)


class TestSimulateChannel:
    def test_impulse_point_source_delta(self, medium, unit_model):
        g = ArrayGeometry(num_elements=1, pitch=0.315e-3)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6, kind="impulse")
        s = point_field(0.0, 14.8e-3)
        (event,) = single_element_sequence(g)
        n = trace_length(20e-3, medium, pulse)
        trace = simulate_channel(s, event, g, medium, pulse, unit_model, n, amplitude_scale=1.0)
        # 10 us at 16 MHz = sample 160 exactly
        assert trace[160] == pytest.approx(-1.0)
        mask = np.ones(n, dtype=bool)
        mask[160] = False
        np.testing.assert_array_equal(trace[mask], 0.0)

    def test_zero_field_silent(self, geometry, medium, tone_pulse, unit_model):
        s = SFieldGrid(origin=(0, 10e-3), dx=1e-4, dz=1e-4, values=np.zeros((5, 5)))
        (event,) = single_element_sequence(ArrayGeometry(1, 0.315e-3))
        trace = simulate_channel(
            s, event, ArrayGeometry(1, 0.315e-3), medium, tone_pulse, unit_model, 400
        )
        np.testing.assert_array_equal(trace, 0.0)

    def test_iso_temporal_sources_superpose(self, medium, unit_model):
        # two equal sources equidistant from a single element act like one
        # source of doubled strength
        g = ArrayGeometry(num_elements=1, pitch=0.315e-3)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6, kind="impulse")
        values = np.zeros((1, 2))
        values[0, :] = 1.0
        s_pair = SFieldGrid(origin=(-3e-3, 4e-3), dx=6e-3, dz=1e-3, values=values)
        (event,) = single_element_sequence(g)
        n = trace_length(10e-3, medium, pulse)
        pair = simulate_channel(s_pair, event, g, medium, pulse, unit_model, n, amplitude_scale=1.0)
        single = simulate_channel(
            point_field(-3e-3, 4e-3, amplitude=2.0),
            event, g, medium, pulse, unit_model, n, amplitude_scale=1.0,
        )
        # fold the cell-area normalization out by using amplitude_scale=1
        np.testing.assert_allclose(pair, single, atol=1e-12)

    def test_matches_brute_force_oracle(self, medium, tone_pulse):
        rng = np.random.default_rng(5)
        g = ArrayGeometry(num_elements=4, pitch=0.5e-3)
        model = PressureModel(decay="inverse_sqrt", r_min=2e-4, directivity="cosine")
        values = rng.normal(size=(3, 4))
        s = SFieldGrid(origin=(-1e-3, 5e-3), dx=0.7e-3, dz=0.4e-3, values=values)
        event = TransmitEvent(
            delays=rng.uniform(0, 1e-6, size=4), active=np.ones(4, dtype=bool)
        )
        n = trace_length(12e-3, medium, tone_pulse)
        got = simulate_channel(s, event, g, medium, tone_pulse, model, n, amplitude_scale=2.5)
        want = oracle_channel(s, event, g, medium, tone_pulse, model, n, 2.5)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_physical_amplitude_constant(self, medium, unit_model):
        # without amplitude_scale the prefactor is k_i * p0 * cell_area
        g = ArrayGeometry(num_elements=1, pitch=0.315e-3)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6, kind="impulse")
        med = Medium(sos=1480.0, k_i=2.0, p0=3.0)
        s = point_field(0.0, 14.8e-3, dx=1e-4, dz=2e-4)
        (event,) = single_element_sequence(g)
        n = trace_length(20e-3, med, pulse)
        trace = simulate_channel(s, event, g, med, pulse, unit_model, n)
        assert trace[160] == pytest.approx(-2.0 * 3.0 * 1e-4 * 2e-4)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
    def test_linearity_in_s(self, seed, alpha, beta):
        g = ArrayGeometry(num_elements=3, pitch=0.4e-3)
        medium = Medium(sos=1480.0)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        model = PressureModel()
        rng = np.random.default_rng(seed)
        v1, v2 = rng.normal(size=(2, 4, 5))
        mk = lambda v: SFieldGrid(origin=(-1e-3, 6e-3), dx=5e-4, dz=5e-4, values=v)
        event = TransmitEvent(delays=np.zeros(3), active=np.ones(3, dtype=bool))
        n = trace_length(12e-3, medium, pulse)
        sim = lambda v: simulate_channel(mk(v), event, g, medium, pulse, model, n, 1.0)
        np.testing.assert_allclose(
            sim(alpha * v1 + beta * v2),
            alpha * sim(v1) + beta * sim(v2),
            atol=1e-10,
        )

    def test_time_support(self, medium, tone_pulse, unit_model):
        g = ArrayGeometry(num_elements=2, pitch=0.5e-3)
        s = point_field(1e-3, 9e-3)
        event = TransmitEvent(delays=np.zeros(2), active=np.ones(2, dtype=bool))
        n = trace_length(30e-3, medium, tone_pulse)
        trace = simulate_channel(s, event, g, medium, tone_pulse, unit_model, n, 1.0)
        ex = g.element_positions()
        tofs = [np.hypot(1e-3 - e, 9e-3) / medium.sos for e in ex]
        lo = int(np.floor(min(tofs) * tone_pulse.sample_rate)) - tone_pulse.length_samples
        hi = int(np.ceil(max(tofs) * tone_pulse.sample_rate)) + tone_pulse.length_samples
        assert np.all(trace[: max(lo, 0)] == 0)
        assert np.all(trace[hi:] == 0)
        assert np.any(trace != 0)

    def test_focal_gain_is_num_elements(self, geometry, medium, unit_model):
        # all element pulses align at the focus: peak = M x single-element peak.
        # High oversampling keeps the fractional-delay interpolation loss of
        # the two traces (whose arrivals land on different fractions) << 1%.
        pulse = PulseSpec(center_frequency=2e6, num_cycles=1, sample_rate=256e6)
        focus_x = geometry.element_positions()[31]
        s = point_field(focus_x, 22e-3)
        (fus,) = focused_sequence(geometry, medium, 22e-3, [focus_x])
        n = trace_length(40e-3, medium, pulse)
        full = simulate_channel(s, fus, geometry, medium, pulse, unit_model, n, 1.0)
        single = single_element_sequence(geometry)[31]
        one = simulate_channel(s, single, geometry, medium, pulse, unit_model, n, 1.0)
        ratio = np.max(np.abs(full)) / np.max(np.abs(one))
        assert ratio == pytest.approx(64.0, rel=0.01)


class TestMatchesElementLoop:
    """The blocked scatter sums every sample in the per-element loop's order."""

    medium = Medium(sos=1480.0)

    @settings(max_examples=60, deadline=None)
    @given(
        decay=st.sampled_from(DECAY_MODES),
        directivity=st.sampled_from(DIRECTIVITY_MODES),
        m=st.integers(2, 9),
        n=st.integers(4, 120),
        kind=st.sampled_from(["tone", "impulse"]),
        scale=st.sampled_from([None, 1.0, -2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_channel_is_bitwise_the_loop(self, decay, directivity, m, n, kind, scale, seed):
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(num_elements=m, pitch=0.3e-3)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6, kind=kind)
        model = PressureModel(decay=decay, r_min=2e-4, directivity=directivity)
        values = rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.7)
        values[2, 1] = values[4, 3] = 1.5
        s = SFieldGrid(origin=(-0.6e-3, rng.uniform(0, 3e-3)), dx=0.3e-3, dz=0.2e-3, values=values)
        active = rng.random(m) < 0.6
        active[[0, -1]] = True
        delays = np.where(active, rng.uniform(0, 2e-6, m), 0.0)
        # element 0 puts cell (2, 1) at sample -1 + u, element m-1 puts cell
        # (4, 3) at buf.size - 1 + u, so its upper tap is n + len(waveform)
        fs, ex, size = pulse.sample_rate, g.element_positions(), n + pulse.length_samples
        for e, (iz, ix), k in ((0, (2, 1), -1), (m - 1, (4, 3), size - 1)):
            x, z = s.origin[0] + ix * s.dx, s.origin[1] + iz * s.dz
            delays[e] = (k + rng.uniform(0.25, 0.75)) / fs - np.hypot(x - ex[e], z) / 1480.0
        event = raw_event(delays, active)
        zi, xi = np.nonzero(values)
        pos = (delays[:, None] + np.hypot(s.origin[0] + xi * s.dx - ex[:, None],
                                          s.origin[1] + zi * s.dz) / 1480.0) * fs
        k0 = np.floor(pos[active])
        assert (k0 == -1).any() and (k0 + 1 == size).any()
        got = simulate_channel(s, event, g, self.medium, pulse, model, n, scale)
        want = loop_channel(s, event, g, self.medium, pulse, model, n, scale)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("decay", DECAY_MODES)
    @pytest.mark.parametrize("directivity", DIRECTIVITY_MODES)
    def test_dense_field_spans_several_blocks(self, decay, directivity):
        rng = np.random.default_rng(17)
        g = ArrayGeometry(num_elements=12, pitch=0.3e-3)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        model = PressureModel(decay=decay, r_min=2e-4, directivity=directivity)
        s = SFieldGrid(origin=(-3e-3, 1e-3), dx=0.1e-3, dz=0.1e-3, values=rng.normal(size=(270, 64)))
        assert len(_element_blocks(12, 270 * 64)) >= 3
        n = trace_length(30e-3, self.medium, pulse)
        for event in focused_sequence(g, self.medium, 15e-3, [-1e-3, 0.7e-3]):
            got = simulate_channel(s, event, g, self.medium, pulse, model, n)
            want = loop_channel(s, event, g, self.medium, pulse, model, n)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["sa", "fus", "subset"])
    def test_dataset_is_bitwise_the_loop_with_inline_noise(self, scheme):
        rng = np.random.default_rng(4)
        g = ArrayGeometry(num_elements=10, pitch=0.3e-3)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        model = PressureModel(decay="inverse_sqrt", r_min=2e-4, directivity="cosine")
        s = SFieldGrid(origin=(-1e-3, 4e-3), dx=0.2e-3, dz=0.2e-3, values=rng.normal(size=(30, 12)))
        if scheme == "sa":
            events = single_element_sequence(g)
        elif scheme == "fus":
            events = focused_sequence(g, self.medium, 8e-3, g.element_positions())
        else:
            masks = rng.random((6, 10)) < 0.5
            masks[np.arange(6), np.arange(6)] = True
            events = [TransmitEvent(delays=rng.uniform(0, 1e-6, 10), active=a) for a in masks]
        acq = AcquisitionSpec(k=8, noise_power=0.7, common_mode_amplitude=2.0, rf_gain=1.5)
        kw = dict(seed=9, max_depth=12e-3, amplitude_scale=None)
        data = simulate_dataset(s, events, g, self.medium, pulse, model, acq, **kw)
        want = loop_dataset_channels(s, events, g, self.medium, pulse, model, acq, **kw)
        assert np.array_equal(data.channels, want)


class TestSimulateDataset:
    def _scene(self):
        g = ArrayGeometry(num_elements=8, pitch=0.5e-3)
        medium = Medium(sos=1480.0)
        pulse = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        model = PressureModel()
        s = point_field(0.0, 8e-3)
        return g, medium, pulse, model, s

    def test_noiseless_differential_is_twice_clean(self):
        g, medium, pulse, model, s = self._scene()
        events = single_element_sequence(g)
        acq = AcquisitionSpec(k=4, noise_power=0.0)
        data = simulate_dataset(
            s, events, g, medium, pulse, model, acq, seed=1, max_depth=15e-3,
            amplitude_scale=1.0,
        )
        n = data.num_samples
        for i, ev in enumerate(events):
            clean = simulate_channel(s, ev, g, medium, pulse, model, n, 1.0)
            np.testing.assert_array_equal(
                data.channels[i], matched_filter(2 * clean, pulse_waveform(pulse))
            )

    def test_common_mode_cancels(self):
        g, medium, pulse, model, s = self._scene()
        events = single_element_sequence(g)
        base = simulate_dataset(
            s, events, g, medium, pulse, model,
            AcquisitionSpec(k=1, common_mode_amplitude=0.0),
            seed=1, max_depth=15e-3, amplitude_scale=1.0,
        )
        with_cm = simulate_dataset(
            s, events, g, medium, pulse, model,
            AcquisitionSpec(k=1, common_mode_amplitude=50.0),
            seed=1, max_depth=15e-3, amplitude_scale=1.0,
        )
        np.testing.assert_allclose(with_cm.channels, base.channels, atol=1e-10)

    def test_sham_noise_only(self):
        g, medium, pulse, model, _ = self._scene()
        zero = SFieldGrid(origin=(0, 5e-3), dx=1e-4, dz=1e-4, values=np.zeros((2, 2)))
        events = single_element_sequence(g)
        data = simulate_dataset(
            zero, events, g, medium, pulse, model,
            AcquisitionSpec(k=2, noise_power=1.0),
            seed=3, max_depth=15e-3,
        )
        assert np.all(np.std(data.channels, axis=1) > 0)

    def test_same_seed_identical(self):
        g, medium, pulse, model, s = self._scene()
        events = single_element_sequence(g)
        acq = AcquisitionSpec(k=2, noise_power=0.5, common_mode_amplitude=1.0)
        kw = dict(seed=11, max_depth=15e-3, amplitude_scale=1.0)
        a = simulate_dataset(s, events, g, medium, pulse, model, acq, **kw)
        b = simulate_dataset(s, events, g, medium, pulse, model, acq, **kw)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_thread_count_does_not_change_results(self):
        g, medium, pulse, model, s = self._scene()
        events = single_element_sequence(g)
        acq = AcquisitionSpec(k=2, noise_power=0.5)
        kw = dict(seed=11, max_depth=15e-3)
        a = simulate_dataset(s, events, g, medium, pulse, model, acq, threads=1, **kw)
        b = simulate_dataset(s, events, g, medium, pulse, model, acq, threads=8, **kw)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_trace_length_invariant(self):
        g, medium, pulse, model, s = self._scene()
        events = single_element_sequence(g)
        data = simulate_dataset(
            s, events, g, medium, pulse, model, AcquisitionSpec(), seed=0, max_depth=15e-3
        )
        expected = int(np.ceil(15e-3 / medium.sos * pulse.sample_rate)) + pulse.length_samples
        assert data.num_samples == expected == trace_length(15e-3, medium, pulse)

    def test_rf_gain_scales_everything(self):
        g, medium, pulse, model, s = self._scene()
        events = single_element_sequence(g)
        kw = dict(seed=5, max_depth=15e-3, amplitude_scale=1.0)
        unity = simulate_dataset(
            s, events, g, medium, pulse, model, AcquisitionSpec(noise_power=0.1), **kw
        )
        doubled = simulate_dataset(
            s, events, g, medium, pulse, model,
            AcquisitionSpec(noise_power=0.1, rf_gain=2.0), **kw
        )
        np.testing.assert_allclose(doubled.channels, 2 * unity.channels, rtol=1e-12)


def test_common_mode_trace_shape_and_determinism(tone_pulse):
    a = common_mode_trace(2.0, tone_pulse, 100)
    b = common_mode_trace(2.0, tone_pulse, 100)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100,)
    assert np.max(np.abs(a)) <= 2.0
    np.testing.assert_array_equal(common_mode_trace(0.0, tone_pulse, 10), np.zeros(10))
