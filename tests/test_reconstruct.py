import numpy as np
import pytest

from aesynth import (
    AcquisitionSpec,
    ArrayGeometry,
    Medium,
    PixelGrid,
    PressureModel,
    PulseSpec,
    SFieldGrid,
    das_sa,
    default_pixel_grid,
    envelope,
    focused_sequence,
    fus_line_map,
    simulate_dataset,
    single_element_sequence,
    sub_aperture_size,
    wavelength,
)
from aesynth.errors import InvalidEventError, MethodMismatchError, ValidationError
from aesynth.forward import ChannelDataSet
from aesynth.reconstruct import _sub_aperture_windows


def window_elements(pixel, g, f_number):
    """Sub-aperture elements of one (x, z) pixel, from ``_sub_aperture_windows``."""
    (lo,), (hi,) = _sub_aperture_windows(g, [pixel[0]], [pixel[1]], f_number)
    return np.arange(lo[0], hi[0] + 1)


def make_scene(num_elements=64, pitch=0.315e-3, fs=16e6):
    g = ArrayGeometry(num_elements=num_elements, pitch=pitch)
    medium = Medium(sos=1480.0)
    pulse = PulseSpec(center_frequency=2e6, num_cycles=1, sample_rate=fs)
    model = PressureModel()
    return g, medium, pulse, model


def point_field_on_grid(grid, x, z, amplitude=1.0):
    """Place a point source on the nearest grid cell; returns (field, x, z) actual."""
    values = np.zeros((grid.nz, grid.nx))
    ix = int(np.round((x - grid.origin[0]) / grid.dx))
    iz = int(np.round((z - grid.origin[1]) / grid.dz))
    values[iz, ix] = amplitude
    return (
        SFieldGrid(origin=grid.origin, dx=grid.dx, dz=grid.dz, values=values),
        grid.origin[0] + ix * grid.dx,
        grid.origin[1] + iz * grid.dz,
    )


def simulate_sa(s, g, medium, pulse, model, max_depth, seed=0, noise=0.0, k=1):
    events = single_element_sequence(g)
    return simulate_dataset(
        s, events, g, medium, pulse, model,
        AcquisitionSpec(k=k, noise_power=noise), seed=seed,
        max_depth=max_depth, amplitude_scale=1.0,
    )


class TestSubApertureSize:
    def test_paper_configuration(self):
        assert sub_aperture_size(22e-3, 1.5, 0.315e-3, 64) == 47

    def test_clamps_low(self):
        assert sub_aperture_size(1e-6, 1.5, 0.315e-3, 64) == 1

    def test_clamps_high(self):
        assert sub_aperture_size(10.0, 1.5, 0.315e-3, 64) == 64

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            sub_aperture_size(0.0, 1.5, 0.315e-3, 64)


class TestSubApertureElements:
    def test_centered_window_odd_array(self):
        g = ArrayGeometry(num_elements=9, pitch=0.5e-3)
        # depth chosen so the window holds exactly 5 elements
        z = 5 * 1.5 * 0.5e-3
        idx = window_elements((0.0, z), g, 1.5)
        np.testing.assert_array_equal(idx, [2, 3, 4, 5, 6])

    def test_edge_truncates_instead_of_shifting(self):
        g = ArrayGeometry(num_elements=9, pitch=0.5e-3)
        z = 5 * 1.5 * 0.5e-3
        idx = window_elements((g.element_positions()[0], z), g, 1.5)
        np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_full_aperture_for_centered_pixel(self):
        g = ArrayGeometry(num_elements=9, pitch=0.5e-3)
        idx = window_elements((0.0, 1.0), g, 1.5)
        np.testing.assert_array_equal(idx, np.arange(9))

    def test_corner_window_truncates_below_nominal(self):
        # at the lateral border only about half the nominal window survives
        g = ArrayGeometry(num_elements=9, pitch=0.5e-3)
        idx = window_elements((g.element_positions()[0], 1.0), g, 1.5)
        np.testing.assert_array_equal(idx, np.arange(5))


class TestDasSa:
    def test_localizes_point_source(self):
        g, medium, pulse, model = make_scene()
        grid = default_pixel_grid(g, medium, pulse, 40e-3)
        s, x0, z0 = point_field_on_grid(grid, -2e-3, 25e-3)
        data = simulate_sa(s, g, medium, pulse, model, 40e-3)
        image, _ = das_sa(data, grid, f_number=1.5)
        image = envelope(image)
        iz, ix = np.unravel_index(np.argmax(image.envelope), image.envelope.shape)
        px = grid.x_coords()[ix]
        pz = grid.z_coords()[iz]
        lam = wavelength(medium, pulse)
        assert np.hypot(px - x0, pz - z0) <= lam / 2

    def test_zero_channels_zero_image(self):
        g, medium, pulse, model = make_scene(num_elements=8)
        grid = PixelGrid(origin=(-1e-3, 1e-3), dx=5e-4, dz=5e-4, nx=5, nz=8)
        events = single_element_sequence(g)
        data = ChannelDataSet(
            channels=np.zeros((8, 200)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        image, aperture = das_sa(data, grid, f_number=1.5)
        np.testing.assert_array_equal(image.values, 0.0)
        # band layout: one lane per element of the widest window (here the
        # deep rows' window covers all 8 elements) and one start per pixel
        widest = max(
            len(window_elements((x, z), g, 1.5))
            for z in grid.z_coords() for x in grid.x_coords()
        )
        assert aperture.positions.shape == (8, 5, widest)
        assert aperture.start.shape == (8, 5)

    def test_band_holds_only_the_widest_window(self):
        # shallow grid on a wide array: the band is far narrower than M and
        # lane j of each pixel holds element start + j
        g, medium, pulse, model = make_scene(num_elements=64)
        grid = PixelGrid(origin=(-3e-3, 2e-3), dx=5e-4, dz=5e-4, nx=13, nz=6)
        rng = np.random.default_rng(8)
        data = ChannelDataSet(
            channels=rng.normal(size=(64, 200)), sample_rate=pulse.sample_rate,
            t0=0.0, events=tuple(single_element_sequence(g)), geometry=g,
            medium=medium, pulse=pulse,
        )
        _, aperture = das_sa(data, grid, f_number=1.5)
        m_deep = sub_aperture_size(grid.z_coords()[-1], 1.5, g.pitch, 64)
        assert aperture.positions.shape == (6, 13, m_deep)
        assert m_deep < 64
        for iz, z in enumerate(grid.z_coords()):
            for ix, x in enumerate(grid.x_coords()):
                idx = window_elements((x, z), g, 1.5)
                assert aperture.start[iz, ix] == idx[0]
                np.testing.assert_array_equal(
                    np.flatnonzero(aperture.member[iz, ix]), idx - idx[0]
                )

    def test_single_channel_matches_brute_force(self):
        # one nonzero channel back-projects onto a hyperbolic arc
        g, medium, pulse, model = make_scene(num_elements=8, pitch=0.5e-3)
        grid = PixelGrid(origin=(-2e-3, 2e-3), dx=4e-4, dz=3e-4, nx=11, nz=20)
        events = single_element_sequence(g)
        rng = np.random.default_rng(3)
        channels = np.zeros((8, 300))
        channels[5] = rng.normal(size=300)
        data = ChannelDataSet(
            channels=channels, sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        image, _ = das_sa(data, grid, f_number=1.5)

        # independent oracle: explicit per-pixel interpolation of channel 5
        ex = g.element_positions()
        want = np.zeros((20, 11))
        for iz, z in enumerate(grid.z_coords()):
            m_sa = sub_aperture_size(z, 1.5, g.pitch, 8)
            for ix, x in enumerate(grid.x_coords()):
                members = window_elements((x, z), g, 1.5)
                if 5 not in members:
                    continue
                pos = np.hypot(x - ex[5], z) / medium.sos * pulse.sample_rate
                k0 = int(np.floor(pos))
                if 0 <= pos <= 299:
                    f = pos - k0
                    hi = channels[5, min(k0 + 1, 299)]
                    want[iz, ix] = channels[5, k0] * (1 - f) + hi * f
        np.testing.assert_allclose(image.values, want, atol=1e-12)

    def test_linearity_in_channel_data(self):
        g, medium, pulse, model = make_scene(num_elements=8, pitch=0.5e-3)
        grid = PixelGrid(origin=(-2e-3, 2e-3), dx=4e-4, dz=3e-4, nx=9, nz=12)
        events = tuple(single_element_sequence(g))
        rng = np.random.default_rng(4)
        c1, c2 = rng.normal(size=(2, 8, 250))
        mk = lambda ch: ChannelDataSet(
            channels=ch, sample_rate=pulse.sample_rate, t0=0.0,
            events=events, geometry=g, medium=medium, pulse=pulse,
        )
        i1, _ = das_sa(mk(c1), grid, 1.5)
        i2, _ = das_sa(mk(c2), grid, 1.5)
        i12, _ = das_sa(mk(2 * c1 - 3 * c2), grid, 1.5)
        np.testing.assert_allclose(i12.values, 2 * i1.values - 3 * i2.values, atol=1e-10)

    def test_out_of_support_pixels_flagged(self):
        g, medium, pulse, model = make_scene(num_elements=8, pitch=0.5e-3)
        events = single_element_sequence(g)
        # trace too short for the deep pixels
        data = ChannelDataSet(
            channels=np.ones((8, 40)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=1e-3, nx=3, nz=10)
        image, aperture = das_sa(data, grid, 1.5)
        counts = aperture.valid_count()
        assert counts[0].max() > 0
        assert counts[-1].max() == 0  # deeper than the trace supports
        np.testing.assert_array_equal(image.values[-1], 0.0)
        np.testing.assert_array_equal(image.coverage, counts)

    def test_amplification_scales_with_sub_aperture(self):
        # noiseless peak value grows like the sub-aperture element count
        g, medium, pulse, model = make_scene()
        grid = default_pixel_grid(g, medium, pulse, 40e-3)
        s, x0, z0 = point_field_on_grid(grid, 0.0, 20e-3)
        data = simulate_sa(s, g, medium, pulse, model, 40e-3)
        peaks = {}
        for fn in (1.0, 2.0, 4.0):
            image, aperture = das_sa(data, grid, f_number=fn)
            iz = int(np.argmin(np.abs(grid.z_coords() - z0)))
            ix = int(np.argmin(np.abs(grid.x_coords() - x0)))
            peaks[fn] = np.abs(image.values[iz, ix])
            m_sa = sub_aperture_size(z0, fn, g.pitch, 64)
            peaks[fn] /= m_sa
        vals = np.array(list(peaks.values()))
        np.testing.assert_allclose(vals, vals[0], rtol=0.02)

    def test_threads_bitwise_identical(self):
        g, medium, pulse, model = make_scene(num_elements=16, pitch=0.5e-3)
        grid = default_pixel_grid(g, medium, pulse, 20e-3)
        s, *_ = point_field_on_grid(grid, 0.0, 12e-3)
        data = simulate_sa(s, g, medium, pulse, model, 20e-3, noise=0.3, k=2)
        a, _ = das_sa(data, grid, 1.5, threads=1)
        b, _ = das_sa(data, grid, 1.5, threads=8)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_focused_events(self):
        g, medium, pulse, model = make_scene(num_elements=8, pitch=0.5e-3)
        events = focused_sequence(g, medium, 20e-3, [0.0])
        data = ChannelDataSet(
            channels=np.zeros((1, 100)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=2, nz=2)
        with pytest.raises(InvalidEventError):
            das_sa(data, grid, 1.5)


class TestFusLineMap:
    def _fus_data(self, src_x, src_z, focal=22e-3, max_depth=45e-3, noise=0.0, seed=0):
        g, medium, pulse, model = make_scene()
        grid = default_pixel_grid(g, medium, pulse, max_depth)
        s, x0, z0 = point_field_on_grid(grid, src_x, src_z)
        events = focused_sequence(g, medium, focal, g.element_positions())
        data = simulate_dataset(
            s, events, g, medium, pulse, model,
            AcquisitionSpec(k=1, noise_power=noise), seed=seed,
            max_depth=max_depth, amplitude_scale=1.0,
        )
        return data, grid, medium, pulse, x0, z0

    def test_point_source_at_focus_localized(self):
        data, grid, medium, pulse, x0, z0 = self._fus_data(3e-3, 22e-3)
        image = envelope(fus_line_map(data, grid, medium))
        iz, ix = np.unravel_index(np.argmax(image.envelope), image.envelope.shape)
        assert abs(grid.x_coords()[ix] - x0) <= grid.dx
        assert abs(grid.z_coords()[iz] - z0) <= 2 * grid.dz

    def test_zero_channels_zero_image(self):
        g, medium, pulse, model = make_scene(num_elements=8, pitch=0.5e-3)
        events = focused_sequence(g, medium, 10e-3, g.element_positions())
        data = ChannelDataSet(
            channels=np.zeros((8, 300)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        grid = PixelGrid(origin=(-2e-3, 1e-3), dx=5e-4, dz=5e-4, nx=9, nz=16)
        image = fus_line_map(data, grid, medium)
        np.testing.assert_array_equal(image.values, 0.0)

    def test_out_of_focus_widens(self):
        # source well past the focus smears laterally by > 2x
        from aesynth.metrics import profile_fwhm

        data_f, grid, medium, pulse, xf, zf = self._fus_data(0.0, 22e-3)
        img_f = envelope(fus_line_map(data_f, grid, medium))
        data_o, grid_o, *_rest = self._fus_data(0.0, 40e-3)
        x0, z0 = _rest[-2], _rest[-1]
        img_o = envelope(fus_line_map(data_o, grid_o, medium))

        izf = int(np.argmin(np.abs(grid.z_coords() - zf)))
        izo = int(np.argmin(np.abs(grid_o.z_coords() - z0)))
        w_f = profile_fwhm(img_f.envelope[izf], grid.dx)
        w_o = profile_fwhm(img_o.envelope[izo], grid_o.dx)
        assert w_o > 2 * w_f

    def test_missing_line_leaves_flagged_zero_column(self):
        g, medium, pulse, model = make_scene(num_elements=8, pitch=0.5e-3)
        # only two ray lines for an 8-column grid
        events = focused_sequence(g, medium, 10e-3, g.element_positions()[:2])
        data = ChannelDataSet(
            channels=np.ones((2, 300)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        grid = PixelGrid(origin=(-2e-3, 1e-3), dx=5e-4, dz=5e-4, nx=8, nz=12)
        image = fus_line_map(data, grid, medium)
        filled = image.coverage[0]
        assert filled.sum() == 2
        np.testing.assert_array_equal(image.values[:, ~filled], 0.0)

    def test_rejects_single_element_events(self):
        g, medium, pulse, model = make_scene(num_elements=4, pitch=0.5e-3)
        events = single_element_sequence(g)
        data = ChannelDataSet(
            channels=np.zeros((4, 100)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(events), geometry=g, medium=medium, pulse=pulse,
        )
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=4, nz=8)
        with pytest.raises(MethodMismatchError):
            fus_line_map(data, grid, medium)


class TestEnvelope:
    def test_cosine_column_has_unit_envelope(self):
        grid = PixelGrid(origin=(0, 1e-3), dx=1e-3, dz=0.1e-3, nx=2, nz=400)
        z = grid.z_coords()
        lam = 2e-3
        values = np.repeat(np.cos(2 * np.pi * z / lam)[:, None], 2, axis=1)
        from aesynth.reconstruct import BeamformedImage

        img = envelope(BeamformedImage(grid=grid, values=values))
        interior = img.envelope[50:-50]
        np.testing.assert_allclose(interior, 1.0, rtol=0.05)

    def test_zero_column_zero_envelope(self):
        grid = PixelGrid(origin=(0, 1e-3), dx=1e-3, dz=1e-4, nx=3, nz=32)
        from aesynth.reconstruct import BeamformedImage

        img = envelope(BeamformedImage(grid=grid, values=np.zeros((32, 3))))
        np.testing.assert_array_equal(img.envelope, 0.0)

    def test_gaussian_windowed_tone(self):
        # envelope of a Gaussian-windowed tone recovers the Gaussian window
        grid = PixelGrid(origin=(0, 1e-3), dx=1e-3, dz=0.05e-3, nx=1, nz=600)
        z = grid.z_coords()
        zc = z[300]
        sigma = 2e-3
        window = np.exp(-0.5 * ((z - zc) / sigma) ** 2)
        tone = window * np.cos(2 * np.pi * (z - zc) / 1e-3)
        from aesynth.reconstruct import BeamformedImage

        img = envelope(BeamformedImage(grid=grid, values=tone[:, None]))
        sel = window > 0.05
        np.testing.assert_allclose(img.envelope[sel, 0], window[sel], rtol=0.05)

    def test_degenerate_axis_rejected(self):
        grid = PixelGrid(origin=(0, 1e-3), dx=1e-3, dz=1e-4, nx=3, nz=3)
        from aesynth.reconstruct import BeamformedImage

        with pytest.raises(ValidationError):
            envelope(BeamformedImage(grid=grid, values=np.zeros((3, 3))))
