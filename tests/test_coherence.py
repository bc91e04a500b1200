import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aesynth import (
    ArrayGeometry,
    CoherenceMap,
    Medium,
    PixelGrid,
    PressureModel,
    PulseSpec,
    amplitude_correct,
    apply_weighting,
    coherence_factor,
    coherence_factor_pl,
    das_sa,
    effective_beam_map,
    envelope,
    single_element_sequence,
    sub_aperture_size,
)
from aesynth.cli import load_channels, run_simulate
from aesynth.coherence import _cf_values, sa_frame
from aesynth.errors import GridMismatchError, ValidationError
from aesynth.forward import ChannelDataSet, TransmitEvent
from aesynth.reconstruct import BeamformedImage, _sa_rows
from aesynth.scenario import (
    build_events,
    build_geometry,
    build_medium,
    build_pixel_grid,
    build_pulse,
)
from aesynth.suite import bundled_scenario

from test_reconstruct import make_scene, point_field_on_grid, simulate_sa


def vectors_to_aperture(vectors):
    """Wrap (n_pix, M) aperture vectors as full-aperture ApertureSamples.

    The band is the full aperture: every window starts at element 0 and
    spans all M lanes.

    Channel rows and integer positions are arranged so re-gathering at the
    stored positions reproduces the vectors bitwise (each pixel owns one
    sample column per element).  A re-gather needs traces of at least 2
    samples, so pass at least 2 vectors.
    """
    from aesynth.reconstruct import ApertureSamples

    vectors = np.asarray(vectors, dtype=float)
    n_pix, m = vectors.shape
    grid = PixelGrid(origin=(0.0, 1e-3), dx=1e-4, dz=1e-4, nx=1, nz=n_pix)
    channels = np.ascontiguousarray(vectors.T)
    positions = np.broadcast_to(
        np.arange(n_pix, dtype=float)[:, None, None], (n_pix, 1, m)
    ).copy()
    return ApertureSamples(
        grid=grid,
        member=np.ones((n_pix, 1, m), dtype=bool),
        positions=positions,
        channels=channels,
        start=np.zeros((n_pix, 1), dtype=np.int64),
    )


def windowed_noise_aperture(rng, n_pix, m, window):
    """Full-aperture samples (start 0, W = M) drawn from iid noise with
    non-overlapping windows."""
    from aesynth.reconstruct import ApertureSamples

    stride = window + 2
    channels = rng.normal(size=(m, n_pix * stride + window))
    positions = np.broadcast_to(
        (np.arange(n_pix, dtype=float) * stride)[:, None, None], (n_pix, 1, m)
    ).copy()
    grid = PixelGrid(origin=(0.0, 1e-3), dx=1e-4, dz=1e-4, nx=1, nz=n_pix)
    return ApertureSamples(
        grid=grid, member=np.ones((n_pix, 1, m), dtype=bool),
        positions=positions, channels=channels,
        start=np.zeros((n_pix, 1), dtype=np.int64),
    )


class TestCoherenceFactor:
    def test_identical_channels_give_exactly_one(self):
        # power-of-two aperture: the sums are exact, so CF is exactly 1.0
        aperture = vectors_to_aperture(np.full((10, 64), 0.37))
        cf = coherence_factor(aperture)
        np.testing.assert_array_equal(cf.values, 1.0)

    def test_one_hot_channel_gives_one_over_m(self):
        vectors = np.zeros((6, 32))
        vectors[:, 7] = 5.0
        cf = coherence_factor(vectors_to_aperture(vectors))
        np.testing.assert_array_equal(cf.values, 1.0 / 32.0)

    def test_alternating_channels_cancel(self):
        vectors = np.ones((4, 16))
        vectors[:, 1::2] = -1.0
        cf = coherence_factor(vectors_to_aperture(vectors))
        np.testing.assert_array_equal(cf.values, 0.0)

    def test_zero_energy_is_zero(self):
        cf = coherence_factor(vectors_to_aperture(np.zeros((5, 8))))
        np.testing.assert_array_equal(cf.values, 0.0)

    def test_edge_truncated_window_uses_actual_count(self):
        # one-hot data on a das_sa aperture whose window is clipped to 31
        # elements normalizes by 31, keeping CF <= 1 semantics at edges
        channels = np.zeros((32, 256))
        channels[7] = 5.0
        g = ArrayGeometry(num_elements=32, pitch=0.5e-3)
        pulse = PulseSpec(center_frequency=2e6, num_cycles=1, sample_rate=16e6)
        medium = Medium(sos=1480.0)
        data = ChannelDataSet(
            channels=channels, sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(single_element_sequence(g)), geometry=g,
            medium=medium, pulse=pulse,
        )
        grid = PixelGrid(origin=(0.3e-3, 5e-3), dx=1e-4, dz=1e-4, nx=1, nz=1)
        _, aperture = das_sa(data, grid, f_number=0.25)
        assert aperture.valid_count()[0, 0] == 31
        cf = coherence_factor(aperture)
        np.testing.assert_array_equal(cf.values, 1.0 / 31.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(2, 48))
    def test_bounds_on_random_vectors(self, seed, m):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(20, m)) * 10 ** rng.uniform(-3, 3)
        cf = _cf_values(vals, np.full(20, m))
        assert np.all(cf >= 0) and np.all(cf <= 1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(0.01, 100))
    def test_invariant_to_global_scaling(self, seed, alpha):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(10, 16))
        count = np.full(10, 16)
        np.testing.assert_allclose(
            _cf_values(alpha * vals, count), _cf_values(vals, count), atol=1e-12
        )

    def test_noiseless_point_source_is_coherent(self):
        g, medium, pulse, model = make_scene()
        from aesynth import default_pixel_grid

        grid = default_pixel_grid(g, medium, pulse, 40e-3)
        s, x0, z0 = point_field_on_grid(grid, 0.0, 25e-3)
        data = simulate_sa(s, g, medium, pulse, model, 40e-3)
        _, aperture = das_sa(data, grid, 1.5)
        cf = coherence_factor(aperture)
        iz = int(np.argmin(np.abs(grid.z_coords() - z0)))
        ix = int(np.argmin(np.abs(grid.x_coords() - x0)))
        assert cf.values[iz, ix] >= 0.99


class TestCoherenceFactorPulseLength:
    def test_p1_equals_cf_bitwise(self, rng):
        aperture = windowed_noise_aperture(rng, n_pix=50, m=16, window=1)
        cf = coherence_factor(aperture)
        cfpl = coherence_factor_pl(aperture, pulse_samples=1)
        np.testing.assert_array_equal(cfpl.values, cf.values)

    def test_p1_equals_cf_bitwise_on_das_output(self):
        # same check through the full delay-and-sum path
        g, medium, pulse, model = make_scene(num_elements=16, pitch=0.5e-3)
        from aesynth import default_pixel_grid

        grid = default_pixel_grid(g, medium, pulse, 15e-3)
        s, *_ = point_field_on_grid(grid, 0.0, 10e-3)
        data = simulate_sa(s, g, medium, pulse, model, 15e-3, noise=0.5, k=2)
        _, aperture = das_sa(data, grid, 1.5)
        cf = coherence_factor(aperture)
        cfpl = coherence_factor_pl(aperture, pulse_samples=1)
        np.testing.assert_array_equal(cfpl.values, cf.values)

    def test_identical_channels_stay_one(self):
        vectors = np.full((10, 32), 1.25)
        aperture = vectors_to_aperture(vectors)
        # windows walk into neighboring pixels' columns, which hold the same
        # constant, so every instant is fully coherent
        cfpl = coherence_factor_pl(aperture, pulse_samples=4)
        np.testing.assert_array_equal(cfpl.values[:-4], 1.0)

    def test_gaussian_channels_mean_near_one_over_m(self):
        # incoherent noise holds E[CF] = 1/M; non-overlapping windows keep
        # the >1e3 pixels statistically independent
        rng = np.random.default_rng(99)
        aperture = windowed_noise_aperture(rng, n_pix=1200, m=32, window=8)
        cfpl = coherence_factor_pl(aperture, pulse_samples=8)
        assert np.mean(cfpl.values) == pytest.approx(1 / 32, rel=0.2)

    def test_rejects_bad_pulse_samples(self, rng):
        aperture = vectors_to_aperture(rng.normal(size=(4, 8)))
        with pytest.raises(ValidationError):
            coherence_factor_pl(aperture, pulse_samples=0)

    def test_centered_window_changes_values(self, rng):
        aperture = windowed_noise_aperture(rng, n_pix=40, m=16, window=6)
        causal = coherence_factor_pl(aperture, pulse_samples=6)
        centered = coherence_factor_pl(aperture, pulse_samples=6, centered=True)
        assert not np.array_equal(causal.values, centered.values)

    def test_out_of_support_instants_contribute_zero(self, rng):
        # windows that run past the trace end average in zeros
        aperture = windowed_noise_aperture(rng, n_pix=4, m=8, window=1)
        t_end = aperture.channels.shape[1]
        aperture.positions[-1, :, :] = t_end - 1  # last instant in support, rest out
        vals = coherence_factor_pl(aperture, pulse_samples=5)
        # two identical pixels: the reference traces need 2 samples
        first = coherence_factor(
            vectors_to_aperture(np.tile(aperture.channels[:, t_end - 1], (2, 1)))
        )
        assert vals.values[-1, 0] == pytest.approx(first.values[0, 0] / 5)


def full_aperture_oracle(data, grid, f_number, pulse_samples, centered):
    """Image values, coverage, CF and CFPL from a masked gather over all M.

    Every pixel samples every element's channel; the sub-aperture window,
    missing channels and the trace support only mask the results.
    """
    g = data.geometry
    m, n = g.num_elements, data.num_samples
    channels = np.zeros((m, n))
    has_channel = np.zeros(m, dtype=bool)
    delay = np.zeros(m)
    for row, ev in enumerate(data.events):
        i = ev.single_element_index()
        channels[i] = data.channels[row]
        has_channel[i] = True
        delay[i] = ev.delays[i]
    xs, zs = grid.x_coords(), grid.z_coords()
    elem = np.arange(m)
    member = np.zeros((grid.nz, grid.nx, m), dtype=bool)
    for iz, z in enumerate(zs):
        m_sa = sub_aperture_size(z, f_number, g.pitch, m)
        for ix, x in enumerate(xs):
            k = g.nearest_element(x)
            lo, hi = max(k - (m_sa - 1) // 2, 0), min(k + m_sa // 2, m - 1)
            member[iz, ix] = (elem >= lo) & (elem <= hi) & has_channel
    dist = np.hypot(xs[None, :, None] - g.element_positions(), zs[:, None, None])
    pos = (delay + dist / data.medium.sos - data.t0) * data.sample_rate

    def gather(p):
        support = (p >= 0) & (p <= n - 1)
        k0 = np.clip(np.floor(p).astype(np.int64), 0, n - 2)
        frac = p - k0
        v = channels[elem, k0] * (1 - frac) + channels[elem, k0 + 1] * frac
        return np.where(support, v, 0.0), support

    def cf(vals, valid):
        vals = np.where(valid, vals, 0.0)
        den = valid.sum(axis=-1) * (vals * vals).sum(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.clip(np.where(den > 0, vals.sum(axis=-1) ** 2 / den, 0.0), 0, 1)

    vals, support = gather(pos)
    valid = member & support
    offsets = np.arange(pulse_samples)
    if centered:
        offsets = offsets - (pulse_samples - 1) // 2
    cfpl = np.mean([cf(*_and_member(gather(pos + off), member)) for off in offsets], axis=0)
    image = np.where(valid, vals, 0.0).sum(axis=-1)
    return image, valid.sum(axis=-1), cf(vals, valid), cfpl


def _and_member(gathered, member):
    vals, support = gathered
    return vals, member & support


def band_scene(seed, m, trace_len, nx, nz, x0, z0, missing, last=False):
    """Random single-element channels and a grid; ``missing`` drops a random
    element's event and ``last`` the last element's."""
    rng = np.random.default_rng(seed)
    g = ArrayGeometry(num_elements=m, pitch=0.3e-3)
    pulse = PulseSpec(center_frequency=2e6, num_cycles=1, sample_rate=16e6)
    events = single_element_sequence(g)
    if missing:
        del events[int(rng.integers(m))]
    if last and len(events) > 1:
        events = [ev for ev in events if ev.single_element_index() != m - 1]
    data = ChannelDataSet(
        channels=rng.normal(size=(len(events), trace_len)),
        sample_rate=pulse.sample_rate, t0=float(rng.uniform(-1e-6, 1e-6)),
        events=tuple(events), geometry=g, medium=Medium(sos=1480.0), pulse=pulse,
    )
    grid = PixelGrid(origin=(x0, z0), dx=0.45e-3, dz=0.7e-3, nx=nx, nz=nz)
    return data, grid


BAND_SCENES = dict(
    seed=st.integers(0, 2**31),
    m=st.integers(2, 24),
    trace_len=st.integers(2, 160),
    nx=st.integers(1, 7),
    nz=st.integers(1, 6),
    x0=st.floats(-6e-3, 3e-3),
    z0=st.floats(0.2e-3, 8e-3),
    f_number=st.floats(0.3, 3.0),
    missing=st.booleans(),
    pulse_samples=st.integers(1, 9),
    centered=st.booleans(),
)


class TestBandMatchesFullAperture:
    """The band-limited gather reproduces a masked gather over all M."""

    @settings(max_examples=60, deadline=None)
    @given(**BAND_SCENES)
    # edge-truncated windows, a missing channel, a trace too short for the
    # deep rows and the longest centered and causal pulse windows
    @example(seed=1, m=16, trace_len=60, nx=7, nz=6, x0=-4e-3, z0=2e-3,
             f_number=0.8, missing=True, pulse_samples=9, centered=True)
    @example(seed=2, m=9, trace_len=75, nx=5, nz=6, x0=0.5e-3, z0=1.5e-3,
             f_number=0.5, missing=True, pulse_samples=9, centered=False)
    def test_values_coverage_cf_cfpl(
        self, seed, m, trace_len, nx, nz, x0, z0, f_number, missing, pulse_samples, centered
    ):
        data, grid = band_scene(seed, m, trace_len, nx, nz, x0, z0, missing)
        want_img, want_cov, want_cf, want_cfpl = full_aperture_oracle(
            data, grid, f_number, pulse_samples, centered
        )

        results = []
        for threads in (1, 3):
            image, aperture = das_sa(data, grid, f_number, threads=threads)
            cf = coherence_factor(aperture)
            cfpl = coherence_factor_pl(
                aperture, pulse_samples=pulse_samples, centered=centered, threads=threads
            )
            results.append((image.values, image.coverage, cf.values, cfpl.values))
            peak = np.abs(want_img).max()
            np.testing.assert_allclose(image.values, want_img, rtol=0, atol=1e-12 * peak)
            np.testing.assert_array_equal(image.coverage, want_cov)
            np.testing.assert_array_equal(aperture.valid_count(), want_cov)
            np.testing.assert_allclose(cf.values, want_cf, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cfpl.values, want_cfpl, rtol=0, atol=1e-12)
        for one, three in zip(*results):
            np.testing.assert_array_equal(one, three)


class TestFusedFrame:
    """``sa_frame`` gives the bits of das_sa -> coherence_factor -> coherence_factor_pl."""

    @settings(max_examples=80, deadline=None)
    @given(last=st.booleans(), **BAND_SCENES)
    # the last element's channel missing, so the row's CF band is narrower
    # than its DAS band, with centered and causal windows
    @example(seed=3, m=12, trace_len=90, nx=7, nz=6, x0=0.9e-3, z0=1.0e-3, f_number=0.6,
             missing=False, last=True, pulse_samples=9, centered=True)
    @example(seed=4, m=12, trace_len=90, nx=7, nz=6, x0=0.9e-3, z0=1.0e-3, f_number=0.6,
             missing=True, last=True, pulse_samples=8, centered=False)
    # one pulse instant, with a trace too short for the deep rows
    @example(seed=5, m=16, trace_len=40, nx=7, nz=6, x0=-4e-3, z0=2e-3, f_number=0.8,
             missing=True, last=False, pulse_samples=1, centered=True)
    @example(seed=6, m=16, trace_len=40, nx=7, nz=6, x0=-4e-3, z0=2e-3, f_number=0.8,
             missing=False, last=True, pulse_samples=1, centered=False)
    def test_matches_three_kernels_bitwise(
        self, seed, m, trace_len, nx, nz, x0, z0, f_number, missing, last, pulse_samples, centered
    ):
        data, grid = band_scene(seed, m, trace_len, nx, nz, x0, z0, missing, last)
        image, aperture = das_sa(data, grid, f_number)
        cf = coherence_factor(aperture)
        cfpl = coherence_factor_pl(aperture, pulse_samples=pulse_samples, centered=centered)

        ((fused, fused_cf, fused_cfpl),) = sa_frame([data], grid, f_number, pulse_samples, centered)
        assert np.array_equal(fused.values, image.values)
        assert np.array_equal(fused.coverage, image.coverage)
        assert fused.coverage.dtype == image.coverage.dtype
        assert np.array_equal(fused_cf.values, cf.values)
        assert np.array_equal(fused_cfpl.values, cfpl.values)
        assert (fused_cf.kind, fused_cfpl.kind, fused_cfpl.pulse_samples) == (
            cf.kind, cfpl.kind, cfpl.pulse_samples
        )

    @pytest.mark.parametrize("scene", ["saline_points", "nerve_disc", "depth_pair", "sham", None])
    def test_frame_lane_widths_match_per_row(self, scene):
        """``_sa_rows``' per-row widths reach the last lane that holds a member with a channel."""
        if scene is None:  # the last element's channel missing
            (data, grid), f_number = band_scene(4, 12, 90, 7, 6, 0.9e-3, 1e-3, True, True), 0.6
        else:
            scenario = bundled_scenario(scene)
            events = build_events(scenario)
            data = ChannelDataSet(
                channels=np.zeros((len(events), 2)), sample_rate=scenario.pulse.sample_rate,
                t0=0.0, events=tuple(events), geometry=build_geometry(scenario),
                medium=build_medium(scenario), pulse=build_pulse(scenario),
            )
            grid, f_number = build_pixel_grid(scenario), scenario.reconstruction.f_number
        g, m = data.geometry, data.geometry.num_elements
        has_channel = {ev.single_element_index() for ev in data.events}
        want = []
        for z in grid.z_coords():
            size = sub_aperture_size(z, f_number, g.pitch, m)
            used = 0
            for x in grid.x_coords():
                k = g.nearest_element(x)
                lo, hi = max(k - (size - 1) // 2, 0), min(k + size // 2, m - 1)
                used = max([used] + [e - lo + 1 for e in range(lo, hi + 1) if e in has_channel])
            want.append(used)
        rows = list(_sa_rows(data, grid, f_number)[3])
        assert [used for *_, used in rows] == want
        if scene is None:
            assert any(used < member.shape[1] for _, member, _, used in rows)

    def test_rejects_bad_pulse_samples(self):
        data, grid = band_scene(1, 8, 60, 3, 3, -1e-3, 2e-3, False)
        with pytest.raises(ValidationError):
            sa_frame([data], grid, 1.0, pulse_samples=0)

    def test_nerve_disc_frame_peak_allocation(self, nerve_disc_frame):
        """An M=64 desk frame stores no delay plan (about 13 MB)."""
        scenario, data, grid = nerve_disc_frame
        tracemalloc.start()
        try:
            sa_frame(
                [data], grid, scenario.reconstruction.f_number,
                data.pulse.length_samples, scenario.reconstruction.cfpl_centered,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_nerve_disc_delay_plan_bytes(self, nerve_disc_frame):
        """``das_sa`` stores the delay plan, 9 bytes a lane, and no sample cube."""
        scenario, data, grid = nerve_disc_frame
        _, aperture = das_sa(data, grid, scenario.reconstruction.f_number)
        stored = sum(v.nbytes for v in vars(aperture).values() if isinstance(v, np.ndarray))
        assert stored < 12e6


@pytest.fixture(scope="module")
def nerve_disc_frame(tmp_path_factory):
    """The bundled M=64 nerve-disc scene, its simulated SA channels and its grid."""
    scenario = bundled_scenario("nerve_disc")
    path = tmp_path_factory.mktemp("nerve_disc") / "nerve_disc_sa.aecd"
    run_simulate(scenario, path)
    data = load_channels(path, scenario)
    assert data.geometry.num_elements == 64
    return scenario, data, build_pixel_grid(scenario)


def test_readme_library_block_runs():
    """The README's Python quick start runs and weights the image it documents."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), namespace)
    weighted = namespace["weighted"]
    assert weighted.envelope is not None
    # the point source at pixel (135, 32) is the brightest pixel of the weighted image
    peak = np.unravel_index(np.argmax(weighted.envelope), weighted.envelope.shape)
    assert tuple(int(i) for i in peak) == (135, 32)


def bits(a):
    """An array's bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def plan_sharing_batch(data, k, seed):
    """``data`` and ``k - 1`` datasets with its plan and independent channels."""
    rng = np.random.default_rng(seed)
    others = [
        dataclasses.replace(data, channels=rng.normal(size=data.channels.shape) * 10.0 ** i)
        for i in range(1, k)
    ]
    return [data, *others]


class TestFrameBatch:
    """A batched ``sa_frame`` gives every dataset the bits of its own three-kernel run."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), last=st.booleans(), **BAND_SCENES)
    @example(k=4, seed=3, m=12, trace_len=90, nx=7, nz=6, x0=0.9e-3, z0=1.0e-3, f_number=0.6,
             missing=True, last=True, pulse_samples=9, centered=True)
    @example(k=3, seed=5, m=16, trace_len=40, nx=7, nz=6, x0=-4e-3, z0=2e-3, f_number=0.8,
             missing=False, last=False, pulse_samples=1, centered=False)
    def test_matches_per_dataset_kernels_bitwise(
        self, k, seed, m, trace_len, nx, nz, x0, z0, f_number, missing, last, pulse_samples,
        centered,
    ):
        data, grid = band_scene(seed, m, trace_len, nx, nz, x0, z0, missing, last)
        batch = plan_sharing_batch(data, k, seed + 1)
        frames = sa_frame(batch, grid, f_number, pulse_samples, centered)
        assert len(frames) == k
        for one, (image, cf, cfpl) in zip(batch, frames):
            want_image, aperture = das_sa(one, grid, f_number)
            want_cf = coherence_factor(aperture)
            want_cfpl = coherence_factor_pl(aperture, pulse_samples, centered)
            assert np.array_equal(bits(image.values), bits(want_image.values))
            assert np.array_equal(image.coverage, want_image.coverage)
            assert image.coverage.dtype == want_image.coverage.dtype
            assert np.array_equal(bits(cf.values), bits(want_cf.values))
            assert np.array_equal(bits(cfpl.values), bits(want_cfpl.values))
            assert cfpl.pulse_samples == pulse_samples

    @pytest.mark.parametrize("change", [
        "pitch", "elements", "sos", "sample_rate", "t0", "trace_length", "missing_event",
        "event_order", "delay",
    ])
    def test_rejects_datasets_with_another_plan(self, change):
        data, grid = band_scene(7, 8, 60, 3, 4, -1e-3, 2e-3, False)
        events = list(data.events)
        other = {
            "pitch": lambda: dataclasses.replace(
                data, geometry=ArrayGeometry(num_elements=8, pitch=0.31e-3)
            ),
            "elements": lambda: dataclasses.replace(
                data, geometry=ArrayGeometry(num_elements=9, pitch=0.3e-3)
            ),
            "sos": lambda: dataclasses.replace(data, medium=Medium(sos=1500.0)),
            "sample_rate": lambda: dataclasses.replace(data, sample_rate=32e6),
            "t0": lambda: dataclasses.replace(data, t0=data.t0 + 1e-7),
            "trace_length": lambda: dataclasses.replace(data, channels=data.channels[:, :-1]),
            "missing_event": lambda: dataclasses.replace(
                data, channels=data.channels[1:], events=events[1:]
            ),
            "event_order": lambda: dataclasses.replace(data, events=events[::-1]),
            "delay": lambda: dataclasses.replace(data, events=[
                TransmitEvent(delays=ev.delays + 1e-7, active=ev.active) for ev in events
            ]),
        }[change]()
        with pytest.raises(ValidationError, match="share"):
            sa_frame([data, other], grid, 1.0)
        sa_frame([data, dataclasses.replace(data)], grid, 1.0)  # the same plan passes

    def test_rejects_empty_batch(self):
        _, grid = band_scene(7, 8, 60, 3, 4, -1e-3, 2e-3, False)
        with pytest.raises(ValidationError):
            sa_frame([], grid, 1.0)


class TestApplyWeighting:
    def _image_and_map(self, rng, nz=16, nx=5):
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=nx, nz=nz)
        img = envelope(BeamformedImage(grid=grid, values=rng.normal(size=(nz, nx))))
        return grid, img

    def test_unit_map_is_identity(self, rng):
        grid, img = self._image_and_map(rng)
        cmap = CoherenceMap(grid=grid, values=np.ones((16, 5)))
        out = apply_weighting(img, cmap)
        np.testing.assert_array_equal(out.values, img.values)
        np.testing.assert_allclose(out.envelope, img.envelope)

    def test_zero_map_zeroes_image(self, rng):
        grid, img = self._image_and_map(rng)
        cmap = CoherenceMap(grid=grid, values=np.zeros((16, 5)))
        out = apply_weighting(img, cmap)
        np.testing.assert_array_equal(out.values, 0.0)
        np.testing.assert_array_equal(out.envelope, 0.0)

    def test_grid_mismatch_rejected(self, rng):
        grid, img = self._image_and_map(rng)
        other = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=4, nz=16)
        with pytest.raises(GridMismatchError):
            apply_weighting(img, CoherenceMap(grid=other, values=np.zeros((16, 4))))


class TestEffectiveBeamMap:
    def test_interior_value_is_sub_aperture_count(self):
        g, medium, pulse, model = make_scene()
        grid = PixelGrid(origin=(0, 8e-3), dx=1e-4, dz=8e-3, nx=1, nz=2)
        bm = effective_beam_map(g, grid, 1.5, medium, pulse, model)
        assert bm[0, 0] == sub_aperture_size(8e-3, 1.5, g.pitch, 64)
        assert bm[1, 0] == sub_aperture_size(16e-3, 1.5, g.pitch, 64)

    def test_depth_doubling_doubles_amplitude(self):
        # 8 mm -> 17 elements, 16 mm -> 34: the map doubles with depth
        g, medium, pulse, model = make_scene()
        grid = PixelGrid(origin=(0, 8e-3), dx=1e-4, dz=8e-3, nx=1, nz=2)
        bm = effective_beam_map(g, grid, 1.5, medium, pulse, model)
        assert bm[1, 0] / bm[0, 0] == pytest.approx(2.0)

    def test_corner_below_interior(self):
        g, medium, pulse, model = make_scene()
        from aesynth import default_pixel_grid

        grid = default_pixel_grid(g, medium, pulse, 40e-3)
        bm = effective_beam_map(g, grid, 1.5, medium, pulse, model)
        assert bm[-1, 0] < bm[-1, grid.nx // 2]
        # the threads keyword is accepted and changes nothing
        assert np.array_equal(
            effective_beam_map(g, grid, 1.5, medium, pulse, model, threads=2), bm
        )

    def test_constant_model_counts_das_sa_members(self):
        # the beam map and das_sa walk the same windows: with every channel
        # present and a constant amplitude, the map is each pixel's member count
        g, medium, pulse, model = make_scene()
        from aesynth import default_pixel_grid

        grid = default_pixel_grid(g, medium, pulse, 40e-3)
        data = ChannelDataSet(
            channels=np.zeros((g.num_elements, 2)), sample_rate=pulse.sample_rate, t0=0.0,
            events=tuple(single_element_sequence(g)), geometry=g, medium=medium, pulse=pulse,
        )
        _, aperture = das_sa(data, grid, 1.5)
        bm = effective_beam_map(g, grid, 1.5, medium, pulse, model)
        assert bm.shape == (216, 64)
        np.testing.assert_array_equal(bm, aperture.member.sum(axis=2))

    def test_decay_model_lowers_amplitude(self):
        g, medium, pulse, _ = make_scene()
        grid = PixelGrid(origin=(0, 20e-3), dx=1e-4, dz=1e-3, nx=1, nz=1)
        flat = effective_beam_map(g, grid, 1.5, medium, pulse, PressureModel(decay="none"))
        spread = effective_beam_map(
            g, grid, 1.5, medium, pulse, PressureModel(decay="inverse_sqrt", r_min=1e-3)
        )
        assert np.all(spread < flat)


class TestAmplitudeCorrect:
    def test_constant_map_is_global_scale(self, rng):
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=4, nz=16)
        img = envelope(BeamformedImage(grid=grid, values=rng.normal(size=(16, 4))))
        out = amplitude_correct(img, np.full((16, 4), 4.0))
        np.testing.assert_allclose(out.values, img.values / 4.0)

    def test_epsilon_guards_small_divisors(self):
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=2, nz=4)
        values = np.ones((4, 2))
        beam = np.array([[1e-12, 10.0]] * 4)
        img = BeamformedImage(grid=grid, values=values)
        out = amplitude_correct(img, beam, epsilon=0.05)
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values[:, 0], 1.0 / (0.05 * 10.0))

    def test_shape_mismatch_rejected(self, rng):
        grid = PixelGrid(origin=(0, 1e-3), dx=5e-4, dz=5e-4, nx=4, nz=16)
        img = BeamformedImage(grid=grid, values=rng.normal(size=(16, 4)))
        with pytest.raises(GridMismatchError):
            amplitude_correct(img, np.ones((16, 5)))

    def test_equalizes_two_depth_sources(self):
        # Fig-9-style scene: equal sources at 15/35 mm; pre-correction the
        # deep one is ~2x brighter, post-correction within 25%
        g, medium, pulse, model = make_scene()
        from aesynth import default_pixel_grid

        grid = default_pixel_grid(g, medium, pulse, 45e-3)
        s1, x1, z1 = point_field_on_grid(grid, 0.0, 15e-3)
        s2, x2, z2 = point_field_on_grid(grid, 0.0, 35e-3)
        combo = s1.values + s2.values
        from aesynth import SFieldGrid

        s = SFieldGrid(origin=grid.origin, dx=grid.dx, dz=grid.dz, values=combo)
        data = simulate_sa(s, g, medium, pulse, model, 45e-3)
        image, _ = das_sa(data, grid, 1.5)
        image = envelope(image)
        bm = effective_beam_map(g, grid, 1.5, medium, pulse, model)
        corrected = amplitude_correct(image, bm)

        def peak_near(img, x, z):
            iz = int(np.argmin(np.abs(grid.z_coords() - z)))
            ix = int(np.argmin(np.abs(grid.x_coords() - x)))
            return img.envelope[iz - 4 : iz + 5, ix - 4 : ix + 5].max()

        pre_ratio = peak_near(image, x2, z2) / peak_near(image, x1, z1)
        post_ratio = peak_near(corrected, x2, z2) / peak_near(corrected, x1, z1)
        assert pre_ratio >= 1.8
        assert 0.8 <= post_ratio <= 1.25
