import numpy as np
import pytest
from hypothesis import given, strategies as st

from aesynth import (
    ArrayGeometry,
    Medium,
    PixelGrid,
    PulseSpec,
    compose_s_field,
    default_pixel_grid,
    wavelength,
)
from aesynth.errors import GridMismatchError, ValidationError


class TestArrayGeometry:
    def test_positions_symmetric_explicit(self):
        g = ArrayGeometry(num_elements=4, pitch=1e-3, center_x=2e-3)
        np.testing.assert_allclose(
            g.element_positions(), [0.5e-3, 1.5e-3, 2.5e-3, 3.5e-3]
        )

    @given(
        m=st.integers(1, 128),
        pitch=st.floats(1e-5, 1e-2),
        center=st.floats(-1e-2, 1e-2),
    )
    def test_positions_symmetric_about_center(self, m, pitch, center):
        g = ArrayGeometry(num_elements=m, pitch=pitch, center_x=center)
        pos = g.element_positions()
        np.testing.assert_allclose(pos + pos[::-1], 2 * center, atol=1e-12)

    def test_aperture_width(self):
        g = ArrayGeometry(num_elements=64, pitch=0.315e-3)
        assert g.aperture_width == pytest.approx(20.16e-3)

    def test_nearest_element_tie_prefers_lower_index(self):
        g = ArrayGeometry(num_elements=4, pitch=1e-3)
        # midway between elements 1 and 2
        assert g.nearest_element(0.0) == 1

    def test_invalid_pitch(self):
        with pytest.raises(ValidationError):
            ArrayGeometry(num_elements=4, pitch=0.0)


class TestWavelength:
    def test_p42_like(self):
        m = Medium(sos=1480.0)
        p = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        assert wavelength(m, p) == pytest.approx(0.74e-3)

    def test_unit(self):
        assert wavelength(Medium(sos=1.0), PulseSpec(center_frequency=1.0, sample_rate=8.0)) == 1.0

    def test_hand_value(self):
        m = Medium(sos=1540.0)
        p = PulseSpec(center_frequency=5e6, sample_rate=40e6)
        assert wavelength(m, p) == pytest.approx(0.308e-3)


class TestDefaultPixelGrid:
    def test_p42_like_grid(self):
        g = ArrayGeometry(num_elements=64, pitch=0.315e-3)
        m = Medium(sos=1480.0)
        p = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        grid = default_pixel_grid(g, m, p, 50e-3)
        assert grid.dx == pytest.approx(0.43 * 0.74e-3)
        assert grid.dz == pytest.approx(0.25 * 0.74e-3)
        assert (grid.nx, grid.nz) == (64, 270)
        # column 0 at the left aperture edge
        assert grid.origin[0] == pytest.approx(-20.16e-3 / 2)
        # lateral span equals the aperture width to within one dx
        assert abs((grid.nx - 1) * grid.dx - 20.16e-3) <= grid.dx

    def test_minimal_depth_single_row(self):
        g = ArrayGeometry(num_elements=8, pitch=0.315e-3)
        m = Medium(sos=1480.0)
        p = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        dz = 0.25 * wavelength(m, p)
        grid = default_pixel_grid(g, m, p, dz)
        assert grid.nz == 1
        assert grid.origin[1] == pytest.approx(dz)

    def test_two_element_span(self):
        g = ArrayGeometry(num_elements=2, pitch=1e-3)
        m = Medium(sos=1480.0)
        p = PulseSpec(center_frequency=2e6, sample_rate=16e6)
        grid = default_pixel_grid(g, m, p, 10e-3)
        assert abs((grid.nx - 1) * grid.dx - 2e-3) <= grid.dx

    def test_rejects_bad_depth(self):
        g = ArrayGeometry(num_elements=2, pitch=1e-3)
        with pytest.raises(ValidationError):
            default_pixel_grid(
                g, Medium(sos=1480.0), PulseSpec(center_frequency=2e6, sample_rate=16e6), 0.0
            )


class TestComposeSField:
    def _fields(self, nz=3, nx=4):
        jl = np.zeros((nz, nx, 2))
        ji = np.zeros((nz, nx, 2))
        rho = np.ones((nz, nx))
        return jl, ji, rho

    def test_parallel_unit_vectors(self):
        jl, ji, rho = self._fields()
        jl[..., 0] = 1.0
        ji[..., 0] = 1.0
        s = compose_s_field(jl, ji, 2 * rho, dx=1e-3, dz=1e-3)
        np.testing.assert_array_equal(s.values, 2.0)

    def test_orthogonal_fields(self):
        jl, ji, rho = self._fields()
        jl[..., 0] = 1.0
        ji[..., 1] = 1.0
        s = compose_s_field(jl, ji, 7.5 * rho, dx=1e-3, dz=1e-3)
        np.testing.assert_array_equal(s.values, 0.0)

    def test_hand_dot_product(self):
        jl, ji, rho = self._fields()
        jl[..., 0] = 0.5
        jl[..., 1] = 0.5
        ji[..., 0] = 2.0
        s = compose_s_field(jl, ji, rho, dx=1e-3, dz=1e-3)
        np.testing.assert_allclose(s.values, 1.0)

    @given(alpha=st.floats(-10, 10))
    def test_linear_in_each_input(self, alpha):
        rng = np.random.default_rng(7)
        jl = rng.normal(size=(2, 3, 2))
        ji = rng.normal(size=(2, 3, 2))
        rho = rng.uniform(0.5, 2.0, size=(2, 3))
        base = compose_s_field(jl, ji, rho, dx=1e-3, dz=1e-3).values
        for scaled in (
            compose_s_field(alpha * jl, ji, rho, dx=1e-3, dz=1e-3).values,
            compose_s_field(jl, alpha * ji, rho, dx=1e-3, dz=1e-3).values,
            compose_s_field(jl, ji, alpha * rho, dx=1e-3, dz=1e-3).values,
        ):
            np.testing.assert_allclose(scaled, alpha * base, atol=1e-9)

    def test_grid_mismatch(self):
        jl, ji, rho = self._fields()
        with pytest.raises(GridMismatchError):
            compose_s_field(jl, ji[:, :2], rho, dx=1e-3, dz=1e-3)
        with pytest.raises(GridMismatchError):
            compose_s_field(jl, ji, rho[:2], dx=1e-3, dz=1e-3)


class TestValidation:
    def test_pulse_needs_oversampling(self):
        with pytest.raises(ValidationError):
            PulseSpec(center_frequency=2e6, sample_rate=4e6)

    def test_pixel_grid_bounds(self):
        with pytest.raises(ValidationError):
            PixelGrid(origin=(0, 0), dx=1e-3, dz=1e-3, nx=0, nz=1)
