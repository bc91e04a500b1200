"""Shared domain types: transducer geometry, medium, pulses, source fields, grids.

All quantities are SI internally (meters, seconds, Hz, Pa, V).  Millimeter
inputs are converted at the scenario/CLI boundary, never here.  Image-shaped
arrays are indexed ``[iz, ix]`` (row = depth sample, column = lateral sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ValidationError

# Lateral / axial pixel pitch as fractions of the wavelength.
LATERAL_SPACING_WAVELENGTHS = 0.43
AXIAL_SPACING_WAVELENGTHS = 0.25


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear transducer array lying on z = 0.

    Parameters
    ----------
    num_elements : int
        Number of elements M.
    pitch : float
        Element center-to-center spacing in meters.
    center_x : float
        Lateral position of the aperture center in meters.
    """

    num_elements: int
    pitch: float
    center_x: float = 0.0

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValidationError("num_elements must be >= 1")
        if not self.pitch > 0:
            raise ValidationError("pitch must be > 0")

    @property
    def aperture_width(self) -> float:
        return self.num_elements * self.pitch

    def element_positions(self) -> np.ndarray:
        """Lateral element positions (M,), symmetric about ``center_x``."""
        idx = np.arange(self.num_elements) - (self.num_elements - 1) / 2
        return self.center_x + idx * self.pitch

    def nearest_element(self, x: float) -> int:
        """Index of the element nearest lateral position ``x`` (ties: lower index)."""
        c = (x - self.center_x) / self.pitch + (self.num_elements - 1) / 2
        k = int(np.ceil(c - 0.5))
        return min(max(k, 0), self.num_elements - 1)


@dataclass(frozen=True)
class Medium:
    """Homogeneous propagation medium.

    ``k_i`` is the fractional resistivity change per unit pressure (1/Pa)
    and ``p0`` the transmit pressure amplitude (Pa).
    """

    sos: float
    k_i: float = 1.0
    p0: float = 1.0

    def __post_init__(self):
        if not self.sos > 0:
            raise ValidationError("sos must be > 0")


@dataclass(frozen=True)
class PulseSpec:
    """Transmit pulse description.

    ``kind`` selects between an idealized single-sample impulse and a
    Hann-windowed sinusoid of ``num_cycles`` cycles.  ``sample_rate`` is the
    simulation/acquisition rate and must oversample the center frequency by
    at least 8x so fractional-sample delays interpolate cleanly.
    """

    center_frequency: float
    num_cycles: float = 1.0
    sample_rate: float = 0.0
    kind: str = "tone"

    def __post_init__(self):
        if not self.center_frequency > 0:
            raise ValidationError("center_frequency must be > 0")
        if self.kind not in ("tone", "impulse"):
            raise ValidationError(f"unknown pulse kind {self.kind!r}")
        if not self.sample_rate >= 8 * self.center_frequency:
            raise ValidationError("sample_rate must be >= 8 x center_frequency")
        if self.length_samples < 1:
            raise ValidationError("pulse must span at least one sample")

    @property
    def length_samples(self) -> int:
        """Number of samples in the rendered waveform (odd for tones)."""
        if self.kind == "impulse":
            return 1
        n = self.num_cycles * self.sample_rate / self.center_frequency
        return 2 * int(np.floor(n / 2)) + 1


@dataclass(frozen=True, eq=False)
class SFieldGrid:
    """Gridded projected-source field s(x, z), the quantity being imaged.

    ``values`` has shape (nz, nx); cell (iz, ix) is centered at
    ``(origin[0] + ix*dx, origin[1] + iz*dz)``.
    """

    origin: tuple[float, float]
    dx: float
    dz: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.dx > 0 and self.dz > 0):
            raise ValidationError("dx and dz must be > 0")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValidationError("values must be a 2D array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def nz(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def cell_area(self) -> float:
        return self.dx * self.dz

    def x_coords(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.nx) * self.dx

    def z_coords(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.nz) * self.dz


@dataclass(frozen=True)
class PixelGrid:
    """Reconstruction pixel grid: origin (x, z), spacings and pixel counts."""

    origin: tuple[float, float]
    dx: float
    dz: float
    nx: int
    nz: int

    def __post_init__(self):
        if not (self.dx > 0 and self.dz > 0):
            raise ValidationError("dx and dz must be > 0")
        if self.nx < 1 or self.nz < 1:
            raise ValidationError("nx and nz must be >= 1")

    def x_coords(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.nx) * self.dx

    def z_coords(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.nz) * self.dz


def wavelength(medium: Medium, pulse: PulseSpec) -> float:
    """Acoustic wavelength c / f_c in meters."""
    return medium.sos / pulse.center_frequency


def compose_s_field(
    lead_field: np.ndarray,
    current_density: np.ndarray,
    resistivity: np.ndarray,
    *,
    origin: tuple[float, float] = (0.0, 0.0),
    dx: float,
    dz: float,
) -> SFieldGrid:
    """Combine lead field, current density and resistivity into an s-field.

    Pointwise ``s = J_lead . (rho * J_current)``: the dot product of the two
    vector fields scaled by the local resistivity.

    Parameters
    ----------
    lead_field, current_density : ndarray, shape (nz, nx, 2)
        Vector fields with (x, z) components in the last axis.
    resistivity : ndarray, shape (nz, nx)
        Scalar resistivity field.
    """
    jl = np.asarray(lead_field, dtype=float)
    ji = np.asarray(current_density, dtype=float)
    rho = np.asarray(resistivity, dtype=float)
    if jl.ndim != 3 or jl.shape[-1] != 2:
        raise GridMismatchError("lead_field must have shape (nz, nx, 2)")
    if ji.shape != jl.shape:
        raise GridMismatchError(
            f"current_density shape {ji.shape} != lead_field shape {jl.shape}"
        )
    if rho.shape != jl.shape[:2]:
        raise GridMismatchError(
            f"resistivity shape {rho.shape} != field grid {jl.shape[:2]}"
        )
    for name, arr in (("lead_field", jl), ("current_density", ji), ("resistivity", rho)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be finite")
    s = np.einsum("ijk,ijk->ij", jl, rho[..., None] * ji)
    return SFieldGrid(origin=origin, dx=dx, dz=dz, values=s)


def default_pixel_grid(
    geometry: ArrayGeometry,
    medium: Medium,
    pulse: PulseSpec,
    max_depth: float,
) -> PixelGrid:
    """Default reconstruction grid for a given array and pulse.

    Lateral spacing is 0.43 wavelengths, axial spacing 0.25 wavelengths.  The
    lateral extent spans the aperture width with pixel column 0 at the left
    aperture edge; depth rows cover (0, max_depth].
    """
    if not max_depth > 0:
        raise ValidationError("max_depth must be > 0")
    lam = wavelength(medium, pulse)
    dx = LATERAL_SPACING_WAVELENGTHS * lam
    dz = AXIAL_SPACING_WAVELENGTHS * lam
    width = geometry.aperture_width
    left = geometry.center_x - width / 2
    nx = int(round(width / dx)) + 1
    # tiny epsilon so an exact multiple of dz is kept (max_depth = dz -> nz = 1)
    nz = max(1, int(np.floor(max_depth / dz * (1 + 1e-12))))
    return PixelGrid(origin=(left, dz), dx=dx, dz=dz, nx=nx, nz=nz)
