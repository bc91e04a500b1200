"""Scenario files: a YAML mapping that fully determines one experiment run.

Lengths in scenario files are millimeters (suffix ``_mm``); everything else
is SI (Hz, s, V, Pa).  Values are kept in file units on the ``Scenario``
dataclasses so a parse -> serialize -> parse round trip is exact; the
``build_*`` helpers convert to SI domain objects.  Unknown or missing fields
raise :class:`ScenarioError` carrying the offending field path.
"""

from __future__ import annotations

import sys
import zipfile
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .acquisition import AcquisitionSpec
from .core import (
    ArrayGeometry,
    Medium,
    PixelGrid,
    PulseSpec,
    SFieldGrid,
    default_pixel_grid,
)
from .errors import ScenarioError
from .forward import PressureModel, focused_sequence, single_element_sequence
from .io import MAX_ELEMENTS
from .metrics import Rect, TargetSpec

MM = 1e-3
WEIGHTINGS = ("none", "cf", "cfpl")

# declared field type (a string: annotations are deferred in this module)
# -> the Python types accepted for it and their name in errors
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "a boolean"),
}


def _mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioError(path, "expected a mapping")
    return dict(node)


def _finite(v) -> bool:
    # nan, +-inf and ints past the float range all fail the comparison
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _field(d: dict, cls, name: str, path: str):
    """Pop field ``name`` of dataclass ``cls`` from ``d``, checked against
    its declared type and defaulted as declared; ``X | None`` accepts null."""
    f = cls.__dataclass_fields__[name]
    kind, _, optional = f.type.partition(" | ")
    full = f"{path}.{name}"
    if name not in d:
        if f.default is MISSING:
            raise ScenarioError(full, "required field is missing")
        return f.default
    v = d.pop(name)
    if v is None and optional == "None":
        return None
    types, noun = _KINDS[kind]
    if not isinstance(v, types) or (isinstance(v, bool) and kind != "bool"):
        raise ScenarioError(full, f"expected {noun}, got {v!r}")
    if kind != "float":
        return v
    if not _finite(v):
        raise ScenarioError(full, f"expected a finite number, got {v!r}")
    return float(v)


def _section(node, cls, path: str, **given):
    """Read mapping ``node`` into dataclass ``cls``: fields in ``given`` are
    already read, the rest go through :func:`_field` in declared order."""
    d = _mapping(node, path)
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = _field(d, cls, f.name, path)
    _no_extras(d, path)
    return cls(**given)


def _items(doc: dict, key: str, path: str) -> list:
    nodes = doc.pop(key, [])
    if not isinstance(nodes, list):
        raise ScenarioError(f"{path}.{key}", "expected a list")
    return nodes


def _no_extras(d: dict, path: str) -> None:
    if d:
        raise ScenarioError(path, f"unknown field(s): {', '.join(sorted(map(str, d)))}")


def _roi(node, path: str) -> tuple[float, float, float, float]:
    if not isinstance(node, (list, tuple)) or len(node) != 4 or not all(map(_finite, node)):
        raise ScenarioError(path, "expected [x0, x1, z0, z1] in mm")
    return tuple(float(v) for v in node)


@dataclass(frozen=True)
class GeometryScenario:
    num_elements: int = 64
    pitch_mm: float = 0.315
    center_x_mm: float = 0.0


@dataclass(frozen=True)
class MediumScenario:
    sos: float = 1480.0
    k_i: float = 1.0
    p0: float = 1.0


@dataclass(frozen=True)
class PulseScenario:
    center_frequency: float = 2.0e6
    num_cycles: float = 1.0
    sample_rate: float = 16.0e6
    kind: str = "tone"


@dataclass(frozen=True)
class PressureScenario:
    decay: str = "none"
    r_min_mm: float = 0.1
    directivity: str = "omni"


@dataclass(frozen=True)
class AcquisitionScenario:
    averages: int = 1
    noise_power: float = 0.0
    common_mode_amplitude: float = 0.0
    rf_gain: float = 1.0


@dataclass(frozen=True)
class SimulationScenario:
    # None -> physical constant k_i * p0 * cell_area; a number folds all of
    # that (including the cell area) into one normalization constant.
    amplitude_scale: float | None = 1.0


@dataclass(frozen=True)
class SourceScenario:
    kind: str
    x_mm: float = 0.0
    z_mm: float = 0.0
    amplitude: float = 1.0
    radius_mm: float | None = None
    path: str | None = None


@dataclass(frozen=True)
class TransmitScenario:
    scheme: str = "sa"
    focal_depth_mm: float = 22.0
    line_centers: str | tuple[float, ...] = "elements"


@dataclass(frozen=True)
class GridScenario:
    x0_mm: float
    z0_mm: float
    dx_mm: float
    dz_mm: float
    nx: int
    nz: int


@dataclass(frozen=True)
class ReconstructionScenario:
    f_number: float = 1.5
    max_depth_mm: float = 50.0
    weighting: str = "none"
    amplitude_correct: bool = False
    cfpl_centered: bool = False
    grid: GridScenario | None = None


@dataclass(frozen=True)
class TargetScenario:
    label: str
    x_mm: float
    z_mm: float
    signal_roi_mm: tuple[float, float, float, float]
    noise_roi_mm: tuple[float, float, float, float]
    group: str | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    description: str = ""
    geometry: GeometryScenario = GeometryScenario()
    medium: MediumScenario = MediumScenario()
    pulse: PulseScenario = PulseScenario()
    pressure_model: PressureScenario = PressureScenario()
    acquisition: AcquisitionScenario = AcquisitionScenario()
    simulation: SimulationScenario = SimulationScenario()
    sources: tuple[SourceScenario, ...] = ()
    transmit: TransmitScenario = TransmitScenario()
    reconstruction: ReconstructionScenario = ReconstructionScenario()
    targets: tuple[TargetScenario, ...] = ()


def scenario_from_dict(doc: dict, path: str = "scenario") -> Scenario:
    doc = _mapping(doc, path)
    name = _field(doc, Scenario, "name", path)
    seed = _field(doc, Scenario, "seed", path)
    if seed < 0:
        raise ScenarioError(f"{path}.seed", "must be >= 0")
    description = _field(doc, Scenario, "description", path)

    gpath = f"{path}.geometry"
    geometry = _section(doc.pop("geometry", None), GeometryScenario, gpath)
    if not 1 <= geometry.num_elements <= MAX_ELEMENTS:
        raise ScenarioError(f"{gpath}.num_elements", f"must be in [1, {MAX_ELEMENTS}]")
    if geometry.pitch_mm <= 0:
        raise ScenarioError(f"{gpath}.pitch_mm", "must be > 0")

    medium = _section(doc.pop("medium", None), MediumScenario, f"{path}.medium")
    if medium.sos <= 0:
        raise ScenarioError(f"{path}.medium.sos", "must be > 0")

    pulse = _section(doc.pop("pulse", None), PulseScenario, f"{path}.pulse")
    if pulse.kind not in ("tone", "impulse"):
        raise ScenarioError(f"{path}.pulse.kind", "must be 'tone' or 'impulse'")
    if pulse.sample_rate < 8 * pulse.center_frequency:
        raise ScenarioError(f"{path}.pulse.sample_rate", "must be >= 8 x center_frequency")

    ppath = f"{path}.pressure_model"
    pressure_model = _section(doc.pop("pressure_model", None), PressureScenario, ppath)
    if pressure_model.decay not in ("none", "inverse_sqrt", "inverse"):
        raise ScenarioError(f"{ppath}.decay", "unknown decay mode")
    if pressure_model.directivity not in ("omni", "cosine"):
        raise ScenarioError(f"{ppath}.directivity", "unknown directivity")
    if pressure_model.r_min_mm <= 0:
        raise ScenarioError(f"{ppath}.r_min_mm", "must be > 0")

    apath = f"{path}.acquisition"
    acquisition = _section(doc.pop("acquisition", None), AcquisitionScenario, apath)
    if acquisition.averages < 1:
        raise ScenarioError(f"{apath}.averages", "must be >= 1")
    if acquisition.noise_power < 0:
        raise ScenarioError(f"{apath}.noise_power", "must be >= 0")

    simulation = _section(doc.pop("simulation", None), SimulationScenario, f"{path}.simulation")

    sources = []
    for i, node in enumerate(_items(doc, "sources", path)):
        spath = f"{path}.sources[{i}]"
        s = _mapping(node, spath)
        kind = _field(s, SourceScenario, "kind", spath)
        if kind not in ("point", "disc", "file"):
            raise ScenarioError(f"{spath}.kind", "must be point, disc or file")
        src = _section(s, SourceScenario, spath, kind=kind)
        if kind == "disc" and (src.radius_mm is None or src.radius_mm <= 0):
            raise ScenarioError(f"{spath}.radius_mm", "disc sources need a radius > 0")
        if kind == "file" and not src.path:
            raise ScenarioError(f"{spath}.path", "file sources need a path")
        sources.append(src)

    tpath = f"{path}.transmit"
    t = _mapping(doc.pop("transmit", None), tpath)
    scheme = _field(t, TransmitScenario, "scheme", tpath)
    if scheme not in ("sa", "fus"):
        raise ScenarioError(f"{tpath}.scheme", "must be 'sa' or 'fus'")
    lc = t.pop("line_centers", TransmitScenario.line_centers)
    if isinstance(lc, list) and all(map(_finite, lc)):
        lc = tuple(float(v) for v in lc)
    elif not isinstance(lc, str) or lc != "elements":
        raise ScenarioError(f"{tpath}.line_centers", "must be 'elements' or a list of mm")
    transmit = _section(t, TransmitScenario, tpath, scheme=scheme, line_centers=lc)
    if transmit.focal_depth_mm <= 0:
        raise ScenarioError(f"{tpath}.focal_depth_mm", "must be > 0")

    rpath = f"{path}.reconstruction"
    r = _mapping(doc.pop("reconstruction", None), rpath)
    grid = r.pop("grid", None)
    if grid is not None:
        grid = _section(grid, GridScenario, f"{rpath}.grid")
    reconstruction = _section(r, ReconstructionScenario, rpath, grid=grid)
    if reconstruction.weighting not in WEIGHTINGS:
        raise ScenarioError(f"{rpath}.weighting", f"must be one of {WEIGHTINGS}")
    if reconstruction.f_number <= 0:
        raise ScenarioError(f"{rpath}.f_number", "must be > 0")
    if reconstruction.max_depth_mm <= 0:
        raise ScenarioError(f"{rpath}.max_depth_mm", "must be > 0")

    targets = []
    for i, node in enumerate(_items(doc, "targets", path)):
        tpath = f"{path}.targets[{i}]"
        td = _mapping(node, tpath)
        # group first, ROIs last: with several faults, the one named first stays put
        read = {k: _field(td, TargetScenario, k, tpath) for k in ("group", "label", "x_mm", "z_mm")}
        for k in ("signal_roi_mm", "noise_roi_mm"):
            read[k] = _roi(td.pop(k, None), f"{tpath}.{k}")
        targets.append(_section(td, TargetScenario, tpath, **read))

    _no_extras(doc, path)
    return Scenario(
        name=name,
        seed=seed,
        description=description,
        geometry=geometry,
        medium=medium,
        pulse=pulse,
        pressure_model=pressure_model,
        acquisition=acquisition,
        simulation=simulation,
        sources=tuple(sources),
        transmit=transmit,
        reconstruction=reconstruction,
        targets=tuple(targets),
    )


def scenario_to_dict(s: Scenario) -> dict:
    doc = asdict(s)
    doc["sources"] = [
        {k: v for k, v in src.items() if v is not None} for src in doc["sources"]
    ]
    doc["targets"] = [
        {k: v for k, v in t.items() if v is not None} for t in doc["targets"]
    ]
    for t in doc["targets"]:
        t["signal_roi_mm"] = list(t["signal_roi_mm"])
        t["noise_roi_mm"] = list(t["noise_roi_mm"])
    lc = doc["transmit"]["line_centers"]
    if not isinstance(lc, str):
        doc["transmit"]["line_centers"] = list(lc)
    if doc["reconstruction"]["grid"] is None:
        del doc["reconstruction"]["grid"]
    if not doc["description"]:
        del doc["description"]
    return doc


# libyaml's loader when PyYAML was built with it; both resolve the same tags
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(text: str, where: str) -> Scenario:
    """Parse a scenario from YAML text; errors name ``where`` (a file path)."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(where, f"not valid YAML: {exc}") from exc
    if doc is None:
        raise ScenarioError(where, "scenario file is empty")
    return scenario_from_dict(doc)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(path), f"not UTF-8 text: {exc}") from exc
    return parse_scenario(text, str(path))


def save_scenario(path, s: Scenario) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(s), sort_keys=False))


# ---------------------------------------------------------------------------
# SI builders


def build_geometry(s: Scenario) -> ArrayGeometry:
    g = s.geometry
    return ArrayGeometry(
        num_elements=g.num_elements,
        pitch=g.pitch_mm * MM,
        center_x=g.center_x_mm * MM,
    )


def build_medium(s: Scenario) -> Medium:
    return Medium(sos=s.medium.sos, k_i=s.medium.k_i, p0=s.medium.p0)


def build_pulse(s: Scenario) -> PulseSpec:
    p = s.pulse
    return PulseSpec(
        center_frequency=p.center_frequency,
        num_cycles=p.num_cycles,
        sample_rate=p.sample_rate,
        kind=p.kind,
    )


def build_pressure_model(s: Scenario) -> PressureModel:
    pm = s.pressure_model
    return PressureModel(
        decay=pm.decay, r_min=pm.r_min_mm * MM, directivity=pm.directivity
    )


def build_acquisition(s: Scenario, no_noise: bool = False) -> AcquisitionSpec:
    a = s.acquisition
    return AcquisitionSpec(
        k=a.averages,
        noise_power=0.0 if no_noise else a.noise_power,
        common_mode_amplitude=a.common_mode_amplitude,
        rf_gain=a.rf_gain,
    )


def build_pixel_grid(s: Scenario) -> PixelGrid:
    r = s.reconstruction
    if r.grid is not None:
        g = r.grid
        return PixelGrid(
            origin=(g.x0_mm * MM, g.z0_mm * MM),
            dx=g.dx_mm * MM,
            dz=g.dz_mm * MM,
            nx=g.nx,
            nz=g.nz,
        )
    return default_pixel_grid(
        build_geometry(s), build_medium(s), build_pulse(s), r.max_depth_mm * MM
    )


def build_s_field(s: Scenario, base_dir=None) -> SFieldGrid:
    """Rasterize the scenario's sources onto the reconstruction grid.

    Point sources add their amplitude to the nearest cell; discs add it to
    every cell whose center lies inside the circle.  A ``file`` source loads
    a complete field from an ``.npz`` archive (keys ``values``, ``origin_x``,
    ``origin_z``, ``dx``, ``dz``; SI units) and must be the only source.
    """
    files = [src for src in s.sources if src.kind == "file"]
    if files:
        if len(s.sources) != 1:
            raise ScenarioError(
                "scenario.sources", "a file source cannot be combined with others"
            )
        p = Path(files[0].path)
        if base_dir is not None and not p.is_absolute():
            p = Path(base_dir) / p
        where = "scenario.sources[0].path"
        keys = ("origin_x", "origin_z", "dx", "dz", "values")
        try:
            # a plain .npy loads as an array, which is no context manager (TypeError)
            with np.load(p, allow_pickle=False) as npz:
                fields = {key: npz[key] for key in keys if key in npz.files}
        except (OSError, ValueError, TypeError, zipfile.BadZipFile) as exc:
            raise ScenarioError(where, f"cannot read {p} as an .npz archive: {exc}") from exc
        missing = [key for key in keys if key not in fields]
        if missing:
            raise ScenarioError(where, f"{p} has no key {', '.join(missing)}")
        for key in keys:
            scalar = key != "values"
            try:
                fields[key] = float(fields[key]) if scalar else np.asarray(fields[key], dtype=float)
            except (TypeError, ValueError) as exc:
                kind = "a numeric scalar" if scalar else "a numeric array"
                raise ScenarioError(where, f"{p}: {key} must be {kind} ({exc})") from exc
        origin = (fields["origin_x"], fields["origin_z"])
        return SFieldGrid(origin, fields["dx"], fields["dz"], fields["values"])

    grid = build_pixel_grid(s)
    values = np.zeros((grid.nz, grid.nx))
    xs = grid.x_coords()
    zs = grid.z_coords()
    for i, src in enumerate(s.sources):
        x = src.x_mm * MM
        z = src.z_mm * MM
        if src.kind == "point":
            ix = int(np.floor((x - grid.origin[0]) / grid.dx + 0.5))
            iz = int(np.floor((z - grid.origin[1]) / grid.dz + 0.5))
            if not (0 <= ix < grid.nx and 0 <= iz < grid.nz):
                raise ScenarioError(
                    f"scenario.sources[{i}]", "point source lies outside the grid"
                )
            values[iz, ix] += src.amplitude
        else:
            r = src.radius_mm * MM
            mask = (xs[None, :] - x) ** 2 + (zs[:, None] - z) ** 2 <= r * r
            if not mask.any():
                raise ScenarioError(
                    f"scenario.sources[{i}]", "disc covers no grid cells"
                )
            values[mask] += src.amplitude
    return SFieldGrid(origin=grid.origin, dx=grid.dx, dz=grid.dz, values=values)


def build_events(s: Scenario):
    geometry = build_geometry(s)
    if s.transmit.scheme == "sa":
        return single_element_sequence(geometry)
    if s.transmit.line_centers == "elements":
        centers = geometry.element_positions()
    else:
        centers = np.asarray(s.transmit.line_centers, dtype=float) * MM
        # fus_line_map images a line at its nearest (most-delayed) element, in
        # the grid column nearest that element: both must lie on the grid
        line_x = geometry.element_positions()[[geometry.nearest_element(x) for x in centers]]
        grid = build_pixel_grid(s)
        col = np.ceil((np.concatenate([centers, line_x]) - grid.origin[0]) / grid.dx - 0.5)
        if np.any((col < 0) | (col >= grid.nx)):
            x0, x1 = grid.x_coords()[[0, -1]] / MM
            raise ScenarioError(
                "scenario.transmit.line_centers",
                f"a center or its nearest element lies off the grid's x-range {x0:g} to {x1:g} mm",
            )
    return focused_sequence(
        geometry, build_medium(s), s.transmit.focal_depth_mm * MM, centers
    )


def build_targets(s: Scenario) -> list[TargetSpec]:
    out = []
    for t in s.targets:
        sig = Rect(
            t.signal_roi_mm[0] * MM,
            t.signal_roi_mm[1] * MM,
            t.signal_roi_mm[2] * MM,
            t.signal_roi_mm[3] * MM,
        )
        noi = Rect(
            t.noise_roi_mm[0] * MM,
            t.noise_roi_mm[1] * MM,
            t.noise_roi_mm[2] * MM,
            t.noise_roi_mm[3] * MM,
        )
        out.append(
            TargetSpec(
                position=(t.x_mm * MM, t.z_mm * MM),
                signal_roi=sig,
                noise_roi=noi,
                label=t.label,
                group=t.group,
            )
        )
    return out


def shift_depth(s: Scenario, dz_mm: float, rename: bool = True) -> Scenario:
    """Scenario with sources, targets and signal ROIs moved deeper by ``dz_mm``.

    Noise ROIs stay put (they describe source-free background).  File-backed
    s-fields cannot be shifted.
    """
    if any(src.kind == "file" for src in s.sources):
        raise ScenarioError("scenario.sources", "cannot depth-shift a file s-field")
    sources = tuple(replace(src, z_mm=src.z_mm + dz_mm) for src in s.sources)
    targets = tuple(
        replace(
            t,
            z_mm=t.z_mm + dz_mm,
            signal_roi_mm=(
                t.signal_roi_mm[0],
                t.signal_roi_mm[1],
                t.signal_roi_mm[2] + dz_mm,
                t.signal_roi_mm[3] + dz_mm,
            ),
        )
        for t in s.targets
    )
    name = f"{s.name}+{dz_mm:g}mm" if rename and dz_mm else s.name
    return replace(s, name=name, sources=sources, targets=targets)
