import copy
import math
import typing
from dataclasses import MISSING, fields, is_dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from aesynth.errors import ScenarioError
from aesynth.scenario import (
    AcquisitionScenario,
    GeometryScenario,
    MediumScenario,
    PressureScenario,
    PulseScenario,
    ReconstructionScenario,
    Scenario,
    SimulationScenario,
    TransmitScenario,
    build_acquisition,
    build_events,
    build_geometry,
    build_medium,
    build_pixel_grid,
    build_pressure_model,
    build_pulse,
    build_s_field,
    build_targets,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    shift_depth,
)
from aesynth.suite import bundled_scenario

MINIMAL = {"name": "t", "seed": 3}
BUNDLED = ["saline_points", "nerve_disc", "depth_pair", "sham"]

FULL = {
    "name": "full",
    "seed": 11,
    "description": "two points",
    "geometry": {"num_elements": 32, "pitch_mm": 0.5, "center_x_mm": 1.0},
    "medium": {"sos": 1500.0, "k_i": 2.0, "p0": 3.0},
    "pulse": {"center_frequency": 3.0e6, "num_cycles": 2, "sample_rate": 32.0e6, "kind": "tone"},
    "pressure_model": {"decay": "inverse_sqrt", "r_min_mm": 0.2, "directivity": "cosine"},
    "acquisition": {"averages": 8, "noise_power": 0.5, "common_mode_amplitude": 0.1, "rf_gain": 2.0},
    "simulation": {"amplitude_scale": 1.0},
    "sources": [
        {"kind": "point", "x_mm": -2.0, "z_mm": 12.0, "amplitude": 1.0},
        {"kind": "disc", "x_mm": 2.0, "z_mm": 20.0, "radius_mm": 1.0, "amplitude": 0.5},
    ],
    "transmit": {"scheme": "fus", "focal_depth_mm": 18.0, "line_centers": "elements"},
    "reconstruction": {
        "f_number": 2.0, "max_depth_mm": 30.0, "weighting": "cf",
        "amplitude_correct": True, "cfpl_centered": True,
    },
    "targets": [
        {
            "label": "a", "group": "on_focus", "x_mm": -2.0, "z_mm": 12.0,
            "signal_roi_mm": [-3.0, -1.0, 11.0, 13.0],
            "noise_roi_mm": [3.0, 6.0, 24.0, 28.0],
        }
    ],
}


class TestParsing:
    def test_minimal_gets_defaults(self):
        s = scenario_from_dict(dict(MINIMAL))
        assert s.geometry.num_elements == 64
        assert s.pulse.center_frequency == 2.0e6
        assert s.reconstruction.f_number == 1.5
        assert s.transmit.scheme == "sa"
        assert s.sources == () and s.targets == ()

    def test_full_round_trip_identity(self):
        s1 = scenario_from_dict(dict(FULL))
        s2 = scenario_from_dict(scenario_to_dict(s1))
        assert s1 == s2

    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(FULL))
        s1 = load_scenario(path)
        out = tmp_path / "s2.yaml"
        save_scenario(out, s1)
        assert load_scenario(out) == s1

    def test_missing_required_field_names_path(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"name": "x"})
        assert "scenario.seed" in str(err.value)

    def test_unknown_key_rejected_with_path(self):
        doc = dict(MINIMAL)
        doc["geometry"] = {"num_elements": 4, "pich_mm": 1.0}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert "pich_mm" in str(err.value)

    def test_wrong_type_reports_path(self):
        doc = dict(MINIMAL)
        doc["pulse"] = {"sample_rate": "fast"}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert "scenario.pulse.sample_rate" in str(err.value)

    def test_bad_roi_shape(self):
        doc = dict(MINIMAL)
        doc["targets"] = [
            {"label": "a", "x_mm": 0.0, "z_mm": 10.0,
             "signal_roi_mm": [0, 1, 2], "noise_roi_mm": [0, 1, 2, 3]}
        ]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert "signal_roi_mm" in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("pitch_mm", float("inf")),
        ("pitch_mm", float("-inf")),
        ("center_x_mm", float("nan")),
        ("center_x_mm", 10**400),
    ], ids=["pitch_inf", "pitch_neg_inf", "center_nan", "center_huge_int"])
    def test_nonfinite_number_rejected(self, field, value):
        doc = dict(MINIMAL, geometry={field: value})
        with pytest.raises(ScenarioError, match=f"geometry.{field}"):
            scenario_from_dict(doc)

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="scenario.seed"):
            scenario_from_dict(dict(MINIMAL, seed=-1))

    def test_element_count_beyond_channel_file_limit_rejected(self):
        # parse time only: nothing of size M is built
        assert scenario_from_dict(dict(MINIMAL, geometry={"num_elements": 65535}))
        with pytest.raises(ScenarioError, match="geometry.num_elements"):
            scenario_from_dict(dict(MINIMAL, geometry={"num_elements": 65536}))

    def test_averages_beyond_exact_float_rejected(self):
        assert scenario_from_dict(dict(MINIMAL, acquisition={"averages": 2**53}))
        with pytest.raises(ScenarioError, match="scenario.acquisition.averages"):
            scenario_from_dict(dict(MINIMAL, acquisition={"averages": 2**53 + 1}))

    def test_undersampled_pulse_rejected(self):
        doc = dict(MINIMAL)
        doc["pulse"] = {"center_frequency": 2.0e6, "sample_rate": 8.0e6}
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("where, value", [
        ("signal_roi_mm", [0.0, 1.0, float("nan"), 3.0]),
        ("noise_roi_mm", [0.0, 10**400, 2.0, 3.0]),
        ("line_centers", [0.0, float("inf")]),
        ("line_centers", [-(10**400)]),
    ], ids=["roi_nan", "roi_huge_int", "centers_inf", "centers_huge_int"])
    def test_nonfinite_list_number_rejected(self, where, value):
        doc = copy.deepcopy(FULL)
        node = doc["transmit"] if where == "line_centers" else doc["targets"][0]
        node[where] = value
        with pytest.raises(ScenarioError, match=where):
            scenario_from_dict(doc)

    def test_unknown_non_string_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown field.*1, bogus"):
            scenario_from_dict(dict(MINIMAL, geometry={1: 2.0, "bogus": 3}))

    def test_null_accepted_where_the_default_is_null(self):
        doc = dict(MINIMAL, sources=[
            {"kind": "point", "z_mm": 20.0, "radius_mm": None, "path": None},
            {"kind": "disc", "z_mm": 30.0, "radius_mm": 1.0, "path": None},
        ], simulation={"amplitude_scale": None})
        doc["reconstruction"] = {"grid": None}
        doc["targets"] = [dict(FULL["targets"][0], group=None)]
        s = scenario_from_dict(doc)
        assert s.sources[0].radius_mm is None and s.sources[1].path is None
        assert s.simulation.amplitude_scale is None and s.reconstruction.grid is None
        assert s.targets[0].group is None
        assert scenario_from_dict(scenario_to_dict(s)) == s

    @pytest.mark.parametrize("kind, field", [("disc", "radius_mm"), ("file", "path")])
    def test_null_rejected_where_the_source_needs_it(self, kind, field):
        doc = dict(MINIMAL, sources=[{"kind": kind, field: None}])
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert info.value.path == f"scenario.sources[0].{field}"


# Every section of the schema as (path, dataclass), found from the declared
# field types, so a section or field added later is covered here unasked.
def _sections(cls, where):
    out = [(where, cls)]
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        t = hints[f.name]
        sub = next((a for a in (t, *typing.get_args(t)) if is_dataclass(a)), None)
        if sub is not None:
            index = "[0]" if typing.get_origin(t) is tuple else ""
            out += _sections(sub, f"{where}.{f.name}{index}")
    return out


SECTIONS = _sections(Scenario, "scenario")
FIELDS = [(where, f, typing.get_type_hints(cls)[f.name]) for where, cls in SECTIONS for f in fields(cls)]
REQUIRED = [(w, f) for w, f, _ in FIELDS if f.default is MISSING and f.default_factory is MISSING]
# values of the wrong type for a declared scalar type; anything else is given a string
WRONG = {str: [5], int: ["x", True, 1.5], float: ["x", True], bool: ["x", 1]}
WRONG_TYPED = [
    (where, f, value)
    for where, f, hint in FIELDS
    for value in next((WRONG[a] for a in (hint, *typing.get_args(hint)) if a in WRONG), ["x"])
]
GRID = {"x0_mm": -1.0, "z0_mm": 2.0, "dx_mm": 0.5, "dz_mm": 0.25, "nx": 5, "nz": 9}
SCHEMA_DOC = dict(FULL, reconstruction=dict(FULL["reconstruction"], grid=GRID))


def _node(doc, where):
    for part in where.split(".")[1:]:
        key, _, index = part.partition("[")
        doc = doc[key] if not index else doc[key][int(index[:-1])]
    return doc


class TestSchemaFields:
    @pytest.mark.parametrize(
        "where, f, value", WRONG_TYPED, ids=[f"{w}.{f.name}={v!r}" for w, f, v in WRONG_TYPED]
    )
    def test_wrong_type_names_the_field(self, where, f, value):
        doc = copy.deepcopy(SCHEMA_DOC)
        _node(doc, where)[f.name] = value
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert info.value.path == f"{where}.{f.name}"

    @pytest.mark.parametrize("where, f", REQUIRED, ids=[f"{w}.{f.name}" for w, f in REQUIRED])
    def test_missing_required_field_is_named(self, where, f):
        doc = copy.deepcopy(SCHEMA_DOC)
        del _node(doc, where)[f.name]
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert info.value.path == f"{where}.{f.name}"


def test_readme_schema_block_parses_to_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("The schema, with defaults:", 1)[1].split("```yaml\n", 1)[1]
    s = parse_scenario(block.split("```", 1)[0], "README.md")
    assert s.geometry == GeometryScenario()
    assert s.medium == MediumScenario()
    assert s.pulse == PulseScenario()
    assert s.pressure_model == PressureScenario()
    assert s.acquisition == AcquisitionScenario()
    assert s.simulation == SimulationScenario()
    assert s.transmit == TransmitScenario()
    assert s.reconstruction == ReconstructionScenario()


BUNDLED_DOCS = [
    yaml.safe_load((resources.files("aesynth") / "scenarios" / f"{n}.yaml").read_text())
    for n in BUNDLED
]
BAD_VALUES = st.sampled_from([
    None, "x", True, [], {}, 0, 0.0, -1, -2.5, math.nan, math.inf, -math.inf,
    10**400, -(10**400), 1e308, 2**63, [0.0, 1.0, 2.0, 3.0], [math.nan],
]) | st.floats() | st.integers()
KEYS = st.sampled_from([
    "bogus", 1, "description", "group", "radius_mm", "path", "grid", "line_centers",
]) | st.text(max_size=4)


def _paths(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_bundled_scenario_parses_or_raises_scenario_error(data):
    # parse only: nothing of size M is built
    doc = copy.deepcopy(data.draw(st.sampled_from(BUNDLED_DOCS)))
    for _ in range(data.draw(st.integers(1, 4))):
        nodes = list(_paths(doc))
        path, node = data.draw(st.sampled_from(nodes))
        op = data.draw(st.sampled_from(["set", "delete", "add"]))
        value = copy.deepcopy(data.draw(BAD_VALUES))  # later steps may edit it in place
        if op == "add" and isinstance(node, dict):
            node[data.draw(KEYS)] = value
        elif path:
            parent = dict(nodes)[path[:-1]]
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
    try:
        s = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert scenario_from_dict(scenario_to_dict(s)) == s
    assert parse_scenario(yaml.safe_dump(scenario_to_dict(s)), "s.yaml") == s


class TestBuilders:
    def test_units_converted_to_si(self):
        s = scenario_from_dict(dict(FULL))
        g = build_geometry(s)
        assert g.pitch == pytest.approx(0.5e-3)
        assert g.center_x == pytest.approx(1.0e-3)
        model = build_pressure_model(s)
        assert model.r_min == pytest.approx(0.2e-3)
        medium = build_medium(s)
        assert medium.sos == 1500.0
        acq = build_acquisition(s)
        assert acq.k == 8 and acq.rf_gain == 2.0 and acq.noise_power == 0.5
        assert build_pulse(s).length_samples >= 1

    def test_no_noise_override(self):
        s = scenario_from_dict(dict(FULL))
        assert build_acquisition(s, no_noise=True).noise_power == 0.0

    def test_default_grid_matches_core(self):
        s = scenario_from_dict(dict(MINIMAL))
        grid = build_pixel_grid(s)
        assert (grid.nx, grid.nz) == (64, 270)

    def test_grid_override(self):
        doc = dict(MINIMAL)
        doc["reconstruction"] = {
            "grid": {"x0_mm": -1.0, "z0_mm": 2.0, "dx_mm": 0.5, "dz_mm": 0.25, "nx": 5, "nz": 9}
        }
        grid = build_pixel_grid(scenario_from_dict(doc))
        assert grid.nx == 5 and grid.nz == 9
        assert grid.origin == (pytest.approx(-1e-3), pytest.approx(2e-3))

    def test_point_source_rasterized_to_nearest_cell(self):
        doc = dict(MINIMAL)
        doc["sources"] = [{"kind": "point", "x_mm": 0.0, "z_mm": 20.0, "amplitude": 2.0}]
        s = scenario_from_dict(doc)
        field = build_s_field(s)
        assert np.count_nonzero(field.values) == 1
        iz, ix = np.argwhere(field.values)[0]
        assert field.values[iz, ix] == 2.0
        assert abs(field.origin[1] + iz * field.dz - 20e-3) <= field.dz / 2

    def test_disc_source_covers_circle(self):
        doc = dict(MINIMAL)
        doc["sources"] = [{"kind": "disc", "x_mm": 0.0, "z_mm": 20.0, "radius_mm": 1.0, "amplitude": 1.0}]
        field = build_s_field(scenario_from_dict(doc))
        count = np.count_nonzero(field.values)
        expect = np.pi * 1e-3**2 / (field.dx * field.dz)
        assert count == pytest.approx(expect, rel=0.2)

    def test_point_outside_grid_rejected(self):
        doc = dict(MINIMAL)
        doc["sources"] = [{"kind": "point", "x_mm": 0.0, "z_mm": 90.0}]
        with pytest.raises(ScenarioError):
            build_s_field(scenario_from_dict(doc))

    def test_file_source_round_trip(self, tmp_path):
        values = np.zeros((4, 6))
        values[2, 3] = 1.5
        np.savez(
            tmp_path / "field.npz",
            values=values, origin_x=-1e-3, origin_z=5e-3, dx=2e-4, dz=3e-4,
        )
        doc = dict(MINIMAL)
        doc["sources"] = [{"kind": "file", "path": "field.npz"}]
        field = build_s_field(scenario_from_dict(doc), base_dir=tmp_path)
        np.testing.assert_array_equal(field.values, values)
        assert field.dx == 2e-4 and field.origin == (-1e-3, 5e-3)

    @pytest.mark.parametrize("case", ["missing", "not_zip", "no_origin_x"])
    def test_file_source_read_errors_name_the_path(self, tmp_path, case):
        path = tmp_path / "field.npz"
        if case == "not_zip":
            path.write_text("values: not an archive\n")
        elif case == "no_origin_x":
            np.savez(path, values=np.zeros((4, 6)), origin_z=5e-3, dx=2e-4, dz=3e-4)
        doc = dict(MINIMAL)
        doc["sources"] = [{"kind": "file", "path": "field.npz"}]
        with pytest.raises(ScenarioError, match="field.npz") as info:
            build_s_field(scenario_from_dict(doc), base_dir=tmp_path)
        assert info.value.path == "scenario.sources[0].path"
        if case == "no_origin_x":
            assert "origin_x" in str(info.value)

    def test_events_sa_and_fus(self):
        s = scenario_from_dict(dict(MINIMAL))
        events = build_events(s)
        assert len(events) == 64 and events[0].num_active == 1
        s_fus = scenario_from_dict(dict(FULL))
        events = build_events(s_fus)
        assert len(events) == 32 and all(e.active.all() for e in events)

    def test_explicit_line_centers_in_mm(self):
        doc = dict(MINIMAL)
        doc["transmit"] = {"scheme": "fus", "focal_depth_mm": 20.0, "line_centers": [-1.0, 0.0, 1.0]}
        events = build_events(scenario_from_dict(doc))
        assert len(events) == 3

    def test_off_grid_line_center_rejected(self):
        doc = dict(MINIMAL)
        x1 = build_pixel_grid(scenario_from_dict(doc)).x_coords()[-1] / 1e-3
        doc["transmit"] = {"scheme": "fus", "focal_depth_mm": 20.0,
                           "line_centers": [-1.0, 0.0, x1 + 1.0]}
        with pytest.raises(ScenarioError) as info:
            build_events(scenario_from_dict(doc))
        assert info.value.path == "scenario.transmit.line_centers"
        assert f"{x1:g} mm" in str(info.value)

    def test_line_center_whose_nearest_element_is_off_grid_rejected(self):
        # 1.05 mm lies on the grid, but its nearest element (1.25 mm), where
        # fus_line_map images the line, does not
        doc = {
            "name": "t", "seed": 3,
            "geometry": {"num_elements": 16, "pitch_mm": 0.5},
            "transmit": {"scheme": "fus", "focal_depth_mm": 10.0, "line_centers": [0.0, 1.05]},
            "reconstruction": {"grid": {"x0_mm": -1.0, "z0_mm": 1.0, "dx_mm": 0.1,
                                        "dz_mm": 0.1, "nx": 21, "nz": 50}},
        }
        with pytest.raises(ScenarioError) as info:
            build_events(scenario_from_dict(doc))
        assert info.value.path == "scenario.transmit.line_centers"
        doc["transmit"]["line_centers"] = [0.0, 0.9]  # nearest element 0.75 mm
        assert len(build_events(scenario_from_dict(doc))) == 2

    def test_targets_converted(self):
        s = scenario_from_dict(dict(FULL))
        (t,) = build_targets(s)
        assert t.position == (pytest.approx(-2e-3), pytest.approx(12e-3))
        assert t.signal_roi.x0 == pytest.approx(-3e-3)
        assert t.group == "on_focus"


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_parses_as_with_the_python_loader(name):
    path = resources.files("aesynth") / "scenarios" / f"{name}.yaml"
    doc = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
    assert bundled_scenario(name) == scenario_from_dict(doc)
    assert load_scenario(path) == scenario_from_dict(doc)


class TestShiftDepth:
    def test_sources_targets_and_signal_rois_move(self):
        s = scenario_from_dict(dict(FULL))
        shifted = shift_depth(s, 10.0)
        assert shifted.sources[0].z_mm == 22.0
        assert shifted.targets[0].z_mm == 22.0
        assert shifted.targets[0].signal_roi_mm[2] == 21.0
        # noise ROI untouched
        assert shifted.targets[0].noise_roi_mm == s.targets[0].noise_roi_mm
        assert shifted.name != s.name

    def test_zero_shift_keeps_name(self):
        s = scenario_from_dict(dict(FULL))
        assert shift_depth(s, 0.0).name == s.name
