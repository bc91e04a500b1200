import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import aesynth
from aesynth.cli import main
from aesynth.io import read_channel_file, sha256_file


SMALL_SCENARIO = {
    "name": "small",
    "seed": 9,
    "geometry": {"num_elements": 16, "pitch_mm": 0.5},
    "pulse": {"center_frequency": 2.0e6, "num_cycles": 1, "sample_rate": 16.0e6, "kind": "tone"},
    "acquisition": {"averages": 4, "noise_power": 0.5, "common_mode_amplitude": 0.2},
    "simulation": {"amplitude_scale": 1.0},
    "sources": [{"kind": "point", "x_mm": 0.0, "z_mm": 10.0, "amplitude": 1.0}],
    "transmit": {"scheme": "sa", "focal_depth_mm": 10.0},
    "reconstruction": {"f_number": 1.5, "max_depth_mm": 18.0, "weighting": "none",
                       "amplitude_correct": False, "cfpl_centered": True},
    "targets": [
        {"label": "pt", "x_mm": 0.0, "z_mm": 10.0,
         "signal_roi_mm": [-1.5, 1.5, 8.5, 11.5],
         "noise_roi_mm": [2.5, 4.0, 13.0, 17.0]},
    ],
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(SMALL_SCENARIO))
    return path


@pytest.fixture
def fus_scenario_file(tmp_path):
    doc = dict(SMALL_SCENARIO)
    doc["transmit"] = {"scheme": "fus", "focal_depth_mm": 10.0}
    path = tmp_path / "small_fus.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestSimulate:
    def test_writes_file_and_digest(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "ch.aecd"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "sha256=" in printed and "m_tx=16" in printed
        data = read_channel_file(out)
        assert data.num_events == 16

    def test_same_seed_identical_checksum(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.aecd", tmp_path / "b.aecd"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(a)])
        main(["simulate", "--scenario", str(scenario_file), "--out", str(b)])
        assert sha256_file(a) == sha256_file(b)

    def test_seed_override_changes_noise(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.aecd", tmp_path / "b.aecd"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(a)])
        main(["simulate", "--scenario", str(scenario_file), "--out", str(b), "--seed", "123"])
        assert sha256_file(a) != sha256_file(b)

    def test_no_noise_flag(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.aecd", tmp_path / "b.aecd"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(a), "--no-noise"])
        main(["simulate", "--scenario", str(scenario_file), "--out", str(b), "--no-noise", "--seed", "3"])
        # noiseless output does not depend on the seed
        assert sha256_file(a) == sha256_file(b)

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\n")  # missing seed
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.aecd")]) == 2
        assert "seed" in capsys.readouterr().err


    @pytest.mark.parametrize("field, value", [
        (("geometry", "pitch_mm"), float("inf")),
        (("seed",), -1),
    ])
    def test_nonfinite_or_negative_value_exits_2(self, tmp_path, capsys, field, value):
        doc = yaml.safe_load(yaml.safe_dump(SMALL_SCENARIO))
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.aecd")]) == 2
        assert ".".join(field) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dx", np.array([2e-4, 3e-4])),  # not a scalar
        ("values", np.full((4, 6), "abc")),  # not numeric
    ])
    def test_malformed_file_source_exits_2(self, tmp_path, capsys, key, value):
        fields = {"values": np.zeros((4, 6)), "origin_x": -1e-3, "origin_z": 5e-3, "dx": 2e-4, "dz": 3e-4}
        fields[key] = value
        np.savez(tmp_path / "field.npz", **fields)
        doc = yaml.safe_load(yaml.safe_dump(SMALL_SCENARIO))
        doc["sources"] = [{"kind": "file", "path": "field.npz"}]
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.aecd")]) == 2
        err = capsys.readouterr().err
        assert "field.npz" in err and key in err


    def test_off_grid_line_center_exits_2(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(SMALL_SCENARIO))
        doc["transmit"] = {"scheme": "fus", "focal_depth_mm": 10.0, "line_centers": [0.0, 30.0]}
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.aecd")]) == 2
        assert "transmit.line_centers" in capsys.readouterr().err
        assert not (tmp_path / "x.aecd").exists()


@pytest.mark.parametrize("verb", ["simulate", "reconstruct", "evaluate"])
def test_missing_scenario_path_exits_2(tmp_path, scenario_file, capsys, verb):
    channels = tmp_path / "ch.aecd"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(channels)])
    missing = tmp_path / "missing.yaml"
    out = str(tmp_path / "out")
    argv = {
        "simulate": ["--out", out],
        "reconstruct": ["--channels", str(channels), "--out", out],
        "evaluate": ["--out", out, out],
    }[verb]
    assert main([verb, "--scenario", str(missing), *argv]) == 2
    assert str(missing) in capsys.readouterr().err


def test_non_utf8_scenario_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"\xff\xfe\x00\x81\x80")
    assert main(["simulate", "--scenario", str(binary), "--out", str(tmp_path / "x.aecd")]) == 2
    err = capsys.readouterr().err
    assert str(binary) in err and "UTF-8" in err


def test_python_m_aesynth_runs_the_cli():
    # the package as imported here, also when it is not installed
    src = str(Path(aesynth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "aesynth", "--help"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "paper-suite" in done.stdout


class TestReconstruct:
    def _simulate(self, tmp_path, scenario_file):
        out = tmp_path / "ch.aecd"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        return out

    def test_sa_bundle(self, tmp_path, scenario_file):
        ch = self._simulate(tmp_path, scenario_file)
        prefix = tmp_path / "img"
        assert main([
            "reconstruct", "--channels", str(ch),
            "--scenario", str(scenario_file), "--out", str(prefix),
        ]) == 0
        for suffix in ("_values.csv", "_envelope.pgm", "_meta.txt"):
            assert (tmp_path / f"img{suffix}").exists()

    def test_weighting_emits_map(self, tmp_path, scenario_file):
        ch = self._simulate(tmp_path, scenario_file)
        prefix = tmp_path / "img"
        main([
            "reconstruct", "--channels", str(ch), "--scenario", str(scenario_file),
            "--out", str(prefix), "--weighting", "cfpl",
        ])
        assert (tmp_path / "img_cfpl_map.csv").exists()
        assert (tmp_path / "img_cfpl_map.pgm").exists()

    def test_amplitude_correct_emits_beam_map_and_corrected(self, tmp_path, scenario_file):
        ch = self._simulate(tmp_path, scenario_file)
        prefix = tmp_path / "img"
        main([
            "reconstruct", "--channels", str(ch), "--scenario", str(scenario_file),
            "--out", str(prefix), "--amplitude-correct",
        ])
        assert (tmp_path / "img_beam_map.csv").exists()
        assert (tmp_path / "img_corrected_values.csv").exists()

    def test_fus_line_map_default(self, tmp_path, fus_scenario_file):
        ch = self._simulate(tmp_path, fus_scenario_file)
        prefix = tmp_path / "fimg"
        assert main([
            "reconstruct", "--channels", str(ch),
            "--scenario", str(fus_scenario_file), "--out", str(prefix),
        ]) == 0
        meta = (tmp_path / "fimg_meta.txt").read_text()
        assert "method = fus" in meta

    def test_method_mismatch_refused(self, tmp_path, scenario_file, capsys):
        ch = self._simulate(tmp_path, scenario_file)  # sa events
        code = main([
            "reconstruct", "--channels", str(ch), "--scenario", str(scenario_file),
            "--out", str(tmp_path / "x"), "--method", "fus",
        ])
        assert code == 2
        assert "sa events" in capsys.readouterr().err

    def test_weighting_on_fus_refused(self, tmp_path, fus_scenario_file):
        ch = self._simulate(tmp_path, fus_scenario_file)
        code = main([
            "reconstruct", "--channels", str(ch), "--scenario", str(fus_scenario_file),
            "--out", str(tmp_path / "x"), "--weighting", "cf",
        ])
        assert code == 2


class TestEvaluate:
    def test_metrics_csv(self, tmp_path, scenario_file):
        ch = tmp_path / "ch.aecd"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(ch)])
        prefix = tmp_path / "img"
        main(["reconstruct", "--channels", str(ch), "--scenario", str(scenario_file),
              "--out", str(prefix)])
        out_csv = tmp_path / "metrics.csv"
        assert main([
            "evaluate", str(prefix), "--scenario", str(scenario_file),
            "--out", str(out_csv),
        ]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("image,method,weighting,target")
        assert len(lines) == 2  # header + one target row
        assert ",pt," in lines[1]
        # flat key-value companion per bundle
        text = (tmp_path / "img_metrics.txt").read_text()
        assert "target.pt.lr_mm" in text and "method = sa" in text

    def test_empty_targets_header_only(self, tmp_path, scenario_file):
        doc = dict(SMALL_SCENARIO)
        doc["targets"] = []
        no_targets = tmp_path / "nt.yaml"
        no_targets.write_text(yaml.safe_dump(doc))
        ch = tmp_path / "ch.aecd"
        main(["simulate", "--scenario", str(no_targets), "--out", str(ch)])
        prefix = tmp_path / "img"
        main(["reconstruct", "--channels", str(ch), "--scenario", str(no_targets),
              "--out", str(prefix)])
        out_csv = tmp_path / "m.csv"
        main(["evaluate", str(prefix), "--scenario", str(no_targets), "--out", str(out_csv)])
        assert len(out_csv.read_text().strip().splitlines()) == 1

    def test_localizes_target(self, tmp_path, scenario_file):
        ch = tmp_path / "ch.aecd"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(ch), "--no-noise"])
        prefix = tmp_path / "img"
        main(["reconstruct", "--channels", str(ch), "--scenario", str(scenario_file),
              "--out", str(prefix)])
        out_csv = tmp_path / "m.csv"
        main(["evaluate", str(prefix), "--scenario", str(scenario_file), "--out", str(out_csv)])
        import csv

        (row,) = list(csv.DictReader(open(out_csv)))
        assert abs(float(row["peak_x_mm"]) - 0.0) < 0.4
        assert abs(float(row["peak_z_mm"]) - 10.0) < 0.4
