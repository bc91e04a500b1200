"""The benchmark's workloads and their correctness checks.

Every workload is a closed loop: one caller in one process, each iteration
starting after the previous one ends.  Iteration i of a run with seed s uses
seed s + i, which changes only the noise realisation, never the amount of
work.  Each workload calls aesynth through module attributes
(``forward.simulate_dataset`` and so on), so the traced run sees the
benchmark's own calls as well as the ones the package makes internally.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io as textio
import math
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from aesynth import coherence, forward, metrics, reconstruct, scenario
from aesynth import io as aio

MM = 1e-3
# Per-target values compared against the reference, named as in metrics.csv.
VALUE_KEYS = ("peak_x_mm", "peak_z_mm", "ar_mm", "lr_mm", "psl_db", "snr_db")


def load_bundled(name: str, **overrides) -> scenario.Scenario:
    """Parse a bundled scenario, with top-level sections patched by ``overrides``."""
    text = (resources.files("aesynth") / "scenarios" / f"{name}.yaml").read_text()
    doc = yaml.safe_load(text)
    for section, values in overrides.items():
        doc[section].update(values)
    return scenario.scenario_from_dict(doc)


def build_scene(s: scenario.Scenario) -> dict:
    """Everything a frame iteration needs, in SI units."""
    return {
        "geometry": scenario.build_geometry(s),
        "medium": scenario.build_medium(s),
        "pulse": scenario.build_pulse(s),
        "model": scenario.build_pressure_model(s),
        "acquisition": scenario.build_acquisition(s),
        "grid": scenario.build_pixel_grid(s),
        "s_field": scenario.build_s_field(s),
        "events": scenario.build_events(s),
        "targets": scenario.build_targets(s),
        "f_number": s.reconstruction.f_number,
        "max_depth": s.reconstruction.max_depth_mm * MM,
        "amplitude_scale": s.simulation.amplitude_scale,
        "cfpl_centered": s.reconstruction.cfpl_centered,
    }


def _mm(v):
    return None if v is None else v / MM


def report_rows(tag: str, report) -> dict:
    """``{"<tag>/<target>": {column: value}}`` for one metrics report."""
    return {
        f"{tag}/{t.label}": {
            "status": "error" if t.error else "ok",
            "peak_x_mm": _mm(t.peak_x),
            "peak_z_mm": _mm(t.peak_z),
            "ar_mm": _mm(t.axial_fwhm),
            "lr_mm": _mm(t.lateral_fwhm),
            "psl_db": t.psl_db,
            "snr_db": t.snr_db,
        }
        for t in report.targets
    }


def _value_ok(got, want) -> bool:
    """``want`` is ``None``, ``{"ref", "tol"}``, ``{"nonfinite"}`` for a value
    that was non-finite on every seed, or ``{"unchecked"}`` for a value that
    is not reproducible across seeds and only has to be present."""
    if got is None or want is None:
        return got is None and want is None
    if "unchecked" in want:
        return True
    if "nonfinite" in want:
        return not math.isfinite(got)
    return math.isfinite(got) and abs(got - want["ref"]) <= want["tol"]


def compare_rows(rows: dict, ref_rows: dict) -> tuple[int, list[str]]:
    """One operation per reference row; a row fails if any value is out of tolerance."""
    failures = []
    for key, want in ref_rows.items():
        got = rows.get(key)
        if got is None:
            failures.append(f"{key}: missing")
            continue
        bad = [
            f"{col} {got[col]} vs {want[col]}"
            for col in ("status",) + VALUE_KEYS
            if not (
                got[col] == want[col] if col == "status" else _value_ok(got[col], want[col])
            )
        ]
        if bad:
            failures.append(f"{key}: " + ", ".join(bad))
    extra = sorted(set(rows) - set(ref_rows))
    failures += [f"{key}: not in the reference" for key in extra]
    return len(ref_rows) + len(extra), failures


class PaperSuite:
    """``run_paper_suite`` into a fresh directory: the M=64 matrix users run."""

    name = "paper-suite"
    threads = 1

    def __init__(self, work_dir: Path, threads: int):
        self.work_dir = work_dir
        self.threads = threads

    def setup(self) -> None:
        from aesynth import suite

        # The suite loads and builds its scenes inside every run, so set-up is
        # only the imports and the scene building counts toward wall_s.
        self.suite = suite

    def run(self, seed: int):
        out = Path(tempfile.mkdtemp(prefix="suite-", dir=self.work_dir))
        with contextlib.redirect_stdout(textio.StringIO()):
            code = self.suite.run_paper_suite(out, seed=seed, threads=self.threads)
        return out, code

    def check(self, outcome, ref: dict) -> tuple[int, list[str]]:
        out, code = outcome
        try:
            failures = []
            channels = {p.name for p in (out / "channels").glob("*.aecd")}
            bundles = {
                p.name[: -len("_meta.txt")] for p in (out / "images").glob("*_meta.txt")
            }
            for name in ref["channel_files"]:
                if name not in channels:
                    failures.append(f"simulate output {name} missing")
            for name in ref["bundles"]:
                if name not in bundles:
                    failures.append(f"reconstruct output {name} missing")
            checks = parse_checks((out / "summary.txt").read_text())
            for name in ref["checks"]:
                if checks.get(name) != "PASS":
                    failures.append(f"check {name!r}: {checks.get(name, 'missing')}")
            extra = sorted(set(checks) - set(ref["checks"]))
            failures += [f"check {name!r} not in the reference" for name in extra]
            n_rows, row_failures = compare_rows(
                read_metrics_csv(out / "metrics.csv"), ref["rows"]
            )
            attempted = (
                len(ref["channel_files"]) + len(ref["bundles"]) + len(ref["checks"])
                + len(extra) + n_rows
            )
            return attempted, failures + row_failures
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def expected_ops(self, ref: dict) -> int:
        return (
            len(ref["channel_files"]) + len(ref["bundles"]) + len(ref["checks"])
            + len(ref["rows"])
        )


def parse_checks(summary: str) -> dict:
    """``{check name: "PASS" | "FAIL"}`` from a paper-suite summary.txt."""
    checks = {}
    for line in summary.splitlines():
        if line.startswith(("[PASS] ", "[FAIL] ")):
            name = line[7:].rsplit(": ", 1)[0]
            checks[name] = line[1:5]
    return checks


def read_metrics_csv(path: Path) -> dict:
    """Per-target rows of a paper-suite metrics.csv; group-mean rows are skipped."""
    rows = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            if r["target"].startswith("mean("):
                continue
            row = {"status": r["status"]}
            for col in VALUE_KEYS:
                row[col] = float(r[col]) if r[col] != "" else None
            rows[f"{r['scene']}/{r['image']}/{r['target']}"] = row
    return rows


class _Frame:
    """A nerve-disc frame at M=128 (270 x 128 grid), computed in memory."""

    threads = 2
    scheme: str
    calls: int  # aesynth calls and checks per iteration besides the target rows

    def __init__(self, work_dir: Path, threads: int):
        self.work_dir = work_dir
        self.threads = threads

    def setup(self) -> None:
        s = load_bundled(
            "nerve_disc", geometry={"num_elements": 128}, transmit={"scheme": self.scheme}
        )
        self.scene = build_scene(s)

    def simulate(self, seed: int):
        sc = self.scene
        return forward.simulate_dataset(
            sc["s_field"], sc["events"], sc["geometry"], sc["medium"], sc["pulse"],
            sc["model"], sc["acquisition"], seed=seed, max_depth=sc["max_depth"],
            amplitude_scale=sc["amplitude_scale"], threads=self.threads,
        )

    def check(self, outcome, ref: dict) -> tuple[int, list[str]]:
        rows = {}
        for tag, report in outcome["reports"].items():
            rows.update(report_rows(tag, report))
        attempted, failures = compare_rows(rows, ref["rows"])
        return attempted + self.calls, failures + outcome.get("failures", [])

    def expected_ops(self, ref: dict) -> int:
        return self.calls + len(ref["rows"])


class SaFrame(_Frame):
    """SA simulate, DAS, CF, CFPL, weighting and amplitude correction at M=128."""

    name = "sa-frame-m128"
    scheme = "sa"
    # simulate, das_sa, envelope, cf, cfpl, 2 x weighting, beam map,
    # amplitude correction, 4 x evaluate
    calls = 13

    def run(self, seed: int):
        sc = self.scene
        data = self.simulate(seed)
        image, aperture = reconstruct.das_sa(data, sc["grid"], sc["f_number"], threads=self.threads)
        image = reconstruct.envelope(image)
        cf = coherence.coherence_factor(aperture)
        cfpl = coherence.coherence_factor_pl(
            aperture, pulse_samples=sc["pulse"].length_samples,
            centered=sc["cfpl_centered"], threads=self.threads,
        )
        del aperture
        sa_cf = coherence.apply_weighting(image, cf)
        sa_cfpl = coherence.apply_weighting(image, cfpl)
        beam = coherence.effective_beam_map(
            sc["geometry"], sc["grid"], sc["f_number"], sc["medium"], sc["pulse"],
            sc["model"], threads=self.threads,
        )
        corrected = coherence.amplitude_correct(sa_cfpl, beam)
        images = {"sa": image, "sa_cf": sa_cf, "sa_cfpl": sa_cfpl, "sa_cfpl_corrected": corrected}
        return {
            "reports": {
                tag: metrics.evaluate_targets(img, sc["targets"]) for tag, img in images.items()
            }
        }


class FusSim(_Frame):
    """FUS simulate (128 lines x 128 elements), .aecd round trip and line map."""

    name = "fus-sim-m128"
    scheme = "fus"
    # simulate, write, read, round-trip check, line map, envelope, evaluate
    calls = 7

    def run(self, seed: int):
        sc = self.scene
        data = self.simulate(seed)
        path = Path(tempfile.mkdtemp(prefix="fus-", dir=self.work_dir)) / "channels.aecd"
        try:
            aio.write_channel_file(path, data)
            back = aio.read_channel_file(path)
        finally:
            shutil.rmtree(path.parent, ignore_errors=True)
        failures = roundtrip_failures(data, back)
        back = dataclasses.replace(
            back, geometry=sc["geometry"], medium=sc["medium"], pulse=sc["pulse"]
        )
        image = reconstruct.envelope(reconstruct.fus_line_map(back, sc["grid"], sc["medium"]))
        return {
            "reports": {"fus": metrics.evaluate_targets(image, sc["targets"])},
            "failures": failures,
        }


def roundtrip_failures(data, back) -> list[str]:
    """The .aecd file must return the float32-rounded traces and the exact event table."""
    same = (
        np.array_equal(back.channels, data.channels.astype("<f4").astype(float))
        and len(back.events) == len(data.events)
        and all(
            np.array_equal(a.delays, b.delays) and np.array_equal(a.active, b.active)
            for a, b in zip(back.events, data.events)
        )
    )
    return [] if same else ["aecd round trip changed the traces or the event table"]


# ``threads`` is each workload's row-pool size, capped at nproc when run:
# paper-suite is the plain single-threaded baseline, the M=128 frames use two.
WORKLOADS = {w.name: w for w in (PaperSuite, SaFrame, FusSim)}
