"""Command-line harness: simulate, reconstruct, evaluate, paper-suite.

Every run is fully determined by a scenario file plus a seed; lengths at
this boundary are millimeters.  Every command runs on one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io as aio
from .coherence import amplitude_correct, apply_weighting, effective_beam_map, sa_frame
from .core import PixelGrid
from .errors import AesynthError, MethodMismatchError, ValidationError
from .metrics import evaluate_targets
from .reconstruct import METHOD_FUS, METHOD_SA, BeamformedImage, envelope, fus_line_map
from .scenario import (
    Scenario,
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
)
from .forward import simulate_dataset

MM = 1e-3

METRICS_HEADER = [
    "image", "method", "weighting", "target", "group", "status",
    "peak_x_mm", "peak_z_mm", "ar_mm", "lr_mm", "psl_db", "snr_db",
    "benchmark", "d_ar_pct", "d_lr_pct", "d_psl_db", "d_snr_db",
]


def run_simulate(
    scenario: Scenario,
    out_path,
    seed: int | None = None,
    no_noise: bool = False,
    base_dir=None,
) -> dict:
    """Simulate a scenario's channel data and write the binary file."""
    s_field = build_s_field(scenario, base_dir=base_dir)
    data = simulate_dataset(
        s_field,
        build_events(scenario),
        build_geometry(scenario),
        build_medium(scenario),
        build_pulse(scenario),
        build_pressure_model(scenario),
        build_acquisition(scenario, no_noise=no_noise),
        seed=scenario.seed if seed is None else seed,
        max_depth=scenario.reconstruction.max_depth_mm * MM,
        amplitude_scale=scenario.simulation.amplitude_scale,
    )
    digest = aio.write_channel_file(out_path, data)
    return {
        "path": str(out_path),
        "m_tx": data.num_events,
        "t": data.num_samples,
        "sample_rate": data.sample_rate,
        "sha256": digest,
    }


def load_channels(channel_path, scenario: Scenario):
    """Read a channel file and attach the scenario's geometry, medium and pulse.

    The file's element count, pitch, speed of sound and sample rate must
    match the scenario's.
    """
    data = aio.read_channel_file(channel_path)
    geometry = build_geometry(scenario)
    medium = build_medium(scenario)
    pulse = build_pulse(scenario)
    problems = []
    if data.geometry.num_elements != geometry.num_elements:
        problems.append("element count")
    if not np.isclose(data.geometry.pitch, geometry.pitch, rtol=1e-9):
        problems.append("pitch")
    if not np.isclose(data.medium.sos, medium.sos, rtol=1e-9):
        problems.append("speed of sound")
    if not np.isclose(data.sample_rate, pulse.sample_rate, rtol=1e-9):
        problems.append("sample rate")
    if problems:
        raise ValidationError(
            f"channel file does not match the scenario ({', '.join(problems)})"
        )
    return dataclasses.replace(data, geometry=geometry, medium=medium, pulse=pulse)


def _detect_method(data) -> str:
    singles = [ev.num_active == 1 for ev in data.events]
    if all(singles):
        return METHOD_SA
    if not any(singles):
        return METHOD_FUS
    raise MethodMismatchError("channel file mixes single-element and focused events")


def _write_image_bundle(prefix: str, image: BeamformedImage, meta: dict) -> list[str]:
    aio.write_values_csv(f"{prefix}_values.csv", image.values)
    aio.write_envelope_pgm(f"{prefix}_envelope.pgm", image.envelope)
    grid = image.grid
    full = {
        "method": image.method,
        "f_number": "" if image.f_number is None else f"{image.f_number:g}",
        "x0_m": repr(grid.origin[0]),
        "z0_m": repr(grid.origin[1]),
        "dx_m": repr(grid.dx),
        "dz_m": repr(grid.dz),
        "nx": str(grid.nx),
        "nz": str(grid.nz),
    }
    full.update(meta)
    aio.write_sidecar(f"{prefix}_meta.txt", full)
    return [f"{prefix}_values.csv", f"{prefix}_envelope.pgm", f"{prefix}_meta.txt"]


def reconstruct_bundles(
    jobs,
    method: str = "auto",
    f_number: float | None = None,
    do_amplitude_correct: bool | None = None,
) -> list[dict]:
    """Reconstruct channel files and write one image bundle per weighting of each.

    ``jobs`` holds ``(scenario, channel_path, prefixes)`` tuples; each file
    is read with ``load_channels``.  ``prefixes`` maps each weighting
    (``none``, ``cf``, ``cfpl``) to its output prefix; a ``None`` prefix
    computes that weighting without writing it.  ``f_number`` and
    ``do_amplitude_correct`` default to each scenario's own.

    The single-element scenes share one delay plan (array, medium, sampling,
    events, pixel grid and F-number; else ``ValidationError``), so they take
    one ``sa_frame`` pass that plans each depth row once and yields every
    scene's image and coherence maps without storing an aperture.  It gathers
    CFPL's pulse-length instants only when some scene asks for ``cfpl``, and
    those scenes must share the CFPL window.  Focused scenes are line-mapped
    one by one.  Returns, per scene, the final image and, with amplitude
    correction, the corrected image of every weighting, plus the maps and
    every file written.
    """
    scenes = [(load_channels(path, s), s, prefixes, path) for s, path, prefixes in jobs]
    detected = [_detect_method(data) for data, *_ in scenes]
    for found in detected:
        if method not in ("auto", found):
            raise MethodMismatchError(
                f"requested {method} reconstruction but the file holds {found} events"
            )
    plans = [
        (build_pixel_grid(s), s.reconstruction.f_number if f_number is None else f_number)
        for _, s, _, _ in scenes
    ]
    sa = [i for i, d in enumerate(detected) if d == METHOD_SA]
    frames = {}
    if sa:
        windows = {
            (scenes[i][0].pulse.length_samples, scenes[i][1].reconstruction.cfpl_centered)
            for i in sa if "cfpl" in scenes[i][2]
        } or {(1, False)}
        if len({plans[i] for i in sa}) > 1 or len(windows) > 1:
            raise ValidationError(
                "scenes beamformed in one pass must share the pixel grid, F-number and CFPL window"
            )
        (grid, f_sa), ((pulse_samples, centered),) = plans[sa[0]], windows
        batch = sa_frame([scenes[i][0] for i in sa], grid, f_sa, pulse_samples, centered)
        frames = dict(zip(sa, batch))
    return [
        _write_scene(scene, grid, f, frames.get(i), do_amplitude_correct)
        for i, (scene, (grid, f)) in enumerate(zip(scenes, plans))
    ]


def _write_scene(scene, grid: PixelGrid, f_number: float, frame, do_amplitude_correct) -> dict:
    """Weight, write and amplitude-correct one scene of ``reconstruct_bundles``.

    ``frame`` is the scene's ``sa_frame`` triple, or ``None`` for focused data.
    """
    data, scenario, prefixes, source_channels = scene
    if do_amplitude_correct is None:
        do_amplitude_correct = scenario.reconstruction.amplitude_correct
    medium, pulse = data.medium, data.pulse

    images, maps = {}, {}
    if frame is not None:
        image, cf, cfpl = frame
        image = envelope(image)
        for weighting in prefixes:
            if weighting != "none":
                maps[weighting] = cf if weighting == "cf" else cfpl
            images[weighting] = apply_weighting(image, maps[weighting]) if weighting in maps else image
    elif any(weighting != "none" for weighting in prefixes):
        raise MethodMismatchError("coherence weighting needs single-element (sa) channel data")
    else:
        images["none"] = envelope(fus_line_map(data, grid, medium))

    written: list[str] = []
    corrected = {}
    beam_map = None
    for weighting, prefix in prefixes.items():
        if prefix is None:
            continue
        if weighting in maps:
            cmap = maps[weighting].values
            aio.write_values_csv(f"{prefix}_{weighting}_map.csv", cmap)
            aio.write_linear_pgm(f"{prefix}_{weighting}_map.pgm", cmap, peak=1.0)
            written += [f"{prefix}_{weighting}_map.csv", f"{prefix}_{weighting}_map.pgm"]
        meta = {
            "weighting": weighting,
            "amplitude_correct": "false",
            "scenario": scenario.name,
            "source_channels": str(source_channels),
            "sample_rate": repr(data.sample_rate),
        }
        written += _write_image_bundle(prefix, images[weighting], meta)
        if not do_amplitude_correct:
            continue
        if frame is None:
            raise MethodMismatchError("amplitude correction applies to sa images only")
        if beam_map is None:
            beam_map = effective_beam_map(
                data.geometry, grid, f_number, medium, pulse, build_pressure_model(scenario)
            )
        aio.write_values_csv(f"{prefix}_beam_map.csv", beam_map)
        aio.write_linear_pgm(f"{prefix}_beam_map.pgm", beam_map)
        corrected[weighting] = amplitude_correct(images[weighting], beam_map)
        meta["amplitude_correct"] = "true"
        written += [f"{prefix}_beam_map.csv", f"{prefix}_beam_map.pgm"]
        written += _write_image_bundle(f"{prefix}_corrected", corrected[weighting], meta)

    return {"images": images, "corrected": corrected, "maps": maps, "written": written}


def run_reconstruct(
    channel_path,
    scenario: Scenario,
    out_prefix: str,
    method: str = "auto",
    f_number: float | None = None,
    weighting: str | None = None,
    do_amplitude_correct: bool | None = None,
) -> dict:
    """Reconstruct a channel file into image bundles.

    Returns the final image (weighted when weighting is on) plus every file
    written.  ``*_corrected`` bundles are emitted additionally when amplitude
    correction is requested.
    """
    weighting = scenario.reconstruction.weighting if weighting is None else weighting
    job = (scenario, channel_path, {weighting: out_prefix})
    (result,) = reconstruct_bundles([job], method, f_number, do_amplitude_correct)
    result["image"] = result.pop("images")[weighting]
    result["corrected"] = result["corrected"].get(weighting)
    return result


def load_image_bundle(prefix: str) -> tuple[BeamformedImage, dict]:
    """Rebuild an image (with envelope) from a ``*_values.csv`` + sidecar pair."""
    meta = aio.read_sidecar(f"{prefix}_meta.txt")
    grid = PixelGrid(
        origin=(float(meta["x0_m"]), float(meta["z0_m"])),
        dx=float(meta["dx_m"]),
        dz=float(meta["dz_m"]),
        nx=int(meta["nx"]),
        nz=int(meta["nz"]),
    )
    values = aio.read_values_csv(f"{prefix}_values.csv", grid.nz, grid.nx)
    f_number = float(meta["f_number"]) if meta.get("f_number") else None
    image = BeamformedImage(
        grid=grid, values=values, method=meta["method"], f_number=f_number
    )
    return envelope(image), meta


def _mean_or_none(values):
    vals = [v for v in values if v is not None and np.isfinite(v)]
    return float(np.mean(vals)) if vals else None


def evaluate_bundles(prefixes, scenario: Scenario, write_reports: bool = False) -> list[dict]:
    """Metric rows for image bundles read back from their files (see ``evaluate_images``)."""
    images = []
    for prefix in prefixes:
        image, meta = load_image_bundle(prefix)
        images.append((prefix, image, meta.get("weighting", "none")))
    return evaluate_images(images, scenario, write_reports)


def evaluate_images(images, scenario: Scenario, write_reports: bool = False) -> list[dict]:
    """Metric rows for images: one row per (image, target) plus group means.

    ``images`` holds ``(prefix, image, weighting)`` triples, each image with
    its envelope; a row names its image by the prefix's file name.  With
    ``write_reports`` each image also gets a flat key-value
    ``<prefix>_metrics.txt``.
    """
    targets = build_targets(scenario)
    rows = []
    group_rows = []
    groups = sorted({t.group for t in targets if t.group})
    for prefix, image, weighting in images:
        report = evaluate_targets(image, targets)
        if write_reports:
            aio.write_metrics_text(f"{prefix}_metrics.txt", report)
        name = Path(prefix).name
        for tm in report.targets:
            rows.append({
                "image": name,
                "method": image.method,
                "weighting": weighting,
                "target": tm.label,
                "group": tm.group or "",
                "status": "error" if tm.error else "ok",
                "peak_x_mm": None if tm.peak_x is None else tm.peak_x / MM,
                "peak_z_mm": None if tm.peak_z is None else tm.peak_z / MM,
                "ar_mm": None if tm.axial_fwhm is None else tm.axial_fwhm / MM,
                "lr_mm": None if tm.lateral_fwhm is None else tm.lateral_fwhm / MM,
                "psl_db": tm.psl_db,
                "snr_db": tm.snr_db,
            })
        for group in groups:
            members = [tm for tm in report.targets if tm.group == group]
            if not members:
                continue
            group_rows.append({
                "image": name,
                "method": image.method,
                "weighting": weighting,
                "target": f"mean({group})",
                "group": group,
                "status": "ok" if all(m.error is None for m in members) else "partial",
                "peak_x_mm": None,
                "peak_z_mm": None,
                "ar_mm": _mean_or_none([m.axial_fwhm / MM if m.axial_fwhm else None for m in members]),
                "lr_mm": _mean_or_none([m.lateral_fwhm / MM if m.lateral_fwhm else None for m in members]),
                "psl_db": _mean_or_none([m.psl_db for m in members]),
                "snr_db": _mean_or_none([m.snr_db for m in members]),
            })

    # benchmark columns: change relative to the FUS mean of the same group
    fus_baseline = {
        r["group"]: r for r in group_rows if r["method"] == METHOD_FUS
    }
    for r in group_rows:
        base = fus_baseline.get(r["group"])
        if base is None:
            continue
        if r["method"] == METHOD_FUS:
            r["benchmark"] = "bm"
            continue
        for key, col, pct in (
            ("ar_mm", "d_ar_pct", True),
            ("lr_mm", "d_lr_pct", True),
            ("psl_db", "d_psl_db", False),
            ("snr_db", "d_snr_db", False),
        ):
            if r[key] is None or base[key] is None:
                continue
            r[col] = 100 * (r[key] - base[key]) / base[key] if pct else r[key] - base[key]
    return rows + group_rows


# ---------------------------------------------------------------------------
# argparse front end


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aesynth",
        description="Acoustoelectric imaging simulator and reconstruction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate channel data for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output channel file (.aecd)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--no-noise", action="store_true")

    p = sub.add_parser("reconstruct", help="reconstruct images from channel data")
    p.add_argument("--channels", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output prefix for the image bundle")
    p.add_argument("--method", choices=["auto", "sa", "fus"], default="auto")
    p.add_argument("--f-number", type=float, default=None)
    p.add_argument("--weighting", choices=["none", "cf", "cfpl"], default=None)
    p.add_argument("--amplitude-correct", action="store_true", default=None)

    p = sub.add_parser("evaluate", help="compute metrics for image bundles")
    p.add_argument("prefixes", nargs="+", help="image bundle prefixes")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="metrics CSV path")

    p = sub.add_parser("paper-suite", help="run the bundled experiment matrix")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--no-noise", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            scenario = load_scenario(args.scenario)
            info = run_simulate(
                scenario, args.out, seed=args.seed, no_noise=args.no_noise,
                base_dir=Path(args.scenario).parent,
            )
            print(
                f"wrote {info['path']}: m_tx={info['m_tx']} t={info['t']} "
                f"sample_rate={info['sample_rate']:g} sha256={info['sha256']}"
            )
        elif args.command == "reconstruct":
            scenario = load_scenario(args.scenario)
            result = run_reconstruct(
                args.channels, scenario, args.out,
                method=args.method, f_number=args.f_number,
                weighting=args.weighting, do_amplitude_correct=args.amplitude_correct,
            )
            for path in result["written"]:
                print(f"wrote {path}")
        elif args.command == "evaluate":
            scenario = load_scenario(args.scenario)
            rows = evaluate_bundles(args.prefixes, scenario, write_reports=True)
            aio.write_csv_rows(args.out, METRICS_HEADER, rows)
            print(f"wrote {args.out} ({len(rows)} rows)")
        elif args.command == "paper-suite":
            from .suite import run_paper_suite

            return run_paper_suite(args.out, seed=args.seed, no_noise=args.no_noise)
    except AesynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
