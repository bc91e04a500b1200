"""Rebuild ``reference.json``, the correctness reference of the benchmark.

    python3 bench/make_reference.py

Runs every workload's iteration once per seed (FIRST_SEED onwards, SEEDS of
them) in this process, then stores for each per-target value its median over
the seeds and a tolerance:

    tol = max(FLOOR[column], 2 * max |value - median|)

so every value seen while building the reference lies within half its
tolerance.  A value that is non-finite on every seed (a peak sidelobe level
of -inf: no sidelobe outside the main lobe) is stored as nonfinite and must
stay non-finite.  A value that is not reproducible across seeds is marked
unchecked, and then only has to be present: one that was non-finite for
some seeds but not all (the extended disc target gives this at random) or
whose spread exceeds its CAP.  Paper-suite check names, channel files and
image bundles must be the same for every seed, and every check must pass;
otherwise no reference is written.
Rebuild only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from worker import REFERENCE, ROOT, import_aesynth

# The reference seeds; the benchmark's own runs use small seeds, not these.
FIRST_SEED = 1000
SEEDS = 60
# Smallest tolerance per column: one grid pixel for peak positions
# (dx = 0.318 mm, dz = 0.185 mm), 0.05 mm for FWHM, 0.5 dB for levels.
FLOOR = {
    "peak_x_mm": 0.32, "peak_z_mm": 0.19, "ar_mm": 0.05, "lr_mm": 0.05,
    "psl_db": 0.5, "snr_db": 0.5,
}
# A sidelobe level spread over more than the images' 40 dB display range
# does not describe the target, so it is not compared.
CAP = {"psl_db": 40.0}


def summarize(samples: list[dict]) -> dict:
    """Reference rows from per-seed ``{key: {column: value}}`` dicts."""
    from workloads import VALUE_KEYS

    keys = samples[0].keys()
    if any(s.keys() != keys for s in samples):
        raise SystemExit("the set of target rows differs between seeds")
    rows = {}
    for key in keys:
        statuses = {s[key]["status"] for s in samples}
        if len(statuses) != 1:
            raise SystemExit(f"{key}: status differs between seeds: {statuses}")
        row = {"status": statuses.pop()}
        for col in VALUE_KEYS:
            values = [s[key][col] for s in samples]
            if all(v is None for v in values):
                row[col] = None
                continue
            if any(v is None for v in values):
                raise SystemExit(f"{key} {col}: defined for some seeds only")
            finite = [v for v in values if math.isfinite(v)]
            if not finite:
                row[col] = {"nonfinite": True}
                continue
            med = statistics.median(finite)
            spread = max(abs(v - med) for v in finite)
            if len(finite) < len(values) or 2 * spread > CAP.get(col, math.inf):
                row[col] = {"unchecked": (
                    f"finite in {len(finite)} of {len(values)} seeds, "
                    f"largest deviation {spread:.4g}"
                )}
            else:
                row[col] = {"ref": med, "tol": max(FLOOR[col], 2 * spread)}
        rows[key] = row
    return rows


def paper_suite_reference(seeds, work_dir: Path) -> dict:
    from workloads import PaperSuite, parse_checks, read_metrics_csv

    w = PaperSuite(work_dir, threads=1)
    w.setup()
    samples, shapes = [], set()
    for seed in seeds:
        out, code = w.run(seed)
        try:
            checks = parse_checks((out / "summary.txt").read_text())
            if code != 0 or set(checks.values()) != {"PASS"}:
                raise SystemExit(f"paper-suite seed {seed}: a check failed: {checks}")
            shapes.add((
                tuple(checks),
                tuple(sorted(p.name for p in (out / "channels").glob("*.aecd"))),
                tuple(sorted(p.name[:-9] for p in (out / "images").glob("*_meta.txt"))),
            ))
            samples.append(read_metrics_csv(out / "metrics.csv"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"paper-suite seed {seed} done", file=sys.stderr)
    if len(shapes) != 1:
        raise SystemExit("paper-suite checks or output files differ between seeds")
    checks, channel_files, bundles = shapes.pop()
    return {
        "checks": list(checks),
        "channel_files": list(channel_files),
        "bundles": list(bundles),
        "rows": summarize(samples),
    }


def frame_reference(cls, seeds, work_dir: Path) -> dict:
    from workloads import report_rows

    w = cls(work_dir, threads=cls.threads)
    w.setup()
    samples = []
    for seed in seeds:
        outcome = w.run(seed)
        if outcome.get("failures"):
            raise SystemExit(f"{cls.name} seed {seed}: {outcome['failures']}")
        rows = {}
        for tag, report in outcome["reports"].items():
            rows.update(report_rows(tag, report))
        samples.append(rows)
        print(f"{cls.name} seed {seed} done", file=sys.stderr)
    return {"rows": summarize(samples)}


def main() -> int:
    import_aesynth()
    from workloads import FusSim, SaFrame

    seeds = range(FIRST_SEED, FIRST_SEED + SEEDS)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=work_root))
    try:
        doc = {
            "rule": (
                f"median over seeds {seeds.start}..{seeds.stop - 1}; "
                "tol = max(floor, 2 * largest deviation from the median); "
                "nonfinite where a value is non-finite for every seed; "
                "unchecked where it is finite for some seeds only "
                "or 2 * its largest deviation exceeds the cap"
            ),
            "floor": FLOOR,
            "cap": CAP,
            "workloads": {
                "paper-suite": paper_suite_reference(seeds, work_dir),
                SaFrame.name: frame_reference(SaFrame, seeds, work_dir),
                FusSim.name: frame_reference(FusSim, seeds, work_dir),
            },
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
