"""Self-test of the benchmark itself (about two minutes on two cores).

    python3 bench/selftest.py

1. A perturbed reference must make the correctness check fail: one
   fus-sim-m128 and one paper-suite iteration are checked against the real
   reference (no failure allowed) and against copies with one value, one
   check name, one output file and one always non-finite value changed
   (each must give fail_frac > 0).
2. The exact counters of the traced run must repeat exactly across two
   separate traced runs of every workload.  They are also printed next to
   the values measured at the commit that introduced the benchmark, which a
   change to the beamformer or the simulator is expected to move.

Exits non-zero if any of this does not hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from worker import REFERENCE, ROOT, import_aesynth

HERE = Path(__file__).resolve().parent

# Counters per iteration when the benchmark was introduced.
FIRST_COUNTERS = {
    "paper-suite": {"reconstruct.aperture_bytes": 20188160, "reconstruct.window_frac": 0.5496},
    "sa-frame-m128": {"reconstruct.aperture_bytes": 80189440, "reconstruct.window_frac": 0.3561},
    "fus-sim-m128": {"forward.wave_cells": 868352},
}


def perturbations(ref: dict, workload: str):
    """(description, perturbed reference) pairs; each must be detected."""
    key = next(iter(ref["rows"]))
    moved = copy.deepcopy(ref)
    col = next(c for c, v in moved["rows"][key].items() if isinstance(v, dict) and "ref" in v)
    moved["rows"][key][col]["ref"] += 10 * moved["rows"][key][col]["tol"]
    yield f"{workload}: {key} {col} moved by 10 x its tolerance", moved
    if workload == "paper-suite":
        renamed = copy.deepcopy(ref)
        renamed["checks"][0] += " (renamed)"
        yield "paper-suite: first check renamed", renamed
        missing = copy.deepcopy(ref)
        missing["channel_files"].append("not_written.aecd")
        yield "paper-suite: an expected channel file added", missing
        finite = copy.deepcopy(ref)
        key, col = next(
            (k, c) for k, row in finite["rows"].items() for c, v in row.items()
            if isinstance(v, dict) and "nonfinite" in v
        )
        finite["rows"][key][col] = {"ref": 0.0, "tol": 1e9}
        yield f"paper-suite: {key} {col} expected finite", finite


def check_perturbed(work_dir: Path) -> list[str]:
    from workloads import FusSim, PaperSuite

    reference = json.loads(REFERENCE.read_text())["workloads"]
    problems = []
    for cls in (FusSim, PaperSuite):
        w = cls(work_dir, threads=1)
        w.setup()
        ref = reference[cls.name]
        outcome = w.run(1)
        # PaperSuite.check removes its output directory, so keep a copy
        # for the perturbed checks.
        if cls is PaperSuite:
            keep = Path(tempfile.mkdtemp(dir=work_dir))
            shutil.copytree(outcome[0], keep, dirs_exist_ok=True)
        attempted, failures = w.check(outcome, ref)
        print(f"{cls.name}: {len(failures)}/{attempted} failed against the reference")
        if failures:
            problems.append(f"{cls.name} fails against its own reference: {failures[:3]}")
        for what, bad in perturbations(ref, cls.name):
            if cls is PaperSuite:
                copy_dir = Path(tempfile.mkdtemp(dir=work_dir))
                shutil.copytree(keep, copy_dir, dirs_exist_ok=True)
                outcome = (copy_dir, outcome[1])
            attempted, failures = w.check(outcome, bad)
            print(f"  {what}: fail_frac {len(failures) / attempted:.4f}")
            if not failures:
                problems.append(f"{what}: not detected")
        if cls is PaperSuite:
            shutil.rmtree(keep, ignore_errors=True)
    return problems


def traced_counters(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run not correct:\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_counters() -> list[str]:
    from tracing import EXACT_COUNTERS

    problems = []
    for workload, first in FIRST_COUNTERS.items():
        a, b = traced_counters(workload), traced_counters(workload)
        for key in EXACT_COUNTERS:
            if a[key] != b[key]:
                problems.append(f"{workload} {key}: {a[key]} then {b[key]}")
        for key, value in first.items():
            now = round(a[key], 4) if isinstance(value, float) else a[key]
            note = "" if now == value else "  (moved)"
            print(f"{workload} {key}: {a[key]} (first recorded {value}){note}")
    return problems


def main() -> int:
    import_aesynth()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        problems = check_perturbed(work_dir) + check_counters()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
