"""aesynth benchmark: run workloads, print their metrics, check their outputs.

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --workload sa-frame-m128 --seed 3 --seconds 30 --trace 1

Each workload runs in its own fresh process (``worker.py``) with BLAS and
OpenMP pools pinned to one thread, so a workload never uses more threads than
its row-pool size.  Untraced runs report the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``); ``--trace 1`` reports the
per-layer metrics of ``BENCHMARK.json`` instead.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper-suite", "sa-frame-m128", "fus-sim-m128")
# Set-up is timed this many extra times in set-up-only processes, besides the
# measured process itself; setup_s is the median.
SETUP_PROBES = 2
DEADLINE_S = 170.0
PINNED_POOLS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD of this checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(work_dir: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_POOLS})
    env["TMPDIR"] = str(work_dir)
    env.pop("AE_SYNTH_THREADS", None)
    return env


def run_worker(args, work_dir: Path, deadline: float, setup_only: bool):
    """Start one worker; return (set-up seconds, result dict or None)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(work_dir), cwd=ROOT
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
        if not readable:
            raise subprocess.TimeoutExpired(cmd, deadline)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "BENCH-READY":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise BenchError(f"{args.workload}: worker failed during set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: worker did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: worker exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = [line for line in rest.splitlines() if line.startswith("BENCH-RESULT ")]
    if not lines:
        raise BenchError(f"{args.workload}: worker printed no result")
    return setup_s, json.loads(lines[-1][len("BENCH-RESULT "):])


def per_layer_names() -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer"]]


def run_workload(args, work_dir: Path, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, work_dir, deadline, setup_only=True)[0])
    setup_s, result = run_worker(args, work_dir, deadline, setup_only=False)
    setups.append(setup_s)
    if args.trace:
        layer = result["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["setups"] = setups
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "detail": result,
    }


def describe(name: str, out: dict, trace: int) -> None:
    d = out["detail"]
    frac = out["failed"] / out["attempted"]
    print(f"workload {name}: threads={d['threads']} iterations={d['iterations']}"
          + (f" traced={d['traced_iterations']}" if trace else ""))
    for key, m in out["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {key:<28} {value:>16} {m['unit']}")
    if not trace:
        print(f"  {'(setup_s samples)':<28} {' '.join(f'{v:.4f}' for v in d['setups'])}")
        print(f"  {'(wall_s samples)':<28} {' '.join(f'{v:.4f}' for v in d['walls'])}")
    print(f"  {'fail_frac':<28} {frac:>16.6g} ({out['failed']}/{out['attempted']} operations)")
    for note in d["notes"]:
        print(f"  ! {note}")
    env = {
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(), "threads": d["threads"],
        "machine": platform.machine(), **d["versions"],
    }
    print(f"  env {json.dumps(env)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = {}
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            outs[name] = run_workload(one, work_dir, time.monotonic() + DEADLINE_S)
            describe(name, outs[name], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if len(outs) == 1:
        (out,) = outs.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, o in outs.items() for k, v in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
