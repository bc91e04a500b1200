"""One workload in one fresh process; started by ``run.py``, not by hand.

Protocol on stdout: ``BENCH-READY`` once set-up has finished (the parent
times set-up from process start to this line), then one
``BENCH-RESULT <json>`` line at the end.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().with_name("reference.json")


def import_aesynth():
    """Import aesynth from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.signal  # noqa: F401
    import aesynth

    if Path(aesynth.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"aesynth imported from {aesynth.__file__}, not {SRC}")
    return aesynth


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(args) -> dict:
    import_aesynth()
    from tracing import EXACT_COUNTERS, NullTracer, Tracer, iteration_metrics, self_times
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    threads = min(cls.threads, len(os.sched_getaffinity(0)))
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir))
    workload = cls(work_dir, threads)
    tracer = Tracer() if args.trace else NullTracer()
    tracer.install()
    with tracer.span("scenario.build", "scenario"):
        workload.setup()
    print("BENCH-READY", flush=True)
    if args.setup_only:
        return {}

    reference = json.loads(REFERENCE.read_text())
    ref = reference["workloads"][args.workload]
    attempted = failed = 0
    notes: list[str] = []
    walls = {True: [], False: []}
    start = time.perf_counter()
    i = 0
    # The traced run alternates traced and untraced iterations, traced first,
    # so it holds at least two traced ones for the exact-counter check and
    # one untraced one for the tracing overhead.
    min_iterations = 3 if args.trace else 1
    while True:
        traced = bool(args.trace) and i % 2 == 0
        tracer.iteration = i
        if traced:
            tracer.install()
        else:
            tracer.uninstall()
        t0 = time.perf_counter()
        try:
            outcome = workload.run(args.seed + i)
        except Exception as exc:  # one failed iteration fails all its operations
            walls[traced].append(time.perf_counter() - t0)
            n = workload.expected_ops(ref)
            attempted += n
            failed += n
            notes.append(f"iteration {i}: {type(exc).__name__}: {exc}")
        else:
            walls[traced].append(time.perf_counter() - t0)
            tracer.uninstall()
            n, failures = workload.check(outcome, ref)
            attempted += n
            failed += len(failures)
            notes += [f"iteration {i}: {f}" for f in failures]
        i += 1
        elapsed = time.perf_counter() - start
        if i >= min_iterations and elapsed + elapsed / i > args.seconds:
            break
    tracer.uninstall()
    try:
        work_dir.rmdir()
    except OSError:
        notes.append(f"work directory {work_dir} not empty")

    result = {
        "iterations": i,
        "threads": threads,
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "versions": versions(),
    }
    if args.trace:
        own = self_times(tracer.spans)
        per_iteration = [iteration_metrics(tracer.spans, own, k) for k in range(0, i, 2)]
        layer = {}
        for key in per_iteration[0]:
            values = [m[key] for m in per_iteration]
            if key.endswith(".failed"):
                layer[key] = sum(values)
            elif isinstance(values[0], int):
                layer[key] = statistics.median_low(values)
            else:
                layer[key] = statistics.median(values)
        for key in EXACT_COUNTERS:
            values = {m[key] for m in per_iteration}
            attempted += 1
            if len(values) != 1:
                failed += 1
                notes.append(f"counter {key} differs between traced iterations: {sorted(values)}")
            layer[key] = per_iteration[0][key]
        setup_spans = [s for s in tracer.spans if s.iteration == -1]
        layer["scenario.build_s"] = sum(s.wall for s in setup_spans if s.name == "scenario.build")
        layer["scenario.failed"] = sum(1 for s in setup_spans if s.failed)
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        result.update(per_layer=layer, traced_iterations=len(walls[True]),
                      attempted=attempted, failed=failed, notes=notes[:20])
    else:
        result.update(
            wall_s=statistics.median(walls[False]),
            walls=walls[False],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except ImportError as exc:
        print(f"cannot import aesynth from {SRC}: {exc}", file=sys.stderr)
        return 3
    if not args.setup_only:
        print("BENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
