"""Span tracer for the traced benchmark run.

The tracer wraps aesynth's public functions at every module attribute a
caller looks them up through (``aesynth.cli.das_sa``,
``aesynth.forward.simulate_channel``, ``aesynth.io.write_values_csv``, ...).
Nothing in the package changes; the wrappers exist only between
``install()`` and ``uninstall()``.  Each call becomes one span
``(name, layer, start, end, cpu_start, cpu_end, parent, iteration)`` held in
memory, plus counters that a hook computes from the call's arguments and
result after the span has ended.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "scenario", "forward", "acquisition", "reconstruct", "coherence",
    "metrics", "io", "cli", "suite",
)

# Public functions whose calls become spans; the layer is the module that
# defines the function, wherever the caller imported it from.
TRACED = frozenset({
    "simulate_dataset", "simulate_channel",
    "add_thermal_noise", "differential_subtract", "matched_filter",
    "das_sa", "fus_line_map", "envelope",
    "coherence_factor", "coherence_factor_pl", "effective_beam_map",
    "apply_weighting", "amplitude_correct",
    "evaluate_targets",
    "write_channel_file", "read_channel_file", "write_values_csv",
    "read_values_csv", "write_envelope_pgm", "write_linear_pgm", "write_csv_rows",
    "run_simulate", "run_reconstruct", "evaluate_bundles",
    "run_paper_suite",
})

# Counters that depend only on the workload's shape, never on its noise seed;
# every traced iteration must reproduce them exactly.
EXACT_COUNTERS = (
    "forward.events", "forward.wave_cells", "reconstruct.aperture_bytes",
    "reconstruct.window_frac", "io.aecd_bytes", "cli.calls",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: int | None
    iteration: int
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def _nbytes_besides_image(result) -> int:
    """ndarray bytes of everything ``das_sa`` returns after the image."""
    if not isinstance(result, tuple):
        return 0
    total = 0
    for extra in result[1:]:
        if isinstance(extra, np.ndarray):
            total += extra.nbytes
            continue
        for value in vars(extra).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


def _window_cells(data, grid, f_number) -> tuple[int, int]:
    """Sub-aperture window cells summed over pixels, and nz * nx * M."""
    from aesynth.reconstruct import sub_aperture_size

    geometry = data.geometry
    m = geometry.num_elements
    nearest = np.array([geometry.nearest_element(x) for x in grid.x_coords()])
    used = 0
    for z in grid.z_coords():
        m_sa = sub_aperture_size(z, f_number, geometry.pitch, m)
        lo = np.maximum(nearest - (m_sa - 1) // 2, 0)
        hi = np.minimum(nearest + m_sa // 2, m - 1)
        used += int((hi - lo + 1).sum())
    return used, grid.nz * grid.nx * m


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_simulate(args, kwargs, result):
    s_field = _arg(args, kwargs, 0, "s_field")
    events = list(_arg(args, kwargs, 1, "events"))
    active = sum(ev.num_active for ev in events)
    return {
        "events": len(events),
        "wave_cells": active * int(np.count_nonzero(s_field.values)),
        "sa": all(ev.num_active == 1 for ev in events),
    }


def _count_das(args, kwargs, result):
    used, full = _window_cells(
        _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "grid"),
        _arg(args, kwargs, 2, "f_number"),
    )
    return {"aperture_bytes": _nbytes_besides_image(result),
            "window_cells": used, "full_cells": full}


def _count_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


COUNTERS = {
    "simulate_dataset": _count_simulate,
    "das_sa": _count_das,
    "write_channel_file": _count_written,
    "write_values_csv": _count_written,
    "write_csv_rows": _count_written,
}


class Tracer:
    """In-memory span recorder; ``span()`` also times the benchmark's own steps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = -1
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread's first call belongs to the span that started the pool.
        return self._main_stack[-1] if self._main_stack else None

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(name, layer, 0.0, 0.0, 0.0, 0.0, self._parent(stack), self.iteration)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span.cpu_start = time.process_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        except Exception:
            span.failed = True
            raise
        finally:
            self._close(span)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each layer-module attribute binding it."""
        if self._installed:
            return
        # Import every layer before wrapping any, so that no module binds a
        # wrapper through its own ``from .x import y`` and gets wrapped twice.
        modules = [importlib.import_module(f"aesynth.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr in TRACED
                    and callable(value)
                    and getattr(value, "__module__", "").startswith("aesynth.")
                ):
                    self._installed.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()


class NullTracer:
    """Stand-in for untraced runs: installs nothing and records nothing."""

    iteration = -1

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        s.wall - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def iteration_metrics(all_spans: list[Span], own: list[float], iteration: int) -> dict:
    """Per-layer metrics of one traced iteration; ``own`` is ``self_times(all_spans)``."""
    picked = [(s, t) for s, t in zip(all_spans, own) if s.iteration == iteration]
    spans = [s for s, _ in picked]

    def wall(*names, **where):
        return sum(
            (s.wall for s in spans
             if s.name in names and all(s.counts.get(k) == v for k, v in where.items())),
            0.0,
        )

    def cpu(*names):
        return sum((s.cpu for s in spans if s.name in names), 0.0)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    wave_cells = count("forward.simulate_dataset", "wave_cells")
    sim_s = wall("forward.simulate_dataset")
    full_cells = count("reconstruct.das_sa", "full_cells")
    cli_verbs = ("cli.run_simulate", "cli.run_reconstruct", "cli.evaluate_bundles")

    out = {
        "forward.sim_sa_s": wall("forward.simulate_dataset", sa=True),
        "forward.sim_fus_s": wall("forward.simulate_dataset", sa=False),
        "forward.sim_cpu_s": cpu("forward.simulate_dataset"),
        "forward.events": count("forward.simulate_dataset", "events"),
        "forward.wave_cells": wave_cells,
        "forward.ns_per_wave_cell": sim_s * 1e9 / wave_cells if wave_cells else 0.0,
        "acquisition.condition_s": wall(
            "acquisition.differential_subtract", "acquisition.matched_filter",
            "acquisition.add_thermal_noise",
        ),
        "reconstruct.das_sa_s": wall("reconstruct.das_sa"),
        "reconstruct.das_sa_cpu_s": cpu("reconstruct.das_sa"),
        "reconstruct.fus_line_map_s": wall("reconstruct.fus_line_map"),
        "reconstruct.envelope_s": wall("reconstruct.envelope"),
        "reconstruct.aperture_bytes": max(
            (s.counts.get("aperture_bytes", 0) for s in spans if s.name == "reconstruct.das_sa"),
            default=0,
        ),
        "reconstruct.window_frac": (
            count("reconstruct.das_sa", "window_cells") / full_cells if full_cells else 0.0
        ),
        "coherence.cf_s": wall("coherence.coherence_factor"),
        "coherence.cfpl_s": wall("coherence.coherence_factor_pl"),
        "coherence.cfpl_cpu_s": cpu("coherence.coherence_factor_pl"),
        "coherence.beam_map_s": wall("coherence.effective_beam_map"),
        "coherence.weight_s": wall("coherence.apply_weighting", "coherence.amplitude_correct"),
        "metrics.evaluate_s": wall("metrics.evaluate_targets"),
        "io.aecd_write_s": wall("io.write_channel_file"),
        "io.aecd_read_s": wall("io.read_channel_file"),
        "io.aecd_bytes": count("io.write_channel_file", "bytes"),
        "io.csv_write_s": wall("io.write_values_csv", "io.write_csv_rows"),
        "io.csv_read_s": wall("io.read_values_csv"),
        "io.csv_bytes": count("io.write_values_csv", "bytes") + count("io.write_csv_rows", "bytes"),
        "io.pgm_write_s": wall("io.write_envelope_pgm", "io.write_linear_pgm"),
        "cli.run_simulate_s": wall("cli.run_simulate"),
        "cli.run_reconstruct_s": wall("cli.run_reconstruct"),
        "cli.evaluate_bundles_s": wall("cli.evaluate_bundles"),
        "cli.calls": sum(1 for s in spans if s.name in cli_verbs),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((t for s, t in picked if s.layer == layer), 0.0)
        out[f"{layer}.failed"] = sum(1 for s in spans if s.layer == layer and s.failed)
    return out
