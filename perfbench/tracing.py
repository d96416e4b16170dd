"""Span tracing from outside the program: each traced function is replaced,
in the module namespace its caller looks it up in, by a wrapper that records
a span (name, start, end, parent, info). Spans stay in memory and are written
once, when the run ends. `layer_metrics` turns a span list into the per-layer
metrics.

Names bound by `from .x import y` must be wrapped in the importing module
(e.g. `run.step`, `diagnostics.besov_norm`); functions looked up through a
module at call time (`scipy.fft.fftn`, `solver.rhs_full`,
`helmholtz.project`) are wrapped once on that module.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

NAME, START, END, PARENT, INFO = range(5)

SETUP_SPANS = frozenset({"config.parse", "spectral.make_grid", "scenarios.build"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def traced(self, fn, name: str, info=None):
        """A span-recording wrapper of fn. `info(args, kwargs, result)` may
        attach one number to the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        """Replace module.attr by its traced wrapper."""
        setattr(module, attr, self.traced(getattr(module, attr), name, info))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _fft_bytes(args, kwargs, result):
    return int(args[0].nbytes + result.nbytes)


def _besov_p(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec_or_s"]
    if hasattr(spec, "p"):
        return float(spec.p)
    return float(args[2] if len(args) > 2 else kwargs["p"])


def _grid_bytes(args, kwargs, grid):
    arrays = [grid.k1, grid.k2, grid.kmag, grid.dealias_mask, grid.nyquist_free]
    arrays += list(grid.k) + list(grid.x)
    return int(sum(a.nbytes for a in arrays))


def _file_bytes(args, kwargs, result):
    return int(os.path.getsize(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import scipy.fft

    mod = {
        name: importlib.import_module(f"cnslab.{name}")
        for name in ("config", "run", "solver", "diagnostics", "scenarios", "helmholtz", "io")
    }
    w = tracer.wrap
    for fn in ("fftn", "ifftn"):
        w(scipy.fft, fn, "spectral.fft", _fft_bytes)
    w(mod["config"], "parse_config", "config.parse")
    w(mod["run"], "make_grid", "spectral.make_grid", _grid_bytes)
    w(mod["run"], "build_scenario", "scenarios.build")
    w(mod["run"], "integrate", "run.loop")
    w(mod["run"], "run_pair", "run.loop")
    w(mod["run"], "step", "solver.step")
    w(mod["solver"], "step", "solver.step")
    w(mod["solver"], "rhs_full", "solver.rhs")
    w(mod["solver"], "dissipation_rate", "solver.dissipation")
    w(mod["diagnostics"], "dissipation_rate", "solver.dissipation")
    w(mod["diagnostics"], "lyapunov_X", "diagnostics.lyapunov")
    w(mod["diagnostics"], "low_freq_mass", "diagnostics.low_freq")
    w(mod["diagnostics"], "holder_norm", "diagnostics.holder")
    for m in (mod["diagnostics"], mod["scenarios"]):
        w(m, "besov_norm", "lp.besov", _besov_p)
        w(m, "hybrid_norm", "lp.hybrid")
    w(mod["helmholtz"], "project", "helmholtz.project")
    w(mod["scenarios"], "project", "helmholtz.project")
    for fn in ("write_series", "write_summary", "write_checkpoint", "write_plot_data"):
        w(mod["io"], fn, "io.write", _file_bytes)

    make_observer = mod["run"].make_observer

    def traced_make_observer(*args, **kwargs):
        return tracer.traced(make_observer(*args, **kwargs), "diagnostics.observe")

    mod["run"].make_observer = traced_make_observer


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run. Setup spans (config parse, grid,
    scenario build) and everything under them count only towards the setup
    metrics; every other metric covers the run from the initial state on."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    # names of every enclosing span; a parent is recorded before its children
    under = [frozenset()] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        under[i] = under[p] | {spans[p][NAME]} if p >= 0 else frozenset()
    in_run = [not (under[i] & SETUP_SPANS) and spans[i][NAME] not in SETUP_SPANS
              for i in range(n)]

    def idx(name, where=None):
        return [i for i in range(n) if spans[i][NAME] == name and in_run[i]
                and (where is None or where in under[i])]

    def total(ids):
        return float(sum(dur[i] for i in ids))

    def setup_total(name):
        return float(sum(dur[i] for i in range(n) if spans[i][NAME] == name))

    ffts, steps, rhs = idx("spectral.fft"), idx("solver.step"), idx("solver.rhs")
    snaps = idx("diagnostics.observe")
    besov = idx("lp.besov")
    fft_in_step = idx("spectral.fft", "solver.step")
    grids = [i for i in range(n) if spans[i][NAME] == "spectral.make_grid"]
    writes = idx("io.write")
    ms = 1e3
    return {
        "spectral.fft_calls": len(ffts),
        "spectral.fft_calls_per_rhs": len(idx("spectral.fft", "solver.rhs")) / len(rhs),
        "spectral.fft_calls_per_step": len(fft_in_step) / len(steps),
        "spectral.fft_calls_per_snapshot": len(idx("spectral.fft", "diagnostics.observe")) / len(snaps),
        "spectral.fft_s": total(ffts),
        "spectral.fft_bytes_per_step": sum(spans[i][INFO] for i in fft_in_step) / len(steps),
        "spectral.grid_s": setup_total("spectral.make_grid"),
        "spectral.grid_bytes": sum(spans[i][INFO] for i in grids),
        "solver.steps": len(steps),
        "solver.step_ms": statistics.median(dur[i] for i in steps) * ms,
        "solver.rhs_calls": len(rhs),
        "solver.rhs_ms": statistics.median(dur[i] for i in rhs) * ms,
        "solver.rhs_per_step": len(idx("solver.rhs", "solver.step")) / len(steps),
        "solver.dissipation_s": total(idx("solver.dissipation")),
        "run.loop_self_s": float(sum(dur[i] - child_time[i] for i in idx("run.loop"))),
        "diagnostics.snapshots": len(snaps),
        "diagnostics.observe_ms": statistics.median(dur[i] for i in snaps) * ms,
        "diagnostics.observe_self_s": float(sum(dur[i] - child_time[i] for i in snaps)),
        "diagnostics.lyapunov_s": total(idx("diagnostics.lyapunov")),
        "diagnostics.low_freq_s": total(idx("diagnostics.low_freq")),
        "diagnostics.holder_s": total(idx("diagnostics.holder")),
        "lp.besov_p2_s": total([i for i in besov if spans[i][INFO] == 2.0]),
        "lp.besov_p4_s": total([i for i in besov if spans[i][INFO] == 4.0]),
        "lp.hybrid_s": total(idx("lp.hybrid")),
        "helmholtz.project_s": total(idx("helmholtz.project")),
        "scenarios.build_s": setup_total("scenarios.build"),
        "config.parse_s": setup_total("config.parse"),
        "io.write_s": total(writes),
        "io.bytes_written": sum(spans[i][INFO] for i in writes),
    }
