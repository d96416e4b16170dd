"""Run orchestration: build the scenario, integrate it with diagnostics at
the snapshot cadence, continue a checkpoint, and emit series/summary/
checkpoint/plot outputs. A single state, a continued checkpoint and a
stability twin pair (stepped in lockstep, the norm of its difference
recorded in each row) all take one path, `_run`."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import io as cio
from .config import ConfigError, RunConfig, config_hash
from .diagnostics import (
    DiagnosticSeries,
    default_fit_window,
    energy_balance_residual,
    fit_decay,
    beta,
    conlf_constant,
    make_observer,
)
from .scenarios import build_scenario
from .solver import integrate, step  # noqa: F401  (perfbench/tracing.py wraps run.step)
from .spectral import make_grid

__all__ = ["execute_run", "resume_run", "run_pair"]


def _fit_summary(series, runconfig, grid):
    """Decay fit over the configured window. Without one, the default window
    is used, and a run that ends before it opens records no fit."""
    window = runconfig.fit_window
    if window is None:
        window = default_fit_window(grid)
        if window[0] >= runconfig.solver.T:
            return {}
    key = runconfig.fit_norm
    try:
        target = beta(runconfig.scenario.p0)
    except ValueError:
        target = None
    try:
        return {key: fit_decay(series, key, window, target=target).report()}
    except ValueError as exc:
        return {key: {"error": str(exc), "window": list(window)}}


def _conlf_witness(series, runconfig):
    """Fitted constants C_hat of the low-frequency bound per configured p0."""
    out = {}
    for p0 in runconfig.diagnostics.p0_list:
        try:
            c_hat = conlf_constant(series, p0, runconfig.params)
            out[f"{p0:g}"] = {"C_hat": c_hat, "beta": beta(p0), "samples": len(series)}
        except ValueError as exc:
            out[f"{p0:g}"] = {"error": str(exc)}
    return out


def execute_run(runconfig: RunConfig, outdir=None):
    """Integrate the configured scenario to its horizon and return
    (DiagnosticSeries, summary dict); files are written when outdir is given.
    Initial data that the scenario refuses raise ConfigError."""
    grid = make_grid(runconfig.grid_n, runconfig.grid_L, runconfig.grid_dim)
    try:
        built = build_scenario(runconfig.scenario, grid, runconfig.params)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc
    if runconfig.scenario.kind == "stability_pair":
        base, pert, pert_records = built
        return _run(runconfig, (base.state, pert.state), {**base.records, **pert_records}, outdir)
    return _run(runconfig, built.state, built.records, outdir)


def resume_run(runconfig: RunConfig, checkpoint_path, outdir=None):
    """Continue a checkpointed state to the configured horizon. The state keeps
    its absolute time, so its rows fall on the snapshot times of an
    uninterrupted run; the outputs are those of `execute_run`. A twin config
    (a twin run writes no checkpoint) or a checkpoint whose grid or
    parameters differ from the config's is a ValueError."""
    if runconfig.scenario.kind == "stability_pair":
        raise ValueError("resume continues a single state; [scenario] kind = "
                         f"{runconfig.scenario.kind} runs a twin pair")
    state, _saved_hash = cio.read_checkpoint(checkpoint_path)
    header = {  # key: (checkpoint, config)
        "n": (state.grid.n, runconfig.grid_n),
        "L": (state.grid.length, runconfig.grid_L),
        "dim": (state.grid.dim, runconfig.grid_dim),
        "mu": (state.params.mu, runconfig.params.mu),
        "lambda": (state.params.lam, runconfig.params.lam),
        "gamma": (state.params.gamma, runconfig.params.gamma),
    }
    mismatched = [
        f"{key} {got} (config {want})" for key, (got, want) in header.items() if got != want
    ]
    if mismatched:
        raise ValueError(f"checkpoint {checkpoint_path} is from another run: "
                         + ", ".join(mismatched))
    if state.t >= runconfig.solver.T:
        raise ValueError(
            f"checkpoint time {state.t:g} already at or beyond horizon {runconfig.solver.T:g}"
        )
    return _run(runconfig, state, {}, outdir, resumed_from=state.t)


def run_pair(runconfig, ref_state, pert_state):
    """The series of a twin pair stepped in lockstep: the reference's columns
    followed by the `twin_diff_*` columns of their difference. (perfbench's
    tracer wraps `run.run_pair` by name.)"""
    series, _ = _run(runconfig, (ref_state, pert_state), {})
    return series


def _checkpointer(runconfig, chash, outdir):
    """on_snapshot hook writing every checkpoint_every-th snapshot after the
    first, or None when the run writes no intermediate checkpoints."""
    if (
        outdir is None
        or runconfig.checkpoint_every <= 0
        or "checkpoint" not in runconfig.out_formats
    ):
        return None
    ckpt_dir = Path(outdir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    counter = {"n": 0}

    def on_snapshot(state, istep):
        if counter["n"] % runconfig.checkpoint_every == 0 and counter["n"] > 0:
            cio.write_checkpoint(ckpt_dir / f"step_{istep:08d}.ckpt", state, chash)
        counter["n"] += 1

    return on_snapshot


def _run(runconfig, states, records, outdir=None, resumed_from=None):
    """The one run path: observe `states` (one state, or a twin pair
    (reference, perturbed) stepped in lockstep) at the snapshot cadence up to
    the horizon, summarise the series and write the outputs when `outdir` is
    given. Returns (series, summary), the summary JSON values only.

    A pair's row adds the difference norm at `[scenario] p, R0`, its summary
    adds `eps_pert`, `twin_diff_max` and `twin_diff_final`, and it writes no
    checkpoint; every other entry is that of the reference state."""
    chash = config_hash(runconfig.raw_text)
    pair = isinstance(states, tuple)
    series = DiagnosticSeries(metadata={"config_hash": chash, "scenario": dict(records)})
    twin = (runconfig.scenario.p, runconfig.scenario.R0) if pair else None
    observe = make_observer(runconfig.params, runconfig.diagnostics, series, twin=twin)
    counters = {}
    _, final, fault = integrate(
        states, runconfig.solver, runconfig.params, observe=observe,
        on_snapshot=None if pair else _checkpointer(runconfig, chash, outdir),
        counters=counters,
    )
    series.fault = fault
    reference = final[0] if pair else final
    summary = {
        "scenario_records": records,
        "fault": fault,
        "final_time": reference.t,
        "energy_balance": energy_balance_residual(series) if len(series) > 1 else None,
        "fits": _fit_summary(series, runconfig, reference.grid),
        "conlf_witness": _conlf_witness(series, runconfig),
        "lyapunov_constants": series.metadata.get("lyapunov_constants"),
        "counters": counters,
        "config": runconfig.echo(),
        "config_hash": chash,
    }
    if pair:
        diffs = series.column("twin_diff_total")
        summary.update(eps_pert=runconfig.scenario.eps_pert,
                       twin_diff_max=diffs.max(), twin_diff_final=diffs[-1])
    if resumed_from is not None:
        series.metadata["resumed_from"] = summary["resumed_from"] = resumed_from
    summary = _jsonable(summary)
    if outdir is not None:
        _emit(runconfig, series, summary, None if pair else final, outdir, chash)
    return series, summary


def _emit(runconfig, series, summary, final_state, outdir, chash):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(runconfig.raw_text)
    if "csv" in runconfig.out_formats:
        cio.write_series(outdir / "series.csv", series, chash)
    if "json" in runconfig.out_formats:
        cio.write_summary(outdir / "summary.json", summary)
    if "checkpoint" in runconfig.out_formats and final_state is not None:
        cio.write_checkpoint(outdir / "final.ckpt", final_state, chash)
    if "plots" in runconfig.out_formats or "csv" in runconfig.out_formats:
        key = runconfig.fit_norm
        if key in series.columns:
            cio.write_plot_data(
                outdir / f"plot_{key.replace(':', '_').replace(',', '_')}.dat",
                series.times,
                series.column(key),
                label=f"t  {key}",
                config_hash=chash,
            )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)
