"""Run orchestration: build the scenario, integrate with diagnostics at the
snapshot cadence (the stability experiment steps a twin pair in lockstep and
differences it), continue a checkpoint on the same path, and emit
series/summary/checkpoint/plot outputs."""

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
    conlf_rhs,
    make_observer,
)
from .scenarios import build_scenario, stability_difference_norm
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
    fits = {}
    key = runconfig.fit_norm
    try:
        target = beta(runconfig.scenario.p0)
    except ValueError:
        target = None
    try:
        fit = fit_decay(series, key, window, target=target)
        fits[key] = {
            "beta_hat": fit.beta_hat,
            "residual": fit.residual,
            "window": list(fit.window),
            "n_samples": fit.n_samples,
            "target": fit.target,
            "power_law": fit.power_law,
        }
    except ValueError as exc:
        fits[key] = {"error": str(exc), "window": list(window)}
    return fits


def _conlf_witness(series, runconfig):
    """Fitted constants C_hat = max_t mlow(t)/rhs(t) per configured p0."""
    out = {}
    times = np.asarray(series.times)
    mlow = series.column("mlow")
    for p0 in runconfig.diagnostics.p0_list:
        try:
            rhs_vals = np.asarray(
                [conlf_rhs(series, t, p0, runconfig.params) for t in times]
            )
        except ValueError as exc:
            out[f"{p0:g}"] = {"error": str(exc)}
            continue
        ok = rhs_vals > 0
        ratio = np.where(ok, mlow / np.where(ok, rhs_vals, 1.0), 0.0)
        out[f"{p0:g}"] = {
            "C_hat": float(np.max(ratio)),
            "beta": beta(p0),
            "samples": int(len(times)),
        }
    return out


def execute_run(runconfig: RunConfig, outdir=None):
    """Integrate the configured scenario to its horizon and return
    (DiagnosticSeries, summary dict); files are written when outdir is given.
    Initial data that the scenario refuses raise ConfigError."""
    chash = config_hash(runconfig.raw_text)
    grid = make_grid(runconfig.grid_n, runconfig.grid_L, runconfig.grid_dim)
    try:
        built = build_scenario(runconfig.scenario, grid, runconfig.params)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc
    if runconfig.scenario.kind == "stability_pair":
        series, summary = _run_stability(runconfig, built, chash)
    else:
        series, summary = _run_single(runconfig, built.state, built.records, chash, outdir)
    return _finish(runconfig, series, summary, chash, outdir)


def resume_run(runconfig: RunConfig, checkpoint_path, outdir=None):
    """Continue a checkpointed state to the configured horizon. The state keeps
    its absolute time, so its rows fall on the snapshot times of an
    uninterrupted run; the outputs are those of `execute_run`. A checkpoint
    whose grid or parameters differ from the config's is a ValueError."""
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
    t0 = state.t
    if t0 >= runconfig.solver.T:
        raise ValueError(
            f"checkpoint time {t0:g} already at or beyond horizon {runconfig.solver.T:g}"
        )
    chash = config_hash(runconfig.raw_text)
    series, summary = _run_single(runconfig, state, {}, chash, outdir)
    series.metadata["resumed_from"] = t0
    summary["resumed_from"] = t0
    return _finish(runconfig, series, summary, chash, outdir)


def _finish(runconfig, series, summary, chash, outdir):
    summary["config"] = runconfig.echo()
    summary["config_hash"] = chash
    if outdir is not None:
        _emit(runconfig, series, summary, outdir, chash)
    return series, summary


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


def _run_single(runconfig, state0, scenario_records, chash, outdir=None):
    series = DiagnosticSeries(metadata={"config_hash": chash, "scenario": dict(scenario_records)})
    observe = make_observer(runconfig.params, runconfig.diagnostics, series)
    counters = {}
    _, final_state, fault = integrate(
        state0, runconfig.solver, runconfig.params, observe=observe,
        on_snapshot=_checkpointer(runconfig, chash, outdir), counters=counters,
    )
    series.fault = fault
    summary = {
        "scenario_records": _jsonable(scenario_records),
        "fault": fault,
        "final_time": final_state.t,
        "energy_balance": energy_balance_residual(series) if len(series) > 1 else None,
        "fits": _fit_summary(series, runconfig, state0.grid),
        "conlf_witness": _conlf_witness(series, runconfig),
        "lyapunov_constants": series.metadata.get("lyapunov_constants"),
        "counters": counters,
    }
    summary["_final_state"] = final_state  # stripped before JSON emission
    return series, summary


def run_pair(runconfig, ref_state, pert_state, pair_norm_p, pair_R0, counters=None):
    """Integrate reference and perturbed states in lockstep, recording the
    reference diagnostics and the perturbation-size norm of their difference
    at the snapshot cadence; `counters` as in `integrate`."""
    series = DiagnosticSeries()
    observe_ref = make_observer(runconfig.params, runconfig.diagnostics, series)
    diffs = []

    def observe(states, extras):
        ref, pert = states
        observe_ref(ref, extras)
        parts = stability_difference_norm(
            pert.a - ref.a, pert.u - ref.u, pair_norm_p, pair_R0
        )
        diffs.append((ref.t, parts))

    _, _, fault = integrate(
        (ref_state, pert_state), runconfig.solver, runconfig.params, observe=observe,
        counters=counters,
    )
    series.fault = fault
    return series, diffs, fault


def _run_stability(runconfig, built, chash):
    base, pert, pert_records = built
    counters = {}
    series, diffs, fault = run_pair(
        runconfig, base.state, pert.state, runconfig.scenario.p, runconfig.scenario.R0,
        counters=counters,
    )
    series.metadata["config_hash"] = chash
    diff_totals = [p["total"] for _, p in diffs]
    for name in ("rho", "P", "Q", "total"):
        series.columns[f"twin_diff_{name}"] = [p[name] for _, p in diffs]
    summary = {
        "scenario_records": _jsonable({**base.records, **pert_records}),
        "fault": fault,
        "twin_diff_max": max(diff_totals) if diff_totals else None,
        "twin_diff_final": diff_totals[-1] if diff_totals else None,
        "eps_pert": runconfig.scenario.eps_pert,
        "fits": {},
        "conlf_witness": {},
        "lyapunov_constants": series.metadata.get("lyapunov_constants"),
        "energy_balance": energy_balance_residual(series) if len(series) > 1 else None,
        "final_time": series.times[-1] if series.times else 0.0,
        "counters": counters,
    }
    return series, summary


def _emit(runconfig, series, summary, outdir, chash):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(runconfig.raw_text)
    final_state = summary.pop("_final_state", None)
    if "csv" in runconfig.out_formats:
        cio.write_series(outdir / "series.csv", series, chash)
    if "json" in runconfig.out_formats:
        cio.write_summary(outdir / "summary.json", _jsonable(summary))
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
        return {k: _jsonable(v) for k, v in obj.items() if not str(k).startswith("_")}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)
