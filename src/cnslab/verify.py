"""Structural checks, one function of its inputs each, returning what it
measured: the acceptance tests call them at their sizes (criteria 1-3, 6-7),
the `cnslab verify` suites at 16^3-32^3, where each check prints one line and
a failing suite maps to exit code 4 at the CLI."""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import (
    DiagnosticSeries,
    DiagnosticsConfig,
    energy_balance_residual,
    fit_decay,
    lyapunov_nonincreasing,
    make_observer,
)
from .helmholtz import project
from .lp import DyadicDecomposition, bony_decompose, dyadic_block, partition_of_unity_error
from .scenarios import equilibrium_perturbation
from .solver import PhysicalParams, SolverConfig, integrate
from .spectral import (
    VectorField,
    constant_field,
    dealiased_product,
    divergence,
    lebesgue_norm,
    make_grid,
    mean_value,
    random_field,
)

__all__ = ["helmholtz_defects", "lp_defects", "bony_defect", "small_data_run",
           "run_suite", "SUITES"]


def _demeaned(f):
    return f - mean_value(f) * constant_field(f.grid, 1.0)


def helmholtz_defects(grid, seeds, band) -> dict:
    """Worst L^2 defects of u = Pu + Qu over the fields drawn with each seed
    triple in `band`: `div` |div Pu|/|u|, `idempotency` |P(Pu) - Pu|/|u|,
    `pythagoras` ||Pu|^2 + |Qu|^2 - |u|^2|/|u|^2 and `qu_d` ||Qu| - |d||/|d|."""
    worst = dict.fromkeys(("div", "idempotency", "pythagoras", "qu_d"), 0.0)
    for triple in seeds:
        u = VectorField([random_field(grid, seed=s, band=band) for s in triple])
        norm_u = lebesgue_norm(u, 2)
        spl = project(u)
        again = project(spl.P)
        norm_d = lebesgue_norm(spl.d, 2)
        defects = {
            "div": lebesgue_norm(divergence(spl.P), 2) / norm_u,
            "idempotency": math.sqrt(sum(lebesgue_norm(a - b, 2) ** 2
                                         for a, b in zip(again.P, spl.P))) / norm_u,
            "pythagoras": abs(lebesgue_norm(spl.P, 2) ** 2 + lebesgue_norm(spl.Q, 2) ** 2
                              - norm_u**2) / norm_u**2,
            "qu_d": abs(lebesgue_norm(spl.Q, 2) - norm_d) / max(norm_d, 1e-30),
        }
        worst = {key: max(worst[key], val) for key, val in defects.items()}
    return worst


def lp_defects(grid, seed, pairs) -> dict:
    """`partition`: the partition-of-unity error on `grid`; for f drawn with
    `seed`, `reconstruction`: |sum_j Delta_j f - (f - mean)|/|f - mean|, and
    `cross_block`: the largest |Delta_k Delta_j f|/|f| over the (j, k) `pairs`."""
    f = random_field(grid, seed=seed)
    target = _demeaned(f)
    recon = DyadicDecomposition.decompose(f).reconstruct()
    norm_f = lebesgue_norm(f, 2)
    return {
        "partition": partition_of_unity_error(grid),
        "reconstruction": lebesgue_norm(recon - target, 2) / lebesgue_norm(target, 2),
        "cross_block": max(lebesgue_norm(dyadic_block(dyadic_block(f, j), k), 2) / norm_f
                           for j, k in pairs),
    }


def bony_defect(grid, seed_pairs, band) -> float:
    """Worst |T_u v + T_v u + R(u, v) - uv|/|uv| (dealiased uv) over the
    mean-zero pairs drawn with each (seed_u, seed_v) in `band`."""
    worst = 0.0
    for seed_u, seed_v in seed_pairs:
        u = _demeaned(random_field(grid, seed=seed_u, band=band))
        v = _demeaned(random_field(grid, seed=seed_v, band=band))
        tuv, tvu, rem = bony_decompose(u, v)
        direct = dealiased_product(u, v)
        worst = max(worst, lebesgue_norm(tuv + tvu + rem - direct, 2)
                    / lebesgue_norm(direct, 2))
    return worst


def small_data_run(state, params, dt, T, cadence) -> DiagnosticSeries:
    """The observed strict-mode imex2 run of `state` to time T; the series
    carries the run's fault, None when it completes."""
    cfg = SolverConfig(dt=dt, T=T, cadence=cadence, strict_mode=True)
    series = DiagnosticSeries()
    observe = make_observer(params, DiagnosticsConfig(p0_list=[1.0]), series)
    _, _, series.fault = integrate(state, cfg, params, observe=observe)
    return series


# Each suite returns its checks as (name, passed, detail) in print order.

def _suite_lp():
    grid = make_grid(32, 2 * np.pi, 3)
    d = lp_defects(grid, seed=1, pairs=[(0, 3)])
    bony = bony_defect(grid, [(2, 3)], band=(0.5, grid.n // 4))
    return [
        ("partition of unity", d["partition"] <= 1e-12, f"max err {d['partition']:.2e}"),
        ("block reconstruction", d["reconstruction"] <= 1e-10,
         f"rel err {d['reconstruction']:.2e}"),
        ("quasi-orthogonality", d["cross_block"] <= 1e-10, f"rel {d['cross_block']:.2e}"),
        ("paraproduct reconstruction", bony <= 1e-9, f"rel err {bony:.2e}"),
    ]


def _suite_helmholtz():
    d = helmholtz_defects(make_grid(32, 2 * np.pi, 3), [(4, 5, 6)], band=(0.5, 8.0))
    return [
        ("div(Pu) = 0", d["div"] <= 1e-10, f"rel {d['div']:.2e}"),
        ("P idempotent", d["idempotency"] <= 1e-10, f"rel err {d['idempotency']:.2e}"),
        ("energy Pythagoras", d["pythagoras"] <= 1e-10, f"rel {d['pythagoras']:.2e}"),
        ("||Qu|| = ||d||", d["qu_d"] <= 1e-10, f"rel {d['qu_d']:.2e}"),
    ]


def _suite_energy():
    # the data and run of criteria 6-7 on 16^3 in place of 48^3
    params = PhysicalParams()
    grid = make_grid(16, 8 * np.pi, 3)
    state = equilibrium_perturbation(grid, 1e-2, 1.0, seed=7, params=params).state
    series = small_data_run(state, params, dt=0.02, T=5.0, cadence="geometric")
    res = energy_balance_residual(series)["max_rel"]
    return [
        ("small-data run completes", series.fault is None, ""),
        ("energy balance residual", res <= 1e-2, f"{res:.2e}"),
        ("Lyapunov nonincreasing", lyapunov_nonincreasing(series), ""),
    ]


def _suite_decay():
    series = DiagnosticSeries()
    for t in np.linspace(0.0, 60.0, 121):
        series.append(t, {"y": (1.0 + t) ** -0.75, "z": 3.0 * (1.0 + t) ** -0.5,
                          "w": np.exp(-t)})
    f1, f2, f3 = (fit_decay(series, key, (5.0, 50.0)) for key in "yzw")
    return [
        ("exact power law", abs(f1.beta_hat - 0.75) <= 1e-10 and f1.power_law, ""),
        ("prefactor invariance", abs(f2.beta_hat - 0.5) <= 1e-10, ""),
        ("exponential flagged", not f3.power_law, f"residual {f3.residual:.3g}"),
    ]


SUITES = {
    "lp": _suite_lp,
    "helmholtz": _suite_helmholtz,
    "energy": _suite_energy,
    "decay": _suite_decay,
}


def run_suite(name: str) -> bool:
    """Run the suite `name` of SUITES, or every suite for "all", printing one
    line per check; True when every check passes."""
    ok = True
    for key in SUITES if name == "all" else [name]:
        print(f"suite {key}:")
        for check, passed, detail in SUITES[key]():
            print(f"  [{'ok' if passed else 'FAIL'}] {check}" + (f"  ({detail})" if detail else ""))
            ok &= bool(passed)
    return ok
