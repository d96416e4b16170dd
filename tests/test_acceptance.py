"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them live). The heavy runs are shared through session
fixtures. All quantitative claims are desk-scale witnesses on the periodic
box; algebraic decay is checked inside the torus transient window."""

import itertools
import math

import numpy as np
import pytest

from cnslab.diagnostics import (
    DiagnosticSeries,
    DiagnosticsConfig,
    beta,
    conlf_constant,
    energy_balance_residual,
    fit_decay,
    lyapunov_nonincreasing,
    make_observer,
)
from cnslab.lp import NormSpec, bernstein_witness, besov_norm, heat_estimate_witness
from cnslab.scenarios import (
    equilibrium_perturbation,
    large_vertical_data,
    oscillating_data,
    stability_pair,
)
from cnslab.solver import (
    PhysicalParams,
    SolverConfig,
    admissible_ut,
    integrate,
    step,
)
from cnslab.spectral import Field, lebesgue_norm, make_grid
from cnslab.verify import bony_defect, helmholtz_defects, lp_defects, small_data_run

PARAMS = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)


def _report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 2.0 * np.pi, 3)


@pytest.fixture(scope="session")
def energy_run_pair():
    """Criteria 6 and 7: small-data run at N=48, L=8pi, T=5, dt0 and dt0/2."""
    grid = make_grid(48, 8.0 * np.pi, 3)
    out = {}
    for dt in (0.02, 0.01):
        state = equilibrium_perturbation(grid, 1e-2, 1.0, seed=7, params=PARAMS).state
        out[dt] = small_data_run(state, PARAMS, dt=dt, T=5.0, cadence="geometric")
        assert out[dt].fault is None
    return out


def _decay_run(n, p0, bump_radius):
    grid = make_grid(n, 32.0 * np.pi, 3)
    state = equilibrium_perturbation(
        grid, 1e-2, p0, seed=42, params=PARAMS, bump_radius=bump_radius
    ).state
    series = small_data_run(state, PARAMS, dt=0.2, T=45.0, cadence="geometric")
    assert series.fault is None
    return series


@pytest.fixture(scope="session")
def decay_runs():
    """Criteria 8 and 9: localized p0=1 data at two resolutions plus the
    L2-critical p0=2 data."""
    return {
        ("p1", 64): _decay_run(64, 1.0, 4.0),
        ("p1", 48): _decay_run(48, 1.0, 4.0),
        ("p2", 64): _decay_run(64, 2.0, None),
    }


# ---------------------------------------------------------------------------
# criteria

class TestCriterion01Helmholtz:
    def test_projector_exactness(self, grid64):
        seeds = [(100 + 3 * s, 101 + 3 * s, 102 + 3 * s) for s in range(20)]
        d = helmholtz_defects(grid64, seeds, band=(1.0, 18.0))
        ok = d["div"] <= 1e-10 and d["idempotency"] <= 1e-10 and d["pythagoras"] <= 1e-10
        _report(1, ok, f"div {d['div']:.2e}, idempotency {d['idempotency']:.2e}, "
                        f"pythagoras {d['pythagoras']:.2e} (20 fields, 64^3)")


class TestCriterion02LittlewoodPaley:
    def test_partition_and_quasi_orthogonality(self, grid64):
        d = lp_defects(grid64, seed=200, pairs=((0, 2), (1, 3), (-1, 2), (2, 4)))
        ok = (d["partition"] <= 1e-12 and d["reconstruction"] <= 1e-10
              and d["cross_block"] <= 1e-10)
        _report(2, ok, f"partition {d['partition']:.2e}, reconstruction "
                        f"{d['reconstruction']:.2e}, cross-block {d['cross_block']:.2e} (64^3)")


class TestCriterion03Bony:
    def test_paraproduct_reconstruction(self, grid64):
        pairs = [(300 + 2 * s, 301 + 2 * s) for s in (0, 1, 2)]
        worst = bony_defect(grid64, pairs, band=(1.0, 18.0))
        _report(3, worst <= 1e-9, f"reconstruction {worst:.2e} on 3 mean-zero "
                                   "pairs (64^3)")


class TestCriterion04Bernstein:
    def test_ratio_spread_over_five_scales(self):
        grid = make_grid(64, 8.0 * np.pi, 3)
        spreads = {}
        for p, q, order in ((2, 2, 1), (2, np.inf, 0), (2, 6, 1)):
            rep = bernstein_witness(grid, p, q, order, range(-2, 3), seed=4,
                                    samples_per_scale=4)
            spreads[(p, q, order)] = rep.spread
        ok = all(s <= 4.0 for s in spreads.values())
        detail = ", ".join(f"(p={p},q={q},|g|={o}): {s:.2f}"
                           for (p, q, o), s in spreads.items())
        _report(4, ok, f"spreads {detail} over j in [-2, 2]")


class TestCriterion05HeatSmoothing:
    @staticmethod
    def _seeded_modes(grid, seed, max_mode=8):
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        for m in itertools.product(range(-max_mode, max_mode + 1), repeat=3):
            if m == (0, 0, 0):
                continue
            if next(c for c in m if c != 0) < 0:
                continue
            val = 0.5 * rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            coeffs[tuple(c % grid.n for c in m)] += val
            coeffs[tuple((-c) % grid.n for c in m)] += np.conj(val)
        return Field(grid, coeffs, "spectral")

    def test_ratio_stable_under_refinement(self):
        drifts = {}
        for m, s in ((1, 0.0), (np.inf, 0.5)):
            ratios = {}
            for n in (32, 64):
                grid = make_grid(n, 2.0 * np.pi, 3)
                z0 = self._seeded_modes(grid, seed=1)
                f = self._seeded_modes(grid, seed=2)
                rep = heat_estimate_witness(z0, f, m, s, 2, 1, mu=1.0, T=1.0,
                                            n_snapshots=200)
                ratios[n] = rep.ratio
            drifts[(m, s)] = abs(ratios[64] / ratios[32] - 1.0)
        ok = all(d <= 0.2 for d in drifts.values())
        detail = ", ".join(f"(m={m},s={s}): {d:.2e}" for (m, s), d in drifts.items())
        _report(5, ok, f"ratio drift under 32^3 -> 64^3: {detail}")


class TestCriterion06EnergyIdentity:
    def test_residual_small_and_second_order(self, energy_run_pair):
        res0 = energy_balance_residual(energy_run_pair[0.02])["max_rel"]
        res1 = energy_balance_residual(energy_run_pair[0.01])["max_rel"]
        ok = res0 <= 1e-3 and res0 / res1 >= 3.0
        _report(6, ok, f"relative residual {res0:.2e} at dt0=0.02, "
                        f"improvement x{res0 / res1:.2f} at dt0/2 "
                        "(eps=1e-2, 48^3, L=8pi, T=5)")


class TestCriterion07Lyapunov:
    def test_monotone_and_equivalent(self, energy_run_pair):
        series = energy_run_pair[0.02]
        monotone = lyapunov_nonincreasing(series, tol=1e-6)
        ratio = series.column("X") / series.column("X_comparator")
        band = float(np.max(ratio) / np.min(ratio))
        ok = monotone and band <= 10.0
        _report(7, ok, f"X nonincreasing: {monotone}, equivalence band x{band:.2f} "
                        f"(A4={series.metadata['lyapunov_constants']['A4']:.3g})")


class TestCriterion08DecayExponent:
    def test_fitted_exponents(self, decay_runs):
        fit1 = fit_decay(decay_runs[("p1", 64)], "l2_au", (5.0, 40.0),
                         target=beta(1.0))
        fit2 = fit_decay(decay_runs[("p2", 64)], "l2_au", (5.0, 40.0),
                         target=beta(2.0))
        ok = abs(fit1.beta_hat - 0.75) <= 0.3 and abs(fit2.beta_hat) <= 0.15
        _report(8, ok, f"p0=1: beta_hat={fit1.beta_hat:.3f} (target 0.75 +- 0.3); "
                        f"p0=2: beta_hat={fit2.beta_hat:.3f} (target 0 +- 0.15); "
                        "64^3, L=32pi, window [5, 40] inside the torus transient")


class TestCriterion09LowFrequencyMass:
    def test_fitted_constant_stable(self, decay_runs):
        c64 = conlf_constant(decay_runs[("p1", 64)], 1.0, PARAMS)
        c48 = conlf_constant(decay_runs[("p1", 48)], 1.0, PARAMS)
        drift = abs(c48 / c64 - 1.0)
        ok = np.isfinite(c64) and np.isfinite(c48) and drift <= 0.5
        _report(9, ok, f"C_hat(64)={c64:.3g}, C_hat(48)={c48:.3g}, "
                        f"drift {drift:.2f} (<= 0.5); witness inequality holds "
                        "at every sampled t by the fitted constant")


class TestCriterion10StabilityTwins:
    def test_difference_never_grows_then_decays(self):
        grid = make_grid(32, 8.0 * np.pi, 3)
        eps_pert = 1e-3
        base = equilibrium_perturbation(grid, 1e-2, 1.0, seed=5, params=PARAMS)
        ref, pert, _ = stability_pair(base, eps_pert, seed=6, p=2.0)
        cfg = SolverConfig(dt=0.05, T=20.0, scheme="imex2", cadence="geometric",
                           strict_mode=True)
        series = DiagnosticSeries()
        observe = make_observer(PARAMS, DiagnosticsConfig(), series, twin=(2.0, 1.0))
        _, _, fault = integrate((ref.state, pert.state), cfg, PARAMS, observe=observe)
        assert fault is None, fault  # a fault ends the twin run early
        diffs = series.column("twin_diff_total")
        ok = diffs.max() <= 10.0 * eps_pert and diffs[-1] < diffs.max()
        _report(10, ok, f"max diff {diffs.max():.2e} (<= {10 * eps_pert:.0e}), "
                         f"final {diffs[-1]:.2e} < max (T=20, 32^3)")


class TestCriterion11LargeVertical:
    def test_vertical_component_bounded(self):
        grid = make_grid(48, 8.0 * np.pi, 3)
        eps = 1e-2
        built = large_vertical_data(grid, eps, 2.0, vertical_amplitude=1.0,
                                    seed=13, params=PARAMS)
        cfg = SolverConfig(dt=0.05, T=20.0, scheme="imex2", cadence="geometric",
                           strict_mode=True)
        series = DiagnosticSeries()
        diag = DiagnosticsConfig(p0_list=[1.0],
                                 norms=[("Pu3", NormSpec(s=0.5, p=2, r=1))])
        observe = make_observer(PARAMS, diag, series)
        _, _, fault = integrate(built.state, cfg, PARAMS, observe=observe)
        col = series.column("Pu3:besov:s=0.5,p=2,r=1")
        bound = 2.0 * built.records["pu3_besov"] + 10.0 * eps
        tracked_finite = all(np.all(np.isfinite(series.column(k)))
                             for k in series.columns)
        ok = fault is None and bool(np.all(col <= bound)) and tracked_finite
        _report(11, ok, f"no fault, ||Pu3(t)|| max {col.max():.3g} <= "
                         f"2*{built.records['pu3_besov']:.3g} + 10 eps = {bound:.3g} "
                         "(slack factor 10 recorded; 48^3, T=20)")


class TestCriterion12AdmissibleCondition:
    def test_first_step_defect_first_order(self):
        grid = make_grid(32, 8.0 * np.pi, 3)
        state = equilibrium_perturbation(grid, 1e-2, 1.0, seed=3, params=PARAMS).state
        target = admissible_ut(state.a, state.u, PARAMS)

        def defect(dt):
            cfg = SolverConfig(dt=dt, T=dt, scheme="imex2", adaptive=False)
            nxt = step(state, cfg, PARAMS)
            fd = (1.0 / dt) * (nxt.u - state.u)
            return math.sqrt(sum(lebesgue_norm(a - b, 2) ** 2
                                 for a, b in zip(fd, target)))

        ratio = defect(0.02) / defect(0.01)
        _report(12, 1.5 <= ratio <= 3.0,
                f"defect ratio under dt-halving {ratio:.3f} in [1.5, 3]")


class TestCriterion13OscillatingScaling:
    def test_norm_scaling_one_dyadic_shift(self, grid64):
        p = 4.0
        s = 3.0 / p - 1.0
        coarse = oscillating_data(grid64, eps_osc=1.0 / 8.0, params=PARAMS)
        fine = oscillating_data(grid64, eps_osc=1.0 / 16.0, params=PARAMS)
        b_ratio = (besov_norm(fine.state.u, s, p, 1)
                   / besov_norm(coarse.state.u, s, p, 1))
        predicted = 2.0 ** (-(1.0 - 3.0 / p))
        rel = b_ratio / predicted
        h_ratio = fine.records["hdot_half"] / coarse.records["hdot_half"]
        ok = 0.7 <= rel <= 1.4 and 1.3 <= h_ratio <= 1.6
        _report(13, ok, f"Besov ratio {b_ratio:.3f} = {rel:.2f} x 2^(-1/4); "
                         f"Hdot(1/2) growth {h_ratio:.3f} (predicted sqrt(2))")
