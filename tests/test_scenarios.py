"""Initial-data constructors: localization, divergence structure, norm
scaling, smallness budgets, and twin-pair calibration."""

import math

import numpy as np
import pytest

from cnslab.helmholtz import project
from cnslab.lp import besov_norm
from cnslab.scenarios import (
    ScenarioConfig,
    _low_mode_modulation,
    _mode_iter,
    build_scenario,
    equilibrium_perturbation,
    large_vertical_data,
    oscillating_data,
    smooth_bump,
    stability_difference_norm,
    stability_pair,
)
from cnslab.solver import PhysicalParams
from cnslab.spectral import (
    Field,
    divergence,
    lebesgue_norm,
    make_grid,
)

PARAMS = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)


class TestSmoothBump:
    @pytest.mark.parametrize("p0", [1.0, 1.5, 2.0])
    def test_lp_norm_matches_closed_form(self, p0):
        # Gaussian-tailed bump: ||exp(-r^2/(2 s^2))||_Lp = (2 pi s^2 / p)^(3/(2p))
        grid = make_grid(48, 16.0 * np.pi, 3)
        radius = grid.length / 8.0
        sigma = radius / 2.0
        f = Field.from_physical(grid, smooth_bump(grid, radius=radius))
        expected = (2.0 * math.pi * sigma**2 / p0) ** (3.0 / (2.0 * p0))
        assert lebesgue_norm(f, p0) == pytest.approx(expected, rel=1e-6)

    def test_peak_normalized(self, grid32):
        b = smooth_bump(grid32)
        assert np.max(b) == pytest.approx(1.0)

    @pytest.mark.parametrize("center", [None, (0.3, 5.0, 2.2)])
    def test_equals_the_radial_gaussian(self, grid16, center):
        grid = grid16
        sigma = grid.length / 16.0
        c = center if center is not None else (grid.length / 2.0,) * grid.dim
        half = grid.length / 2.0
        r2 = sum(((grid.x[ax] - c[ax] + half) % grid.length - half) ** 2 for ax in range(grid.dim))
        ref = np.exp(-r2 / (2.0 * sigma**2))
        got = smooth_bump(grid, center=center)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13


class TestLowModeModulation:
    @staticmethod
    def _cosine_sum(grid, rng, max_mode=2):
        base = 2.0 * np.pi / grid.length
        out = np.zeros(grid.shape)
        count = 0
        for m in _mode_iter(grid.dim, max_mode):
            amp = rng.uniform(0.5, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            arg = sum(base * m[ax] * grid.x[ax] for ax in range(grid.dim))
            out += amp * np.cos(arg + phase)
            count += 1
        return out / math.sqrt(count)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_equals_the_cosine_sum(self, n, dim):
        grid = make_grid(n, 16.0 * np.pi, dim)
        got_rng, ref_rng = np.random.default_rng(n + dim), np.random.default_rng(n + dim)
        got = _low_mode_modulation(grid, got_rng)
        ref = self._cosine_sum(grid, ref_rng)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the draws are consumed exactly as by the sum
        assert got_rng.uniform() == ref_rng.uniform()


class TestEquilibriumPerturbation:
    def test_zero_amplitude_is_equilibrium(self, grid16):
        out = equilibrium_perturbation(grid16, 0.0, 1.0, seed=0, params=PARAMS)
        assert lebesgue_norm(out.state.a, 2) == 0.0
        assert lebesgue_norm(out.state.u, 2) == 0.0

    def test_amplitude_halving_halves_recorded_norms(self, grid16):
        full = equilibrium_perturbation(grid16, 2e-2, 1.0, seed=1, params=PARAMS)
        half = equilibrium_perturbation(grid16, 1e-2, 1.0, seed=1, params=PARAMS)
        for key in ("a0_lp0", "u0_lp0", "a0_h2", "u0_h2"):
            assert half.records[key] == pytest.approx(0.5 * full.records[key], rel=1e-12)

    def test_mean_zero_and_positive_density(self, grid16):
        for p0 in (1.0, 2.0):
            out = equilibrium_perturbation(grid16, 5e-2, p0, seed=2, params=PARAMS)
            assert abs(out.state.mean_a) < 1e-13
            assert out.state.rho_min > 0.0

    def test_determinism(self, grid16):
        a = equilibrium_perturbation(grid16, 1e-2, 1.0, seed=3, params=PARAMS)
        b = equilibrium_perturbation(grid16, 1e-2, 1.0, seed=3, params=PARAMS)
        assert np.array_equal(a.state.a.data, b.state.a.data)
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a.state.u, b.state.u))

    def test_excessive_amplitude_rejected(self, grid16):
        with pytest.raises(ValueError):
            equilibrium_perturbation(grid16, 1.5, 1.0, seed=0, params=PARAMS)

    def test_p0_two_profile_has_heavier_low_modes(self):
        # the L2-critical profile concentrates spectrally at the box scale
        grid = make_grid(32, 16.0 * np.pi, 3)
        loc = equilibrium_perturbation(grid, 1e-2, 1.0, seed=4, params=PARAMS)
        crit = equilibrium_perturbation(grid, 1e-2, 2.0, seed=4, params=PARAMS)

        from cnslab.spectral import to_spectral

        def low_fraction(state):
            s = np.abs(to_spectral(state.a).data) ** 2
            mask = state.grid.kmag <= 2.0 * state.grid.kmin
            return np.sum(s[mask]) / np.sum(s)

        assert low_fraction(crit.state) > low_fraction(loc.state)


class TestOscillatingData:
    def test_divergence_free_exactly(self, grid32):
        out = oscillating_data(grid32, eps_osc=0.25, amplitude=1.0, params=PARAMS)
        u = out.state.u
        assert lebesgue_norm(divergence(u), 2) <= 1e-12 * lebesgue_norm(u, 2)
        spl = project(u)
        assert lebesgue_norm(spl.Q, 2) <= 1e-10 * lebesgue_norm(u, 2)
        assert out.records["q_part_l2"] <= 1e-10 * lebesgue_norm(u, 2)

    def test_density_part_zero(self, grid32):
        out = oscillating_data(grid32, eps_osc=0.25, params=PARAMS)
        assert lebesgue_norm(out.state.a, 2) == 0.0

    def test_carrier_snap_recorded(self, grid32):
        # 1/eps = 3.7 snaps to the nearest lattice frequency (integer on L=2pi)
        out = oscillating_data(grid32, eps_osc=1.0 / 3.7, params=PARAMS)
        assert out.records["carrier_mode"] == 4
        assert out.records["eps_snapped"] == pytest.approx(0.25)

    def test_too_fine_oscillation_rejected(self, grid16):
        with pytest.raises(ValueError):
            oscillating_data(grid16, eps_osc=0.01, params=PARAMS)

    def test_besov_and_sobolev_scaling_with_carrier(self):
        # one dyadic shift of the carrier: the critical Besov norm moves by
        # 2^(1 - 3/p) while H^1/2 grows by about sqrt(2)
        grid = make_grid(64, 2.0 * np.pi, 3)
        p = 4.0
        s = 3.0 / p - 1.0
        coarse = oscillating_data(grid, eps_osc=1.0 / 8.0, params=PARAMS)
        fine = oscillating_data(grid, eps_osc=1.0 / 16.0, params=PARAMS)
        b_ratio = besov_norm(fine.state.u, s, p, 1) / besov_norm(coarse.state.u, s, p, 1)
        predicted = 2.0 ** (-(1.0 - 3.0 / p))
        assert 0.7 * predicted <= b_ratio <= 1.4 * predicted
        h_ratio = fine.records["hdot_half"] / coarse.records["hdot_half"]
        assert 1.3 <= h_ratio <= 1.6


class TestLargeVerticalData:
    def test_vertical_field_is_incompressible_and_pu_exact(self, grid32):
        # with a negligible small-data budget, u is the x3-independent shear
        # alone and P u3 = u3 exactly
        out = large_vertical_data(grid32, 1e-8, 2.0, vertical_amplitude=1.0,
                                  seed=0, params=PARAMS)
        u = out.state.u
        spl = project(u)
        assert lebesgue_norm(spl.P.vertical - u.vertical, 2) \
            <= 1e-7 * lebesgue_norm(u.vertical, 2)
        # at a realistic budget the gap between P u3 and u3 is exactly the
        # (small) compressible vertical part
        out2 = large_vertical_data(grid32, 1e-2, 2.0, vertical_amplitude=1.0,
                                   seed=0, params=PARAMS)
        spl2 = project(out2.state.u)
        gap = lebesgue_norm(spl2.P.vertical - out2.state.u.vertical, 2)
        assert gap <= lebesgue_norm(spl2.Q, 2) * (1.0 + 1e-12)

    def test_zero_vertical_amplitude_reduces_to_small_data(self, grid32):
        out = large_vertical_data(grid32, 1e-2, 2.0, vertical_amplitude=0.0,
                                  seed=1, params=PARAMS)
        assert out.records["pu3_besov"] == 0.0
        assert lebesgue_norm(out.state.u, np.inf) < 1.0

    def test_vertical_norm_scales_linearly(self, grid32):
        one = large_vertical_data(grid32, 1e-2, 2.0, 1.0, seed=2, params=PARAMS)
        two = large_vertical_data(grid32, 1e-2, 2.0, 2.0, seed=2, params=PARAMS)
        assert two.records["pu3_besov"] == pytest.approx(
            2.0 * one.records["pu3_besov"], rel=1e-10
        )

    def test_smallness_budget_met_and_reproducible(self, grid32):
        out = large_vertical_data(grid32, 1e-2, 2.0, 1.0, seed=3, params=PARAMS)
        assert out.records["smalldata_lhs"] <= 1e-2 * (1.0 + 1e-9)
        again = large_vertical_data(grid32, 1e-2, 2.0, 1.0, seed=3, params=PARAMS)
        assert again.records["smalldata_lhs"] == out.records["smalldata_lhs"]

    def test_record_is_the_norm_of_the_state_shear(self, grid32):
        # w(x1, x2) is the k3 = 0 plane of u3: the compressible vertical part
        # is a gradient d3 psi and has none
        out = large_vertical_data(grid32, 1e-2, 2.0, 1.0, seed=3, params=PARAMS)
        u3 = out.state.u.vertical
        w = Field(grid32, np.where(grid32.k[2] == 0.0, u3.data, 0.0), "spectral")
        assert out.records["pu3_besov"] == pytest.approx(besov_norm(w, 0.5, 2.0, 1),
                                                         rel=1e-12)

    def test_infeasible_budget_reports(self, grid32):
        with pytest.raises(ValueError, match="budget"):
            large_vertical_data(grid32, 1e-9, 2.0, 40.0, seed=4, params=PARAMS,
                                smallness_constant=5.0)


class TestStabilityPair:
    def test_zero_perturbation_identical(self, grid16):
        base = equilibrium_perturbation(grid16, 1e-2, 1.0, seed=5, params=PARAMS)
        ref, pert, rec = stability_pair(base, 0.0, seed=6)
        assert np.array_equal(ref.state.a.data, pert.state.a.data)
        assert rec["total"] == 0.0

    def test_difference_norm_hits_target(self, grid16):
        base = equilibrium_perturbation(grid16, 1e-2, 1.0, seed=7, params=PARAMS)
        eps = 1e-3
        ref, pert, rec = stability_pair(base, eps, seed=8, p=2.0)
        assert rec["total"] == pytest.approx(eps, rel=1e-12)
        # recompute each summand independently from the stored states: the
        # perturbation is drawn inside the 2/3 ball, so the twins differ by
        # exactly the recorded parts
        parts = stability_difference_norm(
            pert.state.a - ref.state.a, pert.state.u - ref.state.u, 2.0, 1.0
        )
        assert parts["total"] == pytest.approx(rec["total"], rel=1e-12)
        assert parts["rho"] + parts["P"] + parts["Q"] == pytest.approx(parts["total"])

    def test_states_share_grid(self, grid16):
        base = equilibrium_perturbation(grid16, 1e-2, 1.0, seed=9, params=PARAMS)
        ref, pert, _ = stability_pair(base, 1e-3, seed=10)
        assert ref.state.grid is pert.state.grid


class TestBand:
    @pytest.mark.parametrize("kind", ["equilibrium_perturbation", "oscillating",
                                      "large_vertical", "stability_pair"])
    def test_every_kind_starts_in_the_band(self, grid16, kind):
        cfg = ScenarioConfig(kind=kind, eps_osc=0.5, vertical_amplitude=0.5)
        built = build_scenario(cfg, grid16, PARAMS)
        states = [d.state for d in built[:2]] if kind == "stability_pair" else [built.state]
        for st in states:
            for f in (st.a, *st.u):
                assert not np.any(f.data[~grid16.dealias_mask])


class TestScenarioConfigDispatch:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="vortex_sheet")

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="oscillating", p0=3.0)
        with pytest.raises(ValueError):
            ScenarioConfig(kind="large_vertical", p=5.0)

    def test_dispatch_all_kinds(self, grid16):
        for kind in ("equilibrium_perturbation", "oscillating"):
            cfg = ScenarioConfig(kind=kind, epsilon=1e-2, eps_osc=0.5)
            built = build_scenario(cfg, grid16, PARAMS)
            assert built.state.rho_min > 0
        built = build_scenario(
            ScenarioConfig(kind="large_vertical", vertical_amplitude=0.5), grid16, PARAMS
        )
        assert built.state.rho_min > 0
        trio = build_scenario(ScenarioConfig(kind="stability_pair"), grid16, PARAMS)
        assert len(trio) == 3

    def test_oscillating_reads_bump_radius(self, grid16):
        radius = grid16.length / 12.0
        cfg = ScenarioConfig(kind="oscillating", eps_osc=0.5, bump_radius=radius)
        built = build_scenario(cfg, grid16, PARAMS).state
        ref = oscillating_data(grid16, eps_osc=0.5, params=PARAMS, bump_radius=radius).state
        default = oscillating_data(grid16, eps_osc=0.5, params=PARAMS).state
        for got, want in zip((built.a, *built.u), (ref.a, *ref.u)):
            assert np.array_equal(got.data, want.data)
        assert not np.array_equal(built.u[0].data, default.u[0].data)
