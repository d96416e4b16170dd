"""Energy functionals, Lyapunov machinery, low-frequency mass, decay fits,
and the series container."""

import itertools
import math

import numpy as np
import pytest

from cnslab.diagnostics import (
    DiagnosticSeries,
    DiagnosticsConfig,
    LyapunovConstants,
    _LipschitzIntegral,
    beta,
    calibrate_lyapunov,
    conlf_rhs,
    energy_balance_residual,
    fit_decay,
    holder_norm,
    l4_energy,
    low_freq_mass,
    lyapunov_X,
    make_observer,
    norm_column_name,
    pressure_cross_density,
    relative_entropy,
    select_field,
)
from cnslab.solver import FlowState, PhysicalParams, SolverConfig, integrate
from cnslab.spectral import (
    Field,
    PositivityFault,
    VectorField,
    _pdata,
    constant_field,
    field_from_function,
    lebesgue_norm,
    make_grid,
    random_field,
)

PARAMS = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)


class TestRelativeEntropy:
    def test_equilibrium_is_zero(self, grid16):
        assert relative_entropy(Field.zeros(grid16), 1.4) == 0.0

    def test_gamma_two_matches_l2_of_a(self, grid16):
        # gamma = 2: H(rho|1) = (rho-1)^2 pointwise
        a = 0.3 * random_field(grid16, seed=0, band=(0.5, 3.0))
        got = relative_entropy(a, 2.0)
        assert got == pytest.approx(lebesgue_norm(a, 2) ** 2, rel=1e-12)

    def test_gamma_one_constant_density(self, grid16):
        a = constant_field(grid16, 1.0)  # rho = 2
        vol = (2.0 * np.pi) ** 3
        assert relative_entropy(a, 1.0) == pytest.approx((2.0 * math.log(2.0) - 1.0) * vol)

    def test_positive_away_from_equilibrium(self, grid16):
        a = 0.2 * random_field(grid16, seed=1, band=(0.5, 3.0))
        assert relative_entropy(a, 1.4) > 0.0

    def test_positivity_fault(self, grid16):
        with pytest.raises(PositivityFault):
            relative_entropy(constant_field(grid16, -1.5), 1.4)


class TestPressureCrossDensity:
    def test_value_at_two_gamma_one(self):
        # 1/2 (rho-1)^2 - (rho ln rho - rho + 1) at rho = 2, lam + 2 mu = 1
        got = pressure_cross_density(np.array([2.0]), 1.0, -1.0, 1.0)
        assert got[0] == pytest.approx(0.5 - (2.0 * math.log(2.0) - 1.0))
        assert got[0] == pytest.approx(0.113706, abs=1e-6)

    def test_vanishes_at_equilibrium(self):
        for g in (1.0, 1.4, 2.0):
            assert pressure_cross_density(np.array([1.0]), g, 0.0, 1.0)[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0])
    def test_dominated_by_entropy(self, gamma):
        from cnslab.diagnostics import entropy_density

        rho = np.linspace(0.2, 3.0, 400)
        f = np.abs(pressure_cross_density(rho, gamma, 0.0, 1.0))
        h = entropy_density(rho, gamma)
        keep = np.abs(rho - 1.0) > 1e-6
        assert np.all(f[keep] <= 4.0 * h[keep])


class TestL4Energy:
    def test_zero_velocity(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        assert l4_energy(st) == 0.0

    def test_sine_fourth_power(self, grid16):
        u = VectorField([field_from_function(grid16, lambda x, y, z: np.sin(x)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        st = FlowState(0.0, Field.zeros(grid16), u, PARAMS)
        vol = (2.0 * np.pi) ** 3
        assert l4_energy(st) == pytest.approx(0.375 * vol, rel=1e-12)

    def test_quartic_scaling(self, grid16):
        u = VectorField([random_field(grid16, seed=2, band=(0.5, 3.0)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        st1 = FlowState(0.0, Field.zeros(grid16), u, PARAMS)
        st2 = FlowState(0.0, Field.zeros(grid16), 2.0 * u, PARAMS)
        assert l4_energy(st2) == pytest.approx(16.0 * l4_energy(st1), rel=1e-12)


class TestLyapunov:
    def test_equilibrium_zero(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        res = lyapunov_X(st, PARAMS, LyapunovConstants())
        assert res.X == 0.0
        assert res.comparator == 0.0

    def test_specialization_to_basic_energy_terms(self, grid16):
        # A2 = 0 and A4 = 1 with the rest zero leaves int H + ||sqrt(rho) u||^2
        a = 0.05 * random_field(grid16, seed=3, band=(0.5, 3.0))
        u = VectorField([0.05 * random_field(grid16, seed=4 + i, band=(0.5, 3.0))
                         for i in range(3)])
        st = FlowState(0.0, a, u, PARAMS)
        consts = LyapunovConstants(A1=0, A2=0, A3=0, A4=1, A5=0, A6=0)
        got = lyapunov_X(st, PARAMS, consts).X
        from cnslab.spectral import _pdata, _cell

        rho = st.rho_phys
        u2 = sum(np.real(_pdata(c)) ** 2 for c in u.components)
        expected = relative_entropy(a, PARAMS.gamma) + float(np.sum(rho * u2) * _cell(grid16))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_calibrated_constants_keep_x_positive(self, grid16):
        a = 0.2 * random_field(grid16, seed=8, band=(0.5, 3.0))
        u = VectorField([0.2 * random_field(grid16, seed=9 + i, band=(0.5, 3.0))
                         for i in range(3)])
        st = FlowState(0.0, a, u, PARAMS)
        consts = calibrate_lyapunov(st, PARAMS)
        assert consts.A4 >= 1.0
        res = lyapunov_X(st, PARAMS, consts)
        assert res.X > 0.0
        assert res.ratio > 0.0

    def test_calibration_finite_for_nearly_constant_density(self, grid16):
        def a4(amp):
            a = field_from_function(grid16, lambda x, y, z: amp * np.cos(x))
            return calibrate_lyapunov(FlowState(0.0, a, VectorField.zeros(grid16), PARAMS),
                                      PARAMS).A4

        ref = a4(1e-4)
        for amp in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6):
            got = a4(amp)
            assert math.isfinite(got)
            assert abs(got - ref) <= 1e-3


class TestLowFreqMass:
    def test_equilibrium(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        assert low_freq_mass(st, 0.0) == 0.0

    def test_empty_shell_keeps_only_mean_momentum(self, grid16):
        # at t=1 the radius 1/sqrt(2) excludes every nonzero mode of kmin = 1
        u = VectorField([constant_field(grid16, 0.25), Field.zeros(grid16),
                         Field.zeros(grid16)])
        st0 = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        assert low_freq_mass(st0, 1.0) == 0.0
        st = FlowState(0.0, Field.zeros(grid16), u, PARAMS)
        vol = grid16.volume
        expected = (0.25 * vol) ** 2 * (2.0 * np.pi / grid16.length) ** 3
        assert low_freq_mass(st, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_single_low_mode_direct_enumeration(self, grid16):
        a = field_from_function(grid16, lambda x, y, z: 0.01 * np.sin(x))
        u = VectorField([field_from_function(grid16, lambda x, y, z: 0.02 * np.cos(x)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        st = FlowState(0.0, a, u, PARAMS)
        got = low_freq_mass(st, 0.0, c_split=1.0)

        # brute force: explicit loop over lattice modes inside the ball
        from cnslab.spectral import dealiased_product

        vol = grid16.volume
        rho = Field.from_physical(grid16, st.rho_phys)
        def full_hat(f):  # the full spectrum, from a complex transform of the samples
            return np.fft.fftn(_pdata(f)) / grid16.n**3

        mom_hats = [vol * full_hat(dealiased_product(rho, c)) for c in u.components]
        a_hat = vol * full_hat(a)
        total = 0.0
        n = grid16.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    kv = (grid16.k1[i], grid16.k1[j], grid16.k1[k])
                    if math.sqrt(sum(c * c for c in kv)) <= 1.0:
                        total += PARAMS.gamma * abs(a_hat[i, j, k]) ** 2
                        total += sum(abs(m[i, j, k]) ** 2 for m in mom_hats)
        total *= (2.0 * np.pi / grid16.length) ** 3
        assert got == pytest.approx(total, rel=1e-12)


class TestBeta:
    @pytest.mark.parametrize("p0,expected", [(1.0, 0.75), (2.0, 0.0), (1.2, 0.5)])
    def test_values(self, p0, expected):
        assert beta(p0) == pytest.approx(expected)

    @pytest.mark.parametrize("bad", [0.5, 2.5, -1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            beta(bad)


class TestConlfRhs:
    def _series(self, decay=lambda s: (1.0 + s) ** -1.0, n=801, T=8.0):
        series = DiagnosticSeries()
        series.metadata["initial_lp_norms"] = {"1": {"a": 0.3, "rho_u": 0.4}}
        for t in np.linspace(0.0, T, n):
            v = decay(t)
            series.append(t, {"l2_u": v, "l2_a": v})
        return series

    def test_initial_time_is_data_norms(self):
        series = self._series()
        got = conlf_rhs(series, 0.0, 1.0, PARAMS)
        assert got == pytest.approx(0.3**2 + 0.4**2)

    def test_zero_data(self):
        series = DiagnosticSeries()
        series.metadata["initial_lp_norms"] = {"1": {"a": 0.0, "rho_u": 0.0}}
        for t in np.linspace(0.0, 2.0, 21):
            series.append(t, {"l2_u": 0.0, "l2_a": 0.0})
        assert conlf_rhs(series, 2.0, 1.0, PARAMS) == 0.0

    def test_synthetic_closed_form_integral(self):
        # ||u|| = ||a|| = (1+s)^-1: integral term is
        # (1+t)^{-3/2} * 2/3 * (1 - (1+t)^{-3})
        series = self._series()
        t = 5.0
        head = (0.3**2 + 0.4**2) * (1.0 + t) ** (-2.0 * beta(1.0))
        tail = (1.0 + t) ** -1.5 * (2.0 / 3.0) * (1.0 - (1.0 + t) ** -3.0)
        got = conlf_rhs(series, t, 1.0, PARAMS)
        assert got == pytest.approx(head + tail, rel=1e-4)

    def test_time_beyond_series_rejected(self):
        series = self._series(T=2.0, n=41)
        with pytest.raises(ValueError):
            conlf_rhs(series, 5.0, 1.0, PARAMS)


class TestFitDecay:
    def _series(self, fn):
        series = DiagnosticSeries()
        for t in np.linspace(0.0, 60.0, 241):
            series.append(t, {"y": fn(t)})
        return series

    def test_exact_power_law(self):
        fit = fit_decay(self._series(lambda t: (1.0 + t) ** -0.75), "y", (5.0, 40.0))
        assert fit.beta_hat == pytest.approx(0.75, abs=1e-12)
        assert fit.residual < 1e-12
        assert fit.power_law

    def test_prefactor_invariance(self):
        fit = fit_decay(self._series(lambda t: 3.0 * (1.0 + t) ** -0.5), "y", (5.0, 40.0))
        assert fit.beta_hat == pytest.approx(0.5, abs=1e-12)

    def test_exponential_flagged_non_power_law(self):
        fit = fit_decay(self._series(lambda t: math.exp(-t)), "y", (5.0, 40.0))
        assert not fit.power_law

    def test_too_few_samples(self):
        series = DiagnosticSeries()
        for t in (1.0, 6.0, 7.0, 50.0):
            series.append(t, {"y": 1.0 / (1.0 + t)})
        with pytest.raises(ValueError, match="at least 8"):
            fit_decay(series, "y", (5.0, 40.0))

    def test_nonpositive_values_rejected(self):
        series = self._series(lambda t: 1.0 - 0.02 * t)
        with pytest.raises(ValueError, match="positive"):
            fit_decay(series, "y", (5.0, 55.0))

    def test_bad_window(self):
        with pytest.raises(ValueError):
            fit_decay(self._series(lambda t: 1.0), "y", (5.0, 2.0))


class TestLipschitzBudget:
    def test_zero_run(self):
        acc = _LipschitzIntegral()
        rows = [acc.add(t, 0.0) for t in np.linspace(0.0, 1.0, 5)]
        assert rows == [(0.0, 0.0)] * 5

    def test_constant_integrand(self):
        acc = _LipschitzIntegral()
        for t in np.linspace(0.0, 2.0, 9):
            lin, quad = acc.add(t, 3.0)
        assert lin == pytest.approx(6.0)
        assert quad == pytest.approx(18.0)

    def test_observer_columns_are_the_trapezoid_of_grad_u_linf(self):
        from cnslab.scenarios import equilibrium_perturbation

        grid = make_grid(16, 8 * np.pi, 3)
        st = equilibrium_perturbation(grid, 1e-2, 1.0, seed=5, params=PARAMS).state
        series = DiagnosticSeries()
        observe = make_observer(PARAMS, DiagnosticsConfig(), series)
        integrate(st, SolverConfig(dt=0.05, T=0.3, cadence="uniform:0.05"), PARAMS,
                  observe=observe)
        t, f = series.column("t"), series.column("grad_u_linf")
        assert len(t) == 7
        for col, g in (("grad_u_linf_int", f), ("grad_u_linf_sq_int", f**2)):
            ref = np.array([np.trapezoid(g[: i + 1], t[: i + 1]) for i in range(len(t))])
            got = series.column(col)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), col


class TestHolderNorm:
    def test_constant_field(self, grid16):
        f = constant_field(grid16, 2.5)
        assert holder_norm(f, 0.5) == pytest.approx(2.5)

    def test_matches_brute_force_pair_enumeration(self):
        grid = make_grid(8, 2.0 * np.pi, 2)
        f = field_from_function(grid, lambda x, y: np.sin(x) + 0.3 * np.cos(2 * y))
        alpha, radius = 0.5, 2
        got = holder_norm(f, alpha, radius=radius)
        vals = np.real(f.data)
        n = grid.n
        best = 0.0
        for i in range(n):
            for j in range(n):
                for di in range(-radius, radius + 1):
                    for dj in range(-radius, radius + 1):
                        d2 = di * di + dj * dj
                        if d2 == 0 or d2 > radius * radius:
                            continue
                        diff = abs(vals[(i + di) % n, (j + dj) % n] - vals[i, j])
                        best = max(best, diff / (math.sqrt(d2) * grid.dx) ** alpha)
        assert got == pytest.approx(best + np.max(np.abs(vals)), rel=1e-12)

    @pytest.mark.parametrize("dim,radius", [(2, 3), (3, 2), (3, 4)])
    def test_bit_equal_to_rolled_copies(self, dim, radius):
        grid = make_grid(16, 2.0 * np.pi, dim)
        f = random_field(grid, seed=dim + radius)
        alpha = 0.25
        vals = _pdata(f)
        best = 0.0
        seen = set()
        for offset in itertools.product(range(-radius, radius + 1), repeat=dim):
            if offset == (0,) * dim or offset in seen:
                continue
            seen.update({offset, tuple(-o for o in offset)})
            dist2 = sum(o * o for o in offset)
            if dist2 > radius * radius:
                continue
            shifted = np.roll(vals, shift=offset, axis=tuple(range(dim)))
            quot = np.max(np.abs(shifted - vals)) / (math.sqrt(dist2) * grid.dx) ** alpha
            best = max(best, float(quot))
        assert holder_norm(f, alpha, radius) == best + float(np.max(np.abs(vals)))

    def test_alpha_ordering_inequality(self, grid16):
        f = random_field(grid16, seed=11, band=(0.5, 3.0))
        a1, a2, radius = 0.25, 0.75, 4
        sem1 = holder_norm(f, a1, radius) - lebesgue_norm(f, np.inf)
        sem2 = holder_norm(f, a2, radius) - lebesgue_norm(f, np.inf)
        rmax = radius * grid16.dx * 1.0  # offsets are Euclidean-bounded by radius
        assert sem1 <= sem2 * max(1.0, rmax) ** (a2 - a1) * (1.0 + 1e-12)

    def test_alpha_domain(self, grid16):
        with pytest.raises(ValueError):
            holder_norm(constant_field(grid16, 1.0), 1.5)


class TestEnergyBalance:
    def test_equilibrium_run_residual_zero(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        series = DiagnosticSeries()
        observe = make_observer(PARAMS, DiagnosticsConfig(), series)
        integrate(st, SolverConfig(dt=0.1, T=0.5, cadence="uniform:0.1"), PARAMS,
                  observe=observe)
        res = energy_balance_residual(series)
        assert res["max_abs"] == 0.0
        assert not res["normalized"]

    def test_heat_surrogate_matches_analytic_decay(self, grid16):
        # a = 0 and the shear u = (sin y, 0, 0) make every explicit term
        # vanish, and the viscous step is per-mode exact, so E(t) tracks
        # E(0) e^{-2 mu t} to round-off for this single-mode velocity
        u = VectorField([field_from_function(grid16, lambda x, y, z: np.sin(y)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        st = FlowState(0.0, Field.zeros(grid16), u, PARAMS)
        series = DiagnosticSeries()
        observe = make_observer(PARAMS, DiagnosticsConfig(), series)
        cfg = SolverConfig(dt=0.05, T=1.0, cadence="uniform:0.05")
        integrate(st, cfg, PARAMS, observe=observe)
        e = series.column("E")
        t = series.column("t")
        exact = e[0] * np.exp(-2.0 * PARAMS.mu * t)
        assert np.max(np.abs(e - exact)) <= 1e-10 * e[0]

    def test_nonlinear_residual_decreases_with_dt(self):
        # needs the data spectrally resolved, otherwise the dealiasing floor
        # hides the dt^2 scaling
        from cnslab.scenarios import equilibrium_perturbation

        grid = make_grid(32, 8 * np.pi, 3)
        residuals = []
        for dt in (0.04, 0.02):
            st = equilibrium_perturbation(grid, 1e-2, 1.0, seed=5, params=PARAMS).state
            series = DiagnosticSeries()
            observe = make_observer(PARAMS, DiagnosticsConfig(), series)
            integrate(st, SolverConfig(dt=dt, T=1.0, cadence="uniform:0.2"), PARAMS,
                      observe=observe)
            residuals.append(energy_balance_residual(series)["max_rel"])
        assert residuals[1] <= residuals[0] / 2.5


class TestSeriesAndObserver:
    def test_times_strictly_increasing(self):
        series = DiagnosticSeries()
        series.append(0.0, {"y": 1.0})
        with pytest.raises(ValueError):
            series.append(0.0, {"y": 2.0})

    def test_schema_frozen_after_first_record(self):
        series = DiagnosticSeries()
        series.append(0.0, {"y": 1.0})
        with pytest.raises(ValueError):
            series.append(1.0, {"z": 2.0})

    def test_observer_records_core_columns(self, grid16):
        from cnslab.lp import NormSpec

        a = 0.05 * random_field(grid16, seed=12, band=(0.5, 3.0))
        u = VectorField([0.05 * random_field(grid16, seed=13 + i, band=(0.5, 3.0))
                         for i in range(3)])
        st = FlowState(0.0, a, u, PARAMS)
        series = DiagnosticSeries()
        cfg = DiagnosticsConfig(
            norms=[("a", NormSpec(s=0.5, p=2, r=1)),
                   ("Pu3", NormSpec(s=0.5, p=2, r=1))],
            p_list=[2.0, 4.0],
            p0_list=[1.0, 2.0],
            holder_alpha=0.25,
            holder_radius=2,
        )
        observe = make_observer(PARAMS, cfg, series)
        record = observe(st, {"diss_cum": 0.0})
        for key in ("E", "D", "X", "l2_au", "mlow", "eflux_l2", "grad_u_linf",
                    "lp4_a", "a:besov:s=0.5,p=2,r=1", "Pu3:besov:s=0.5,p=2,r=1",
                    "holder_rho", "afrak_ratio_max"):
            assert key in record
        assert "1" in series.metadata["initial_lp_norms"]
        assert "2" in series.metadata["initial_lp_norms"]
        # near equilibrium the density ratio |frak_a|/|a| hugs gamma
        assert record["afrak_ratio_min"] == pytest.approx(PARAMS.gamma, rel=0.1)

    def test_observer_norm_columns_are_the_lp_norms(self, grid16):
        from cnslab.lp import NormSpec, besov_norm, hybrid_norm

        a = 0.05 * random_field(grid16, seed=14, band=(0.5, 3.0))
        u = VectorField([0.05 * random_field(grid16, seed=15 + i, band=(0.5, 3.0))
                         for i in range(3)])
        st = FlowState(0.0, a, u, PARAMS)
        norms = [("a", NormSpec(s=0.5, p=2, r=1)),
                 ("Pu3", NormSpec(s=-0.25, p=4, r=2)),
                 ("u", NormSpec(s=0.5, t=-0.25, p=4, r=1, r_low=2, R0=2.0))]
        observe = make_observer(PARAMS, DiagnosticsConfig(norms=norms), DiagnosticSeries())
        record = observe(st, {"diss_cum": 0.0})
        for selector, spec in norms:
            fld = select_field(st, selector)
            if spec.hybrid:
                want = hybrid_norm(fld, spec.s, spec.t, spec.r_low, spec.p, spec.R0)
            else:
                want = besov_norm(fld, spec.s, spec.p, spec.r)
            assert want > 0.0
            assert record[norm_column_name(selector, spec)] == want

    def test_select_field_knows_all_selectors(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        for name in ("a", "u", "Pu", "Qu", "Pu3", "PuH", "d", "frak_a"):
            select_field(st, name)
        with pytest.raises(ValueError):
            select_field(st, "vorticity")
