"""Right-hand side structure, the compatibility value of u_t, IMEX stepping,
conservation and fault behavior of the integrator."""

import concurrent.futures
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cnslab.spectral as spectral
from cnslab.helmholtz import convective_term
from cnslab.solver import (
    CFLError,
    FlowState,
    PhysicalParams,
    SolverConfig,
    _viscous_exponential,
    _viscous_kernel,
    admissible_ut,
    cfl_dt_bound,
    integrate,
    rhs,
    rhs_full,
    snapshot_steps,
    step,
)
from cnslab.spectral import (
    Field,
    PositivityFault,
    VectorField,
    _pdata,
    _sdata,
    constant_field,
    dealias,
    dealiased_product,
    divergence,
    field_from_function,
    laplacian,
    lebesgue_norm,
    make_grid,
    partial_deriv,
    random_field,
    run_tasks,
    to_physical,
    transform_count,
)

PARAMS = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)


def _small_state(grid, eps=1e-2, seed=0):
    a = eps * random_field(grid, seed=seed, band=(0.5, 3.0))
    u = VectorField(
        [eps * random_field(grid, seed=seed + 10 + i, band=(0.5, 3.0)) for i in range(grid.dim)]
    )
    return FlowState(0.0, a, u, PARAMS)


def _vacuum_state():
    # near-vacuum density with divergence pulling it down at the minimum
    grid = make_grid(16, 2 * np.pi, 3)
    a = field_from_function(grid, lambda x, y, z: 0.9 * np.cos(x))
    u = VectorField([field_from_function(grid, lambda x, y, z: -np.sin(x)),
                     Field.zeros(grid), Field.zeros(grid)])
    return FlowState(0.0, a, u, PARAMS)


def _outflow_bump(outflow):
    # a deep density well (min rho 0.05) emptied by a radial outflow; with
    # dt = 0.02 on 16^3, outflow 2.0 and 2.1 both lose positivity in step 7
    grid = make_grid(16, 2 * np.pi, 3)
    c = np.pi

    def gauss(x, y, z):
        return np.exp(-((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2))

    a = field_from_function(grid, lambda *x: -0.95 * gauss(*x))
    u = VectorField([field_from_function(grid, lambda *x, ax=ax: outflow * (x[ax] - c) * gauss(*x))
                     for ax in range(3)])
    return FlowState(0.0, a, u, PARAMS)


# the run settings of _vacuum_state, for resume_run (which reads no scenario)
_VACUUM_CONFIG = """\
[grid]
n = 16
L = 6.283185307179586
dim = 3

[params]
mu = 1.0
lambda = 0.0
gamma = 1.4

[solver]
dt = 0.05
T = 10.0
cadence = uniform:0.5

[scenario]
kind = equilibrium_perturbation
epsilon = 0.01
p0 = 1.0
seed = 0
"""


@pytest.fixture
def pool_started():
    """The shared pool's worker, started (a submitted task starts it): a
    thread count taken after this holds unless something adds a thread."""
    run_tasks([lambda: None, lambda: None])


class TestParams:
    def test_rejects_bad_viscosities(self):
        with pytest.raises(ValueError):
            PhysicalParams(mu=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(mu=0.5, lam=-2.0)
        with pytest.raises(ValueError):
            PhysicalParams(gamma=0.5)

    def test_strict_mode_needs_mu_above_half_lambda(self):
        PhysicalParams(mu=1.0, lam=1.5).validate_strict()
        with pytest.raises(ValueError, match="mu > lambda/2"):
            PhysicalParams(mu=1.0, lam=3.0).validate_strict()


class TestFlowState:
    def test_density_positivity_enforced(self, grid16):
        a = field_from_function(grid16, lambda x, y, z: -1.2 + 0.0 * x)
        with pytest.raises(PositivityFault) as err:
            FlowState(0.0, a, VectorField.zeros(grid16), PARAMS)
        assert err.value.min_value == pytest.approx(-0.2)

    def test_mean_a_reported(self, grid16):
        st = _small_state(grid16)
        assert abs(st.mean_a) < 1e-14

    def test_u_dot_is_material_derivative(self, grid16):
        from cnslab.helmholtz import material_derivative

        st = _small_state(grid16, eps=0.05)
        direct = material_derivative(st.u, st.u_t)
        err = max(lebesgue_norm(a - b, 2) for a, b in zip(st.u_dot, direct))
        assert err <= 1e-12

    @pytest.mark.parametrize("scale", [0.3, 1e-10])
    def test_density_bounds_are_the_extremes_of_rho(self, grid16, scale):
        # rho_min is 1 + min a, with no 1 + a array: fl(1 + x) is monotone in
        # x, so it equals min(1 + a) bit for bit, also where a is ~1e-10
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = Field.from_physical(grid16, scale * rng.standard_normal(grid16.shape))
            st = FlowState(0.0, a, VectorField.zeros(grid16), PARAMS)
            samples = _pdata(st.a)
            assert st.rho_min == float(np.min(1.0 + samples))
            assert st.rho_max == float(np.max(1.0 + samples))

    def test_u_dot_is_not_held(self, grid16):
        # u_dot is formed from the cached RHS on each read; the state keeps the
        # RHS and the frak_a it read, not u_dot
        st = _small_state(grid16, eps=0.05)
        first, again = st.u_dot, st.u_dot
        assert set(st._cache) == {"frak_a", "rhs"}
        assert all(np.array_equal(_sdata(f), _sdata(g)) for f, g in zip(first, again))


class TestPressureExcess:
    """rho^gamma - 1 for rho = 1 + a with a ~ 1e-10: the subtraction
    1 + a - 1 would keep only about six digits of a."""

    EPS = 1e-10

    def _state(self, grid):
        a = field_from_function(grid, lambda x, y, z: self.EPS * (1.0 + 0.5 * np.cos(x)))
        return FlowState(0.0, a, VectorField.zeros(grid), PARAMS)

    def test_frak_a_keeps_the_digits_of_tiny_a(self, grid16):
        g = PARAMS.gamma
        a = self.EPS * (1.0 + 0.5 * np.cos(grid16.x[0]))
        expected = g * a + 0.5 * g * (g - 1.0) * a**2  # the a^3 term is 1e-20 relative
        got = to_physical(self._state(grid16).frak_a).data
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_pressure_force_keeps_the_digits_of_tiny_a(self, grid16):
        # at rest, du/dt = -(1/rho) grad(rho^gamma); all products stay inside
        # the 2/3 ball up to terms of relative size 1e-20
        g = PARAMS.gamma
        x = grid16.x[0]
        a = self.EPS * (1.0 + 0.5 * np.cos(x))
        da_dx = -0.5 * self.EPS * np.sin(x)
        expected = -(g * da_dx + g * (g - 1.0) * a * da_dx) / (1.0 + a)
        got = to_physical(rhs(self._state(grid16), PARAMS)[1][0]).data
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestRhs:
    def test_equilibrium_fixed_point(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        da, du = rhs(st, PARAMS)
        assert lebesgue_norm(da, 2) == 0.0
        assert lebesgue_norm(du, 2) == 0.0

    def test_shear_flow_reduces_to_viscous_decay(self, grid16):
        # a = 0, u = (sin x2, 0, 0): transport and pressure vanish,
        # du/dt = mu lap u = -mu sin(x2) e1, da/dt = -div u = 0
        u = VectorField([field_from_function(grid16, lambda x, y, z: np.sin(y)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        st = FlowState(0.0, Field.zeros(grid16), u, PARAMS)
        da, du = rhs(st, PARAMS)
        assert lebesgue_norm(da, 2) == 0.0
        expected = -PARAMS.mu * np.sin(grid16.x[1])
        got = to_physical(du[0])
        assert np.max(np.abs(got.data - expected)) < 1e-13
        assert lebesgue_norm(du[1], 2) == 0.0
        assert lebesgue_norm(du[2], 2) == 0.0

    def test_linearization_richardson(self, grid16):
        # rhs(eps .)/eps = L + eps Q + O(eps^2): successive differences halve
        g = random_field(grid16, seed=20, band=(0.5, 3.0))
        v = VectorField([random_field(grid16, seed=21 + i, band=(0.5, 3.0)) for i in range(3)])

        def scaled_rhs(eps):
            st = FlowState(0.0, eps * g, eps * v, PARAMS)
            da, du = rhs(st, PARAMS)
            return (1.0 / eps) * da, (1.0 / eps) * du

        def diff(eps):
            da1, du1 = scaled_rhs(eps)
            da2, du2 = scaled_rhs(eps / 2)
            return np.hypot(lebesgue_norm(da1 - da2, 2), lebesgue_norm(du1 - du2, 2))

        r1 = diff(2e-2)
        r2 = diff(1e-2)
        assert 1.4 <= r1 / r2 <= 2.8

    def test_mass_equation_mean_free(self, grid16):
        st = _small_state(grid16, eps=0.1, seed=3)
        da, _ = rhs(st, PARAMS)
        from cnslab.spectral import mean_value

        assert abs(mean_value(da)) < 1e-16


class TestRhsFull:
    @staticmethod
    def _rel(got, ref):
        diff = max(np.max(np.abs(_sdata(g) - _sdata(r))) for g, r in zip(got, ref))
        return diff / max(np.max(np.abs(_sdata(r))) for r in ref)

    def test_matches_public_operators(self, grid16, grid16_2d):
        for grid in (grid16, grid16_2d):
            st = _small_state(grid, eps=0.2, seed=5)
            r = rhs_full(st, PARAMS)
            # u_dot = u_t + (u.grad)u
            assert self._rel(st.u_dot - st.u_t, convective_term(st.u, st.u)) <= 1e-12
            rho = constant_field(grid, 1.0) + st.a
            flux = VectorField([dealiased_product(rho, c) for c in st.u])
            assert self._rel([r.da], [-divergence(flux)]) <= 1e-12

    def test_mass_flux_keeps_the_digits_of_tiny_a(self, grid16):
        # a = 1e-10 g riding on a vertical u = (0, 0, w(x, y)) some nine
        # orders larger: div u is exactly zero, so da = -div(a u), which a
        # flux formed as (1 + a) u would keep to about six digits
        grid = grid16
        plane = _sdata(random_field(grid, seed=7, band=(0.5, 3.0)))
        w = Field(grid, np.where(grid.k[2] == 0.0, plane, 0.0), "spectral")
        a = 1e-10 * random_field(grid, seed=8, band=(0.5, 3.0))
        st = FlowState(0.0, a, VectorField([Field.zeros(grid), Field.zeros(grid), w]), PARAMS)
        flux = VectorField([dealiased_product(a, c) for c in st.u])
        assert self._rel([rhs_full(st, PARAMS).da], [-divergence(flux)]) <= 1e-12

    def test_explicit_part_keeps_the_digits_of_tiny_data(self, grid16):
        # u = (0, 0, w(x, y)) + 1e-10 v and a = 1e-10 g: the explicit part N
        # the step integrates is about 1e-10 next to the O(1) viscous image V
        # of w, so N formed as du/dt less V would keep about six digits
        grid = grid16
        plane = _sdata(random_field(grid, seed=7, band=(0.5, 3.0)))
        w = Field(grid, np.where(grid.k[2] == 0.0, plane, 0.0), "spectral")
        v = [1e-10 * random_field(grid, seed=30 + i, band=(0.5, 3.0)) for i in range(3)]
        a = 1e-10 * random_field(grid, seed=8, band=(0.5, 3.0))
        st = FlowState(0.0, a, VectorField([v[0], v[1], w + v[2]]), PARAMS)
        # the direct form F[(P - a V)/rho - (u.grad)u], truncated, from samples
        a_p = to_physical(st.a).data
        u_p = [to_physical(c).data for c in st.u]
        div_u = divergence(st.u)
        mu, lam = PARAMS.mu, PARAMS.lam
        got = st.rhs.n
        for i in range(3):
            visc = mu * laplacian(st.u[i]) + (lam + mu) * partial_deriv(div_u, i)
            pressure = -to_physical(partial_deriv(st.frak_a, i)).data
            conv = sum(u_p[j] * to_physical(partial_deriv(st.u[i], j)).data for j in range(3))
            n_p = (pressure - a_p * to_physical(visc).data) / (1.0 + a_p) - conv
            ref = _sdata(dealias(Field.from_physical(grid, n_p)))
            assert np.max(np.abs(got[i] - ref)) <= 1e-12 * np.max(np.abs(ref)), i

    def test_shares_the_state_samples(self):
        # after the CFL check has formed the samples of u and rho, the RHS adds
        # 3 forwards for the mass flux, 1 for rho^gamma - 1, and per component
        # 1 inverse each for the pressure force and the viscous image, 3 for
        # the gradient and 1 forward
        st = _small_state(make_grid(16, 2 * np.pi, 3), seed=5)
        cfl_dt_bound(st, SolverConfig())
        before = transform_count()
        rhs_full(st, PARAMS)
        assert transform_count() - before == 22

    def test_no_module_container_grows(self):
        def cache_sizes():
            return {
                (name, attr): len(val)
                for name, mod in list(sys.modules.items())
                if name.startswith("cnslab")
                for attr, val in vars(mod).items()
                if isinstance(val, (dict, list, set)) and not attr.startswith("__")
            }

        grid = make_grid(16, 2 * np.pi, 3)
        st = _small_state(grid, seed=6)
        before = cache_sizes()
        rhs_full(st, PARAMS)
        rhs_full(FlowState(0.0, st.a, st.u, PARAMS), PARAMS)
        for dt in (0.01, 0.02, 0.03):
            step(st, SolverConfig(dt=dt, T=dt), PARAMS)
        assert cache_sizes() == before


class TestAdmissibleUt:
    def test_equilibrium_zero(self, grid16):
        out = admissible_ut(Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        assert lebesgue_norm(out, 2) == 0.0

    def test_matches_rhs_momentum_part(self, grid16):
        st = _small_state(grid16, eps=0.05, seed=4)
        via_rhs = rhs(st, PARAMS)[1]
        direct = admissible_ut(st.a, st.u, PARAMS)
        assert max(np.max(np.abs(a.data - b.data)) for a, b in zip(direct, via_rhs)) == 0.0

    def test_first_step_consistency_order(self):
        # ||(u(dt) - u0)/dt - u_t(0)|| = O(dt): the defect ratio under
        # dt-halving sits near 2
        grid = make_grid(16, 2 * np.pi, 3)
        st = _small_state(grid, eps=0.05, seed=5)
        target = admissible_ut(st.a, st.u, PARAMS)

        def defect(dt):
            cfg = SolverConfig(dt=dt, T=dt, scheme="imex2", adaptive=False)
            nxt = step(st, cfg, PARAMS)
            fd = (1.0 / dt) * (nxt.u - st.u)
            return np.sqrt(sum(lebesgue_norm(a - b, 2) ** 2 for a, b in zip(fd, target)))

        d1, d2 = defect(2e-3), defect(1e-3)
        assert 1.5 <= d1 / d2 <= 3.0


class TestStep:
    def test_equilibrium_invariant_any_dt(self, grid16):
        st = FlowState(0.0, Field.zeros(grid16), VectorField.zeros(grid16), PARAMS)
        cfg = SolverConfig(dt=0.5, T=1.0)
        nxt = step(st, cfg, PARAMS)
        assert lebesgue_norm(nxt.a, 2) == 0.0
        assert lebesgue_norm(nxt.u, 2) == 0.0

    def test_pure_viscous_per_mode_decay_exact(self, grid16):
        # a = 0 and the shear u = (sin y, 0, 0) make every explicit term
        # vanish (N = 0), so the full step is the exact per-mode decay
        u = VectorField([field_from_function(grid16, lambda x, y, z: np.sin(y)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        st = FlowState(0.0, Field.zeros(grid16), u, PARAMS)
        cfg = SolverConfig(dt=0.25, T=0.25)
        nxt = step(st, cfg, PARAMS)
        expected = np.exp(-PARAMS.mu * 0.25) * np.sin(grid16.x[1])
        got = to_physical(nxt.u[0])
        assert np.max(np.abs(got.data - expected)) < 1e-12

    def test_imex2_second_order_global_error(self):
        grid = make_grid(12, 2 * np.pi, 3)
        st = _small_state(grid, eps=0.05, seed=6)

        def final_u(dt):
            cfg = SolverConfig(dt=dt, T=1.0, scheme="imex2", adaptive=False)
            _, fin, fault = integrate(st, cfg, PARAMS)
            assert fault is None
            return fin

        ref = final_u(0.0125)
        errs = []
        for dt in (0.1, 0.05):
            fin = final_u(dt)
            errs.append(
                np.sqrt(sum(lebesgue_norm(a - b, 2) ** 2 for a, b in zip(fin.u, ref.u)))
            )
        assert 3.0 <= errs[0] / errs[1] <= 5.5

    def test_mean_a_conserved_per_step(self, grid16):
        st = _small_state(grid16, eps=0.1, seed=7)
        cfg = SolverConfig(dt=0.01, T=0.1)
        m0 = st.mean_a
        for _ in range(10):
            st = step(st, cfg, PARAMS)
            assert abs(st.mean_a - m0) < 1e-12

    def test_modes_outside_dealias_ball_decay_viscously(self, grid16):
        # no state holds modes beyond the 2/3 ball; on raw spectra the
        # viscous exponential alone damps them at the shear rate mu |k|^2
        cut = grid16.n // 3
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[cut + 2, 0, 0] = 0.005
        coeffs[-(cut + 2), 0, 0] = 0.005
        high = Field(grid16, coeffs, "spectral").data
        zero = np.zeros(grid16.spectral_shape, dtype=np.complex128)
        # u perpendicular to k: a pure shear (divergence-free) mode
        factors = _viscous_exponential(grid16, PARAMS, 0.1)
        out = list(_viscous_kernel(grid16, *factors, [zero, high, zero]))
        k2 = (cut + 2) ** 2
        exact = 0.005 * np.exp(-PARAMS.mu * k2 * 0.1)
        assert out[1][cut + 2, 0, 0] == pytest.approx(exact, rel=1e-12)
        assert not np.any(out[0]) and not np.any(out[2])

    def test_states_stay_in_the_band(self):
        # unfiltered samples are truncated at construction, and the step keeps
        # every coefficient outside the 2/3 ball at zero
        grid = make_grid(16, 2 * np.pi, 3)
        rng = np.random.default_rng(1)
        a = Field.from_physical(grid, 0.01 * rng.standard_normal(grid.shape))
        u = VectorField([Field.from_physical(grid, 0.01 * rng.standard_normal(grid.shape))
                         for _ in range(3)])
        st = FlowState(0.0, a, u, PARAMS)
        out = ~grid.dealias_mask
        nxt = st
        for _ in range(3):
            nxt = step(nxt, SolverConfig(dt=1e-3, T=1e-3), PARAMS)
            for f in (st.a, *st.u, nxt.a, *nxt.u):
                assert not np.any(_sdata(f)[out])

    def test_unfiltered_data_stays_hermitian(self):
        # random samples carry Nyquist content; the grad-div coupling of the
        # viscous exponential must keep every velocity spectrum Hermitian: on
        # the half spectrum, the planes m_last = 0 and m_last = n/2 stay
        # self-conjugate. A state holds no Nyquist content, so the exponential
        # is applied to the raw spectra
        grid = make_grid(16, 2 * np.pi, 3)
        rng = np.random.default_rng(0)
        u = [_sdata(Field.from_physical(grid, 0.01 * rng.standard_normal(grid.shape)))
             for _ in range(3)]
        for s in _viscous_kernel(grid, *_viscous_exponential(grid, PARAMS, 1e-3), u):
            for plane in (s[..., 0], s[..., grid.n // 2]):
                flipped = np.roll(np.conj(plane[::-1, ::-1]), shift=(1, 1), axis=(0, 1))
                assert np.max(np.abs(plane - flipped)) <= 1e-14 * np.max(np.abs(s))

    def test_cfl_fixed_mode_raises(self, grid16):
        st = _small_state(grid16, eps=0.1, seed=8)
        cfg = SolverConfig(dt=10.0, T=10.0, adaptive=False)
        with pytest.raises(CFLError):
            step(st, cfg, PARAMS)

    def test_cfl_adaptive_substeps(self, grid16):
        st = _small_state(grid16, eps=0.1, seed=8)
        big = 4.0 * cfl_dt_bound(st, SolverConfig(dt=1.0, T=1.0))
        cfg = SolverConfig(dt=big, T=big, adaptive=True)
        nxt = step(st, cfg, PARAMS)  # must not raise
        assert nxt.t == pytest.approx(big)


class TestIntegrate:
    def test_zero_horizon_single_snapshot(self, grid16):
        st = _small_state(grid16)
        cfg = SolverConfig(dt=0.01, T=0.0)
        records, fin, fault = integrate(st, cfg, PARAMS, observe=lambda s, e: s.t)
        assert records == [0.0]
        assert fin is st
        assert fault is None

    def test_stepped_states_keep_no_samples(self, grid16):
        # the caller's initial state outlives the run; after its step it holds
        # neither cached fields nor the memoized samples of a and u
        st = _small_state(grid16, seed=4)
        cfg = SolverConfig(dt=0.02, T=0.04)
        integrate(st, cfg, PARAMS, observe=lambda s, e: s.rho_min)
        assert st._cache == {}
        assert all(f._alt is None for f in (st.a, *st.u.components))

    def test_counters(self, grid16):
        cfg = SolverConfig(dt=0.02, T=0.1, cadence="uniform:0.04")
        counters = {}
        integrate(_small_state(grid16, seed=4), cfg, PARAMS,
                  observe=lambda s, e: s.rho_min, counters=counters)
        again = {}
        integrate(_small_state(grid16, seed=4), cfg, PARAMS,
                  observe=lambda s, e: s.rho_min, counters=again)
        assert counters == again
        assert counters["steps"] == 5 and counters["snapshots"] == 4
        # rho_min at a snapshot reuses the samples validation already formed
        assert counters["transforms_observe"] == 0
        assert counters["transforms_stepping"] > 0

    def test_snapshot_rhs_counts_as_stepping(self, grid16):
        # the RHS a snapshot state's observer asks for is the one the next step
        # reuses: with a snapshot at every step, stepping still costs what one
        # step from a fresh state costs, whether or not the observer reads u_dot,
        # for a single state and for each member of a pair
        fresh = _small_state(grid16, seed=4)
        before = transform_count()
        step(fresh, SolverConfig(dt=0.02), PARAMS)
        per_step = transform_count() - before
        cfg = SolverConfig(dt=0.02, T=0.1, cadence="uniform:0.02")
        for observe in (lambda s, e: lebesgue_norm(s.u_dot, 2), lambda s, e: s.rho_min, None):
            counters = {}
            integrate(_small_state(grid16, seed=4), cfg, PARAMS, observe=observe,
                      counters=counters)
            assert counters["snapshots"] == counters["steps"] + 1 == 6
            assert counters["transforms_stepping"] == counters["steps"] * per_step
        pair = (_small_state(grid16, seed=4), _small_state(grid16, seed=5))
        counters = {}
        integrate(pair, cfg, PARAMS, observe=lambda s, e: lebesgue_norm(s[0].u_dot, 2),
                  counters=counters)
        assert counters["transforms_stepping"] == 2 * counters["steps"] * per_step

    def test_deterministic_replay(self, grid16):
        cfg = SolverConfig(dt=0.02, T=0.2, cadence="uniform:0.04")
        outs = []
        for _ in range(2):
            st = _small_state(grid16, seed=9)
            recs, fin, _ = integrate(st, cfg, PARAMS, observe=lambda s, e: s.a.data.copy())
            outs.append((recs, fin))
        for a, b in zip(outs[0][0], outs[1][0]):
            assert np.array_equal(a, b)
        assert np.array_equal(outs[0][1].a.data, outs[1][1].a.data)

    def test_geometric_cadence_step_indices(self):
        cfg = SolverConfig(dt=0.25, T=4.0, cadence="geometric")
        snaps = snapshot_steps(cfg)
        assert snaps[0] == 0 and snaps[-1] == 16
        assert snaps == sorted(set(snaps))

    def test_positivity_fault_annotated(self):
        st = _vacuum_state()
        cfg = SolverConfig(dt=0.05, T=10.0, cadence="uniform:0.5")
        records, fin, fault = integrate(st, cfg, PARAMS, observe=lambda s, e: s.t)
        assert fault is not None
        assert fault["type"] == "PositivityFault"
        assert fault["time"] <= 10.0
        assert len(records) >= 1  # partial series kept

    def test_fault_time_is_before_the_failing_step(self):
        st = _vacuum_state()
        cfg = SolverConfig(dt=0.05, T=10.0, cadence="uniform:0.5")
        _, fin, fault = integrate(st, cfg, PARAMS)
        assert fault is not None
        assert fault["time"] == fin.t
        with pytest.raises(PositivityFault):
            step(fin, cfg, PARAMS)

    @pytest.mark.parametrize("faulting", [0, 1])
    def test_twin_fault_time_equals_single_run(self, faulting):
        vac = _vacuum_state()
        twins = [_small_state(vac.grid, seed=12), _small_state(vac.grid, seed=12)]
        twins[faulting] = vac
        cfg = SolverConfig(dt=0.05, T=10.0, cadence="uniform:0.5")
        _, _, single = integrate(_vacuum_state(), cfg, PARAMS)
        _, fin, fault = integrate(tuple(twins), cfg, PARAMS)
        assert single is not None
        assert fault == single
        assert [s.t for s in fin] == [single["time"]] * 2

    def test_twins_step_as_single_runs(self, grid16, pool_started):
        # the members step on two threads and land on their single runs bit
        # for bit; the locked transform count of the pair is the singles' sum
        cfg = SolverConfig(dt=0.02, T=0.2, cadence="uniform:0.1")
        pair = (_small_state(grid16, seed=13), _small_state(grid16, seed=14))
        threads = threading.active_count()
        pair_counters = {}
        recs, fin, fault = integrate(pair, cfg, PARAMS, counters=pair_counters,
                                     observe=lambda s, e: (s[0].t, e["diss_cum"]))
        assert fault is None
        assert threading.active_count() == threads
        total = 0
        for seed, got in zip((13, 14), fin):
            counters = {}  # a fresh state: a stepped one must re-form its samples
            srecs, want, _ = integrate(_small_state(grid16, seed=seed), cfg, PARAMS,
                                       counters=counters,
                                       observe=lambda s, e: (s.t, e["diss_cum"]))
            total += counters["transforms_stepping"]
            assert np.array_equal(got.a.data, want.a.data)
            for x, y in zip(got.u, want.u):
                assert np.array_equal(x.data, y.data)
            if seed == 13:  # the dissipation integral follows the first member
                assert recs == srecs
        assert pair_counters["transforms_stepping"] == total

    def test_pair_members_must_be_distinct(self, grid16):
        # two threads stepping one state would clear each other's samples
        st = _small_state(grid16)
        with pytest.raises(ValueError, match="distinct"):
            integrate((st, st), SolverConfig(dt=0.02, T=0.04), PARAMS)

    def test_pair_fault_equals_serial_loop(self, pool_started):
        cfg = SolverConfig(dt=0.02, T=1.0, cadence="uniform:0.1")
        threads = threading.active_count()
        single = integrate(_outflow_bump(2.0), cfg, PARAMS)[2]
        assert single["type"] == "PositivityFault"
        assert single["time"] == pytest.approx(0.12)  # the state before step 7
        calm = _small_state(_outflow_bump(2.0).grid, seed=12)
        _, fin, fault = integrate((calm, _outflow_bump(2.0)), cfg, PARAMS)
        assert fault == single
        assert [s.t for s in fin] == [single["time"]] * 2
        # both members fault in step 7: the first member's fault is recorded
        other = integrate(_outflow_bump(2.1), cfg, PARAMS)[2]
        assert other["time"] == single["time"] and other["message"] != single["message"]
        for first, second, want in ((2.0, 2.1, single), (2.1, 2.0, other)):
            _, _, fault = integrate((_outflow_bump(first), _outflow_bump(second)), cfg, PARAMS)
            assert fault == want
        assert threading.active_count() == threads

    def test_time_is_set_on_the_step_grid(self, grid16):
        cfg = SolverConfig(dt=0.1, T=0.3, cadence="uniform:0.1")
        times, _, _ = integrate(_small_state(grid16), cfg, PARAMS,
                                observe=lambda s, e: s.t)
        assert times == [k * 0.1 for k in range(4)]
        # a state on the grid continues on the same step indices
        mid = _small_state(grid16)
        mid.t = 0.1
        times, _, _ = integrate(mid, cfg, PARAMS, observe=lambda s, e: (e["step"], s.t))
        assert times == [(k, k * 0.1) for k in range(1, 4)]

    def test_resumed_fault_carries_absolute_time(self, tmp_path):
        from cnslab.config import parse_config
        from cnslab.io import write_checkpoint
        from cnslab.run import resume_run

        st = _vacuum_state()
        cfg = SolverConfig(dt=0.05, T=10.0, cadence="uniform:0.5")
        _, _, fault = integrate(st, cfg, PARAMS)
        assert fault is not None and fault["time"] > 0.1

        _, mid, _ = integrate(st, SolverConfig(dt=0.05, T=0.1, cadence="uniform:0.5"), PARAMS)
        write_checkpoint(tmp_path / "mid.ckpt", mid, "")
        runcfg = parse_config(_VACUUM_CONFIG)
        _, summary = resume_run(runcfg, tmp_path / "mid.ckpt")
        assert summary["fault"]["type"] == fault["type"]
        assert abs(summary["fault"]["time"] - fault["time"]) <= 1e-9

    def test_strict_mode_validates_params(self, grid16):
        st = _small_state(grid16)
        bad = PhysicalParams(mu=1.0, lam=3.0)
        cfg = SolverConfig(dt=0.01, T=0.1, strict_mode=True)
        with pytest.raises(ValueError, match="mu > lambda/2"):
            integrate(FlowState(0.0, st.a, st.u, bad), cfg, bad)


class _EachOnItsOwnThread:
    """A stand-in for the shared pool that runs each submitted task to its
    end on a new thread at once: every task but the first runs off the
    calling thread, and before the first."""

    def submit(self, fn):
        future = concurrent.futures.Future()
        worker = threading.Thread(target=lambda: future.set_result(fn()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return future


class TestFanOut:
    @staticmethod
    def _run(grid, pool, monkeypatch):
        """rhs_full (da, n, g) of a fresh state and one step of another, and
        the transforms they made, with `pool` as the shared pool."""
        monkeypatch.setattr(spectral, "_pool", pool)
        before = transform_count()
        r = rhs_full(_small_state(grid, eps=0.2, seed=5), PARAMS)
        new = step(_small_state(grid, eps=0.2, seed=6), SolverConfig(dt=0.02), PARAMS)
        arrays = [_sdata(r.da), *r.n, *r.g, new.a.data, *(c.data for c in new.u)]
        return arrays, transform_count() - before

    @pytest.mark.parametrize("dim", [3, 2])
    def test_tasks_equal_an_inline_run(self, dim, monkeypatch):
        # inline: False is the pool of a one-core process, which runs every
        # task on the caller
        grid = make_grid(16, 2 * np.pi, dim)
        shared = spectral._shared_pool()
        want, want_count = self._run(grid, False, monkeypatch)
        for pool in (shared, _EachOnItsOwnThread()):
            got, count = self._run(grid, pool, monkeypatch)
            assert count == want_count
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_concurrent_callers_count_every_transform(self, grid16, pool_started):
        # four callers share the one worker, with threads switching often: a
        # lost update of the locked transform count would show as a shortfall
        states = [_small_state(grid16, eps=0.2, seed=s) for s in range(4)]
        for st in states:
            cfl_dt_bound(st, SolverConfig())  # the samples, formed before the count
        want = [rhs_full(FlowState(0.0, st.a, st.u, PARAMS), PARAMS) for st in states]
        per_rhs = 22  # as in TestRhsFull::test_shares_the_state_samples
        got = [None] * 4
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = transform_count()
            callers = [threading.Thread(target=lambda k=k: got.__setitem__(
                k, rhs_full(states[k], PARAMS)), daemon=True) for k in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
            assert not any(c.is_alive() for c in callers)
            assert transform_count() - before == 4 * per_rhs
        finally:
            sys.setswitchinterval(switch)
        for r, w in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(r.n + r.g, w.n + w.g))

    def test_run_adds_at_most_the_one_worker(self, tmp_path):
        from cnslab.config import parse_config
        from cnslab.run import execute_run

        threads = threading.active_count()
        execute_run(parse_config(_VACUUM_CONFIG.replace("T = 10.0", "T = 0.2")),
                    outdir=tmp_path)
        assert threading.active_count() <= threads + 1

    def test_nested_tasks_finish(self):
        # a task that runs tasks of its own: the busy worker's are run inline
        def inner(k):
            return run_tasks([lambda: k, lambda: k + 1, lambda: k + 2])

        got = run_tasks([lambda k=k: inner(k) for k in (0, 10, 20)])
        assert got == [[0, 1, 2], [10, 11, 12], [20, 21, 22]]

    def test_a_raising_task_leaves_no_task_running(self):
        done = []

        def slow():
            threading.Event().wait(0.05)
            done.append(1)

        def fail():
            raise ZeroDivisionError

        # the worker's task is waited for, the unstarted one is cancelled
        with pytest.raises(ZeroDivisionError):
            run_tasks([fail, slow, slow])
        finished = len(done)
        threading.Event().wait(0.2)
        assert len(done) == finished <= 1


class TestStepMemory:
    def test_step_frees_its_input(self, grid16):
        # once a step has read its input's RHS, the input keeps only its spectra
        st = _small_state(grid16, seed=4)
        st.u_dot  # as an observer leaves a snapshot state
        step(st, SolverConfig(dt=0.02), PARAMS)
        assert st._cache == {}
        assert all(f._alt is None for f in (st.a, *st.u.components))

    def test_step_peak_is_bounded(self, grid16):
        # traced peak of one 16^3 step, in half-spectrum arrays: 20.2 measured
        # (39.4 while a step held its input's samples and RHS and the
        # midpoint's undealiased spectra); the bound leaves a margin of 2
        st = step(_small_state(grid16, seed=4), SolverConfig(dt=0.02), PARAMS)
        half = np.zeros(grid16.spectral_shape, dtype=np.complex128).nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(st, SolverConfig(dt=0.02), PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / half <= 22.5


class TestCheckpointContinuation:
    def test_round_trip_equals_uninterrupted(self, tmp_path, grid16):
        from cnslab.io import read_checkpoint, write_checkpoint

        cfg_full = SolverConfig(dt=0.02, T=0.4, cadence="uniform:0.1")
        st = _small_state(grid16, seed=11)
        _, fin_full, _ = integrate(st, cfg_full, PARAMS)

        cfg_half = SolverConfig(dt=0.02, T=0.2, cadence="uniform:0.1")
        _, fin_half, _ = integrate(st, cfg_half, PARAMS)
        path = tmp_path / "mid.ckpt"
        write_checkpoint(path, fin_half, "deadbeef")
        restored, chash = read_checkpoint(path)
        assert chash == "deadbeef"
        assert restored.t == pytest.approx(0.2)

        shifted = FlowState(0.0, restored.a, restored.u, PARAMS)
        _, fin_cont, _ = integrate(shifted, cfg_half, PARAMS)
        scale = max(lebesgue_norm(fin_full.u, 2), 1e-30)
        err = np.sqrt(sum(lebesgue_norm(a - b, 2) ** 2 for a, b in zip(fin_cont.u, fin_full.u)))
        assert err <= 1e-12 * scale
        err_a = lebesgue_norm(fin_cont.a - fin_full.a, 2)
        assert err_a <= 1e-12 * max(lebesgue_norm(fin_full.a, 2), 1e-30)


class TestLargeVerticalDigits:
    def test_density_columns_keep_their_digits(self):
        # configs/large_vertical.txt's data at 48^3 to T = 0.5, with the a norms
        # of the benchmark: a and the compressible part of u are about 1e-10
        # next to an O(1) w, and a one-ulp nudge of epsilon moves every column
        # derived from a by round-off only
        from cnslab.config import parse_config
        from cnslab.run import execute_run

        text = (Path(__file__).parents[1] / "configs" / "large_vertical.txt").read_text()
        text = text.replace("T = 20.0", "T = 0.5").replace(
            "norms = Pu3:besov:s=0.5,p=2,r=1",
            "norms = a:hybrid:s=0.5,t=1.5,r=2,p=2,R0=1; a:besov:s=0.75,p=4,r=1",
        )
        nudged = text.replace("epsilon = 0.01", f"epsilon = {math.nextafter(0.01, 1.0)!r}")
        assert nudged != text
        base, _ = execute_run(parse_config(text))
        moved, _ = execute_run(parse_config(nudged))
        columns = ["l2_a", "lp2_a", "h1_a", "h2_a", "eflux_l2", "eflux_h1dot",
                   "a:hybrid:s=0.5,t=1.5,r=2,p=2,R0=1", "a:besov:s=0.75,p=4,r=1"]
        for key in columns:
            np.testing.assert_allclose(moved.column(key), base.column(key),
                                       rtol=1e-12, atol=0, err_msg=key)
