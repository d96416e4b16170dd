"""Leray projectors, the compressible scalar, effective viscous flux, the
auxiliary low-frequency combination, and the material derivative."""

import numpy as np
import pytest

from cnslab.helmholtz import (
    auxiliary_w,
    compressible_part,
    effective_flux,
    incompressible_part,
    lambda_power,
    material_derivative,
    project,
)
from cnslab.spectral import (
    Field,
    VectorField,
    _sdata,
    constant_field,
    divergence,
    field_from_function,
    gradient,
    laplacian,
    lebesgue_norm,
    make_grid,
    mean_value,
    random_field,
    to_physical,
)


def _random_velocity(grid, seed, band=(0.5, 5.0)):
    return VectorField([random_field(grid, seed=seed + i, band=band) for i in range(grid.dim)])


class TestProjection:
    def test_pure_gradient_is_compressible(self, grid16):
        psi = field_from_function(grid16, lambda x, y, z: np.sin(x) * np.cos(2 * y))
        u = gradient(psi)
        spl = project(u)
        assert lebesgue_norm(spl.P, 2) <= 1e-12 * lebesgue_norm(u, 2)
        assert lebesgue_norm(spl.Q - u, 2) <= 1e-12 * lebesgue_norm(u, 2)

    def test_stream_function_field_is_incompressible(self, grid16):
        # the oscillating-datum shape: (-d2 psi, d1 psi, 0)
        psi = field_from_function(grid16, lambda x, y, z: np.cos(x) * np.sin(y))
        g = gradient(psi)
        u = VectorField([-1.0 * g[1], g[0], Field.zeros(grid16)])
        spl = project(u)
        assert lebesgue_norm(spl.Q, 2) <= 1e-12 * lebesgue_norm(u, 2)
        assert lebesgue_norm(spl.P - u, 2) <= 1e-12 * lebesgue_norm(u, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_pythagoras(self, grid16, seed):
        u = _random_velocity(grid16, seed=10 * seed)
        spl = project(u)
        lhs = lebesgue_norm(spl.P, 2) ** 2 + lebesgue_norm(spl.Q, 2) ** 2
        rhs = lebesgue_norm(u, 2) ** 2  # mean-free random components
        assert abs(lhs - rhs) <= 1e-10 * rhs

    @pytest.mark.parametrize("n, dim", [(16, 3), (24, 2)])
    def test_single_parts_are_the_split_bit_for_bit(self, n, dim):
        # Q u and P u formed alone are the split's parts, bit for bit
        u = _random_velocity(make_grid(n, 2 * np.pi, dim), seed=21)
        spl = project(u)
        for part, whole in ((compressible_part(u), spl.Q), (incompressible_part(u), spl.P)):
            for got, want in zip(part, whole):
                assert np.array_equal(got.data, want.data)

    def test_projector_algebra(self, grid16):
        u = _random_velocity(grid16, seed=5)
        spl = project(u)
        pp = project(spl.P)
        qq = project(spl.Q)
        scale = lebesgue_norm(u, 2)
        assert max(lebesgue_norm(a - b, 2) for a, b in zip(pp.P, spl.P)) <= 1e-10 * scale
        assert max(lebesgue_norm(a - b, 2) for a, b in zip(qq.Q, spl.Q)) <= 1e-10 * scale
        assert lebesgue_norm(pp.Q, 2) <= 1e-10 * scale
        assert lebesgue_norm(qq.P, 2) <= 1e-10 * scale

    def test_div_of_p_part_vanishes(self, grid16):
        u = _random_velocity(grid16, seed=6)
        spl = project(u)
        assert lebesgue_norm(divergence(spl.P), 2) <= 1e-10 * lebesgue_norm(u, 2)

    def test_mean_velocity_goes_to_p(self, grid16):
        u = VectorField([constant_field(grid16, 1.5),
                         constant_field(grid16, -0.5),
                         Field.zeros(grid16)])
        spl = project(u)
        assert mean_value(spl.P[0]) == pytest.approx(1.5)
        assert mean_value(spl.Q[0]) == 0.0
        assert spl.mean_convention == "incompressible"

    def test_d_matches_qu_in_l2(self, grid16):
        u = _random_velocity(grid16, seed=7)
        spl = project(u)
        assert lebesgue_norm(spl.Q, 2) == pytest.approx(lebesgue_norm(spl.d, 2), rel=1e-10)

    def test_d_single_mode_closed_form(self, grid16):
        # u = grad sin(x1) = (cos x1, 0, 0); div u = -sin x1, |k| = 1:
        # d = Lambda^{-1} div u = -sin(x1)
        u = gradient(field_from_function(grid16, lambda x, y, z: np.sin(x)))
        d = to_physical(project(u).d)
        assert np.max(np.abs(d.data - (-np.sin(grid16.x[0])))) < 1e-12

    def test_lambda_d_reconstructs_divergence(self, grid16):
        u = _random_velocity(grid16, seed=8)
        spl = project(u)
        err = lebesgue_norm(lambda_power(spl.d, 1.0) - divergence(u), 2)
        assert err <= 1e-10 * lebesgue_norm(divergence(u), 2)


def _hermitian_defect(half):
    """max |c(m) - conj(c(-m))| over the full spectrum, indices mod n. On the
    half spectrum each pair with m_last in 1..n/2-1 keeps one member, so only
    the planes m_last = 0 and m_last = n/2, their own partners, can fail."""
    axes = tuple(range(half.ndim - 1))
    planes = half[..., [0, -1]]
    flipped = np.roll(np.flip(planes, axis=axes), shift=(1,) * len(axes), axis=axes)
    return np.max(np.abs(planes - np.conj(flipped)))


class TestProjectionOfUnfilteredData:
    """Random samples carry content on the Nyquist planes, where k = -n/2 is
    its own conjugate partner; the split must stay the split of a real u."""

    @pytest.fixture()
    def split(self, grid16):
        rng = np.random.default_rng(4)
        u = VectorField([Field.from_physical(grid16, rng.standard_normal(grid16.shape))
                         for _ in range(3)])
        return u, project(u)

    def test_parts_are_hermitian(self, split):
        u, spl = split
        scale = max(np.max(np.abs(_sdata(c))) for c in u)
        for f in (*spl.P, *spl.Q, spl.d):
            assert _hermitian_defect(_sdata(f)) <= 1e-14 * scale

    def test_parts_sum_to_u(self, split):
        u, spl = split
        for c, p, q in zip(u, spl.P, spl.Q):
            assert np.max(np.abs(_sdata(p) + _sdata(q) - _sdata(c))) <= 1e-14

    def test_p_is_idempotent(self, split):
        _, spl = split
        again = project(spl.P)
        for p, pp, qq in zip(spl.P, again.P, again.Q):
            assert np.max(np.abs(_sdata(pp) - _sdata(p))) <= 1e-14
            assert np.max(np.abs(_sdata(qq))) <= 1e-14

    def test_divergence_of_p_part_is_zero(self, split):
        _, spl = split
        assert np.max(np.abs(_sdata(divergence(spl.P)))) <= 1e-14


class TestLambdaPower:
    def test_alpha_two_on_unit_mode(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(x))
        out = to_physical(lambda_power(f, 2.0))
        assert np.max(np.abs(out.data - np.sin(grid16.x[0]))) < 1e-12

    def test_squares_to_minus_laplacian(self, grid16):
        f = random_field(grid16, seed=9)
        lhs = lambda_power(lambda_power(f, 1.0), 1.0)
        rhs = -1.0 * laplacian(f)
        assert lebesgue_norm(lhs - rhs, 2) <= 1e-12 * lebesgue_norm(rhs, 2)

    def test_inverse_round_trip_mean_zero(self, grid16):
        f = random_field(grid16, seed=10)
        f = f - mean_value(f) * constant_field(grid16, 1.0)
        back = lambda_power(lambda_power(f, 1.0), -1.0)
        assert lebesgue_norm(back - f, 2) <= 1e-12 * lebesgue_norm(f, 2)

    def test_negative_power_needs_mean_zero(self, grid16):
        with pytest.raises(ValueError):
            lambda_power(constant_field(grid16, 1.0), -1.0)


class TestEffectiveFlux:
    def test_equilibrium(self, grid16):
        g = effective_flux(VectorField.zeros(grid16), Field.zeros(grid16), 0.0, 1.0)
        assert lebesgue_norm(g, 2) == 0.0

    def test_constant_pressure_piece(self, grid16):
        g = effective_flux(VectorField.zeros(grid16), constant_field(grid16, 2.0), -1.0, 1.0)
        # lambda + 2 mu = 1: G = -2
        assert mean_value(g) == pytest.approx(-2.0)
        assert lebesgue_norm(g - constant_field(grid16, -2.0), 2) < 1e-12

    def test_manufactured_cancellation(self, grid16):
        lam, mu = 0.3, 0.7
        u = gradient(field_from_function(grid16, lambda x, y, z: np.sin(x) * np.sin(z)))
        frak = (lam + 2.0 * mu) * divergence(u)
        g = effective_flux(u, frak, lam, mu)
        assert lebesgue_norm(g, 2) <= 1e-12 * lebesgue_norm(divergence(u), 2)

    def test_rejects_degenerate_viscosity(self, grid16):
        with pytest.raises(ValueError):
            effective_flux(VectorField.zeros(grid16), Field.zeros(grid16), -2.0, 1.0)


class TestAuxiliaryW:
    def test_zero_density_part(self, grid16):
        d = random_field(grid16, seed=11)
        w = auxiliary_w(Field.zeros(grid16), d, 0.5, 1.0)
        assert lebesgue_norm(w + d, 2) <= 1e-12 * lebesgue_norm(d, 2)

    def test_single_mode_weight(self, grid16):
        lam, mu = 0.5, 1.0
        a = field_from_function(grid16, lambda x, y, z: np.sin(2 * x))
        w = to_physical(auxiliary_w(a, Field.zeros(grid16), lam, mu))
        # |k| = 2: w = (2 mu + lam) * 2 * sin(2 x1)
        expected = (2.0 * mu + lam) * 2.0 * np.sin(2 * grid16.x[0])
        assert np.max(np.abs(w.data - expected)) < 1e-12

    def test_linearity(self, grid16):
        a1 = random_field(grid16, seed=12, band=(0.5, 4.0))
        a2 = random_field(grid16, seed=13, band=(0.5, 4.0))
        d = random_field(grid16, seed=14)
        lhs = auxiliary_w(a1 + 2.0 * a2, d, 0.0, 1.0)
        rhs = auxiliary_w(a1, d, 0.0, 1.0) + 2.0 * auxiliary_w(a2, Field.zeros(grid16), 0.0, 1.0)
        assert lebesgue_norm(lhs - rhs, 2) <= 1e-10 * lebesgue_norm(rhs, 2)


class TestMaterialDerivative:
    def test_zero_velocity(self, grid16):
        u_t = _random_velocity(grid16, seed=15)
        got = material_derivative(VectorField.zeros(grid16), u_t)
        assert max(lebesgue_norm(a - b, 2) for a, b in zip(got, u_t)) < 1e-12

    def test_steady_transport_balance(self, grid16):
        from cnslab.helmholtz import convective_term

        u = _random_velocity(grid16, seed=16, band=(0.5, 3.0))
        u_t = -1.0 * convective_term(u, u)
        got = material_derivative(u, u_t)
        assert lebesgue_norm(got, 2) <= 1e-12 * lebesgue_norm(u, 2)

    def test_shear_flow_self_transport_vanishes(self, grid16):
        # u = (sin x2, 0, 0): (u.grad)u = u1 d1 u = 0
        u = VectorField([field_from_function(grid16, lambda x, y, z: np.sin(y)),
                         Field.zeros(grid16), Field.zeros(grid16)])
        got = material_derivative(u, VectorField.zeros(grid16))
        assert lebesgue_norm(got, 2) <= 1e-13
