"""Grid construction, transforms, spectral operators, dealiased products,
and L^p norms."""

import numpy as np
import pytest

from cnslab.spectral import (
    Field,
    GridError,
    GridMismatchError,
    PositivityFault,
    VectorField,
    check_grid,
    constant_field,
    dealias,
    dealiased_product,
    divergence,
    field_from_function,
    gradient,
    laplacian,
    lebesgue_norm,
    make_grid,
    mean_value,
    nonlinear_map,
    random_field,
    sobolev_norm,
    to_physical,
    to_spectral,
)
from cnslab.spectral import Grid, _forward_half, _inverse_real, _pdata, transform_count


class TestGrid:
    def test_wavenumber_lattice_unit_box(self):
        grid = make_grid(8, 2.0 * np.pi, 3)
        # k components are the integers -4..3; smallest nonzero |k| is 2pi/L = 1
        assert sorted(grid.k1.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]
        nonzero = grid.kmag[grid.kmag > 0]
        assert np.isclose(np.min(nonzero), 1.0)

    def test_wavenumber_lattice_4pi_2d(self):
        grid = make_grid(16, 4.0 * np.pi, 2)
        nonzero = grid.kmag[grid.kmag > 0]
        assert np.isclose(np.min(nonzero), 0.5)

    @pytest.mark.parametrize("bad_n", [10, 9, 4, 7, 20])
    def test_rejects_bad_sizes(self, bad_n):
        with pytest.raises(GridError):
            make_grid(bad_n, 1.0, 3)

    def test_check_grid_allocates_nothing(self):
        for n in (8, 12, 18, 36, 96, 2**20):  # 2^20: a grid would need TBs
            check_grid(n, 1.0, 3)
        for n in (4, 7, 9, 10, 20, 40, 16.0, True):
            with pytest.raises(GridError):
                check_grid(n, 1.0, 3)

    def test_accepts_radix23_sizes(self):
        for n in (8, 12, 16, 24, 32, 48, 64):
            assert make_grid(n, 1.0, 2).n == n

    def test_keeps_the_arrays_the_benchmark_tracer_reads(self):
        # perfbench/tracing.py::_grid_bytes sums the bytes of these arrays
        grid = make_grid(8, 1.0, 3)
        for name in ("k1", "k", "k2", "kmag", "dealias_mask", "nyquist_free", "x"):
            assert name in Grid.__slots__
            value = getattr(grid, name)
            arrays = value if isinstance(value, tuple) else (value,)
            assert all(isinstance(a, np.ndarray) for a in arrays)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_multipliers_are_the_half_of_the_fftfreq_lattice(self, dim):
        grid = make_grid(12, 3.0, dim)
        h = grid.n // 2 + 1
        assert grid.spectral_shape == grid.shape[:-1] + (h,)
        full = np.meshgrid(*([grid.k1] * dim), indexing="ij")
        for got, ref in zip(grid.k, full):
            assert got.shape == grid.spectral_shape
            assert np.array_equal(got, ref[..., :h])  # the last-axis Nyquist keeps k = -n/2
        assert np.array_equal(grid.k2, sum(a * a for a in full)[..., :h])
        assert list(grid.w) == [1.0] + [2.0] * (h - 2) + [1.0]

    def test_rejects_bad_length_and_dim(self):
        with pytest.raises(GridError):
            make_grid(8, 0.0, 3)
        with pytest.raises(GridError):
            make_grid(8, -1.0, 3)
        with pytest.raises(GridError):
            make_grid(8, 1.0, 4)
        with pytest.raises(GridError):
            make_grid(8, 1.0, 1)


class TestTransforms:
    def test_constant_field_dc_coefficient(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: 3.5 * np.ones_like(x))
        s = to_spectral(f)
        assert np.isclose(s.data[0, 0, 0], 3.5)
        rest = s.data.copy()
        rest[0, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_sine_two_conjugate_coefficients(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(x))
        s = to_spectral(f).data
        assert np.isclose(abs(s[1, 0, 0]), 0.5)
        assert np.isclose(abs(s[-1, 0, 0]), 0.5)
        assert np.isclose(s[1, 0, 0], np.conj(s[-1, 0, 0]))
        zeroed = s.copy()
        zeroed[1, 0, 0] = zeroed[-1, 0, 0] = 0.0
        assert np.max(np.abs(zeroed)) < 1e-14

    def test_round_trip_random_real(self, grid16):
        f = random_field(grid16, seed=0)
        back = to_physical(to_spectral(f))
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(back.data - f.data)) <= 1e-12 * scale

    def test_hermitian_symmetry_from_real_samples(self, grid16):
        # the half spectrum's planes m_last = 0 and m_last = n/2 hold their
        # own conjugates: s[m0, m1, c] = conj(s[-m0, -m1, c])
        s = to_spectral(random_field(grid16, seed=1)).data
        assert s.shape == grid16.spectral_shape
        for c in (0, grid16.n // 2):
            plane = s[..., c]
            flipped = np.roll(np.conj(plane[::-1, ::-1]), shift=(1, 1), axis=(0, 1))
            assert np.max(np.abs(plane - flipped)) <= 1e-12 * np.max(np.abs(s))

    def test_idempotent_representation(self, grid16):
        f = random_field(grid16, seed=2)
        assert to_physical(f) is f
        s = to_spectral(f)
        assert to_spectral(s) is s


class TestRealTransformPair:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 16, 24])
    def test_matches_complex_transforms(self, n, dim):
        grid = make_grid(n, 2 * np.pi, dim)
        h = n // 2 + 1
        rng = np.random.default_rng(n + dim)
        samples = rng.standard_normal(grid.shape)
        ref = (np.fft.fftn(samples) / n**dim)[..., :h]
        got = _forward_half(samples)
        assert got.shape == grid.spectral_shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

        coeffs = np.fft.fftn(rng.standard_normal(grid.shape)) / n**dim
        ref_back = np.real(np.fft.ifftn(coeffs)) * n**dim
        back = _inverse_real(grid, coeffs[..., :h])
        assert back.shape == grid.shape and back.dtype == np.float64
        assert np.max(np.abs(back - ref_back)) <= 1e-14 * np.max(np.abs(ref_back))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_full_spectrum_folds_to_the_forward_half(self, n, dim):
        grid = make_grid(n, 2 * np.pi, dim)
        samples = np.random.default_rng(3 * n + dim).standard_normal(grid.shape)
        half = _forward_half(samples)
        for make in (lambda c: Field(grid, c, "spectral"), lambda c: Field.from_spectral(grid, c)):
            got = make(np.fft.fftn(samples) / n**dim).data
            assert got.shape == grid.spectral_shape
            assert np.max(np.abs(got - half)) <= 1e-14 * np.max(np.abs(half))

    def test_rejects_other_spectral_shapes(self, grid16):
        with pytest.raises(ValueError, match="shape"):
            Field(grid16, np.zeros((16, 16, 8), dtype=np.complex128), "spectral")


class TestRealSamples:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 16])
    def test_pdata_matches_complex_inverse_on_hermitian_spectra(self, n, dim):
        grid = make_grid(n, 2 * np.pi, dim)
        rng = np.random.default_rng(10 * n + dim)
        coeffs = np.fft.fftn(rng.standard_normal(grid.shape)) / n**dim
        kept = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3  # the 2/3 rule, axis by axis
        full_mask = np.logical_and.reduce(np.meshgrid(*([kept] * dim), indexing="ij"))
        for spec in (coeffs, np.where(full_mask, coeffs, 0.0)):
            ref = np.real(np.fft.ifftn(spec)) * n**dim
            got = _pdata(Field.from_spectral(grid, spec))
            assert got.dtype == np.float64 and got.shape == grid.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_physical_samples_are_real(self, grid16):
        samples = np.ones(grid16.shape, dtype=np.complex128)
        with pytest.raises(ValueError, match="real"):
            Field.from_physical(grid16, samples)
        with pytest.raises(ValueError, match="real"):
            Field(grid16, samples, "physical")
        f = Field.from_physical(grid16, np.ones(grid16.shape, dtype=np.int64))
        assert f.data.dtype == np.float64

    def test_transforms_are_counted(self, grid16):
        samples = np.random.default_rng(0).standard_normal(grid16.shape)
        before = transform_count()
        half = _forward_half(samples)
        _inverse_real(grid16, half)
        assert transform_count() - before == 2

    def test_pdata_is_memoized(self, grid16):
        f = to_spectral(random_field(grid16, seed=5))
        before = transform_count()
        first = _pdata(f)
        assert _pdata(f) is first
        assert transform_count() - before == 1


class TestOperators:
    def test_gradient_of_constant_is_zero(self, grid16):
        g = gradient(constant_field(grid16, 4.2))
        assert all(lebesgue_norm(c, 2) == 0.0 for c in g.components)

    def test_div_grad_equals_laplacian(self, grid16):
        f = random_field(grid16, seed=3, band=(0.5, 4.0))
        lhs = divergence(gradient(f))
        rhs = laplacian(f)
        assert lebesgue_norm(lhs - rhs, 2) <= 1e-12 * lebesgue_norm(rhs, 2)

    def test_laplacian_of_sine(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(2 * x))
        lap = to_physical(laplacian(f))
        expected = -4.0 * np.sin(2 * grid16.x[0])
        assert np.max(np.abs(lap.data - expected)) < 1e-12

    def test_nyquist_row_zeroed_by_odd_derivatives(self, grid16):
        # a pure Nyquist mode (m = -n/2) has ambiguous odd derivatives and is
        # annihilated by them
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[-grid16.n // 2, 0, 0] = 1.0
        f = Field(grid16, coeffs, "spectral")
        from cnslab.spectral import partial_deriv

        assert lebesgue_norm(partial_deriv(f, 0), 2) == 0.0
        # even-order operators keep it
        assert lebesgue_norm(laplacian(f), 2) > 0.0

    def test_derivative_commutes_with_dyadic_filter(self, grid16):
        from cnslab.lp import dyadic_block
        from cnslab.spectral import partial_deriv

        f = random_field(grid16, seed=4)
        a = partial_deriv(dyadic_block(f, 1), 0)
        b = dyadic_block(partial_deriv(f, 0), 1)
        assert np.max(np.abs(a.data - b.data)) <= 1e-14 * np.max(np.abs(b.data) + 1e-300)


class TestDealiasedProduct:
    def test_identity_factor(self, grid16):
        f = random_field(grid16, seed=5)
        one = constant_field(grid16, 1.0)
        prod = dealiased_product(f, one)
        trunc = dealias(f)
        assert lebesgue_norm(prod - trunc, 2) <= 1e-12 * lebesgue_norm(trunc, 2)

    def test_sine_squared_identity(self):
        # sin^2(x) = 1/2 - cos(2x)/2; modes 0 and 2 survive the 2/3 ball at N>=8
        grid = make_grid(8, 2.0 * np.pi, 3)
        f = field_from_function(grid, lambda x, y, z: np.sin(x))
        prod = to_physical(dealiased_product(f, f))
        expected = 0.5 - 0.5 * np.cos(2.0 * grid.x[0])
        assert np.max(np.abs(prod.data - expected)) < 1e-12

    def test_high_mode_product_vanishes(self, grid16):
        cut = grid16.n // 3
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[cut + 1, 0, 0] = 1.0
        coeffs[-(cut + 1), 0, 0] = 1.0
        f = Field(grid16, coeffs, "spectral")
        prod = dealiased_product(f, f)
        assert lebesgue_norm(prod, 2) == 0.0

    def test_symmetric_and_bilinear(self, grid16):
        f = random_field(grid16, seed=6)
        g = random_field(grid16, seed=7)
        h = random_field(grid16, seed=8)
        fg = dealiased_product(f, g)
        gf = dealiased_product(g, f)
        assert np.max(np.abs(fg.data - gf.data)) < 1e-14
        lin = dealiased_product(f, g + 2.0 * h)
        split = dealiased_product(f, g) + 2.0 * dealiased_product(f, h)
        assert lebesgue_norm(lin - split, 2) <= 1e-12 * lebesgue_norm(split, 2)

    def test_grid_mismatch_rejected(self, grid16, grid32):
        with pytest.raises(GridMismatchError):
            dealiased_product(random_field(grid16, 0), random_field(grid32, 0))


class TestNonlinearMap:
    def test_identity_truncates(self, grid16):
        f = random_field(grid16, seed=9)
        out = nonlinear_map(f, lambda v: v)
        assert lebesgue_norm(out - dealias(f), 2) <= 1e-12 * lebesgue_norm(f, 2)

    def test_power_at_equilibrium(self, grid16):
        rho = constant_field(grid16, 1.0)
        out = to_physical(nonlinear_map(rho, lambda v: v**1.4))
        assert np.max(np.abs(out.data - 1.0)) < 1e-12

    def test_square_of_cosine_perturbation(self, grid16):
        rho = field_from_function(grid16, lambda x, y, z: 1.0 + 0.1 * np.cos(x))
        out = to_physical(nonlinear_map(rho, lambda v: v**2))
        x = grid16.x[0]
        expected = 1.005 + 0.2 * np.cos(x) + 0.005 * np.cos(2 * x)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_domain_violation_reports_min_sample(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: -1.0 + 0.5 * np.cos(x))
        with pytest.raises(PositivityFault) as err:
            nonlinear_map(f, np.log)
        assert err.value.min_value == pytest.approx(-1.5)


class TestNorms:
    def test_constant_lp(self, grid16):
        f = constant_field(grid16, -2.0)
        vol = (2.0 * np.pi) ** 3
        for p in (1.0, 2.0, 4.0):
            assert np.isclose(lebesgue_norm(f, p), 2.0 * vol ** (1.0 / p))

    def test_sine_l2_exact(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(x))
        assert np.isclose(lebesgue_norm(f, 2), 2.0 * np.pi * np.sqrt(np.pi))

    def test_linf_takes_max_magnitude(self, grid16):
        samples = np.zeros(grid16.shape)
        samples[0, 0, 0] = -3.0
        samples[1, 2, 3] = 2.0
        f = Field.from_physical(grid16, samples)
        assert lebesgue_norm(f, np.inf) == 3.0

    def test_rejects_p_below_one(self, grid16):
        with pytest.raises(ValueError):
            lebesgue_norm(constant_field(grid16, 1.0), 0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_parseval(self, grid16, seed):
        f = random_field(grid16, seed=seed)
        l2 = lebesgue_norm(f, 2)
        coeffs = to_spectral(f).data
        spectral = np.sqrt(grid16.volume * np.sum(grid16.w * np.abs(coeffs) ** 2))
        assert abs(l2**2 - spectral**2) <= 1e-10 * l2**2

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_weighted_parseval_on_unfiltered_data(self, n, dim):
        # unfiltered samples put weight on the self-conjugate planes
        # m_last = 0 and m_last = n/2, which count once
        grid = make_grid(n, 2 * np.pi, dim)
        f = random_field(grid, seed=n + dim)
        half = to_spectral(f).data
        assert half.shape == grid.spectral_shape
        assert np.max(np.abs(half[..., n // 2])) > 1e-3
        l2 = lebesgue_norm(f, 2)
        assert abs(sobolev_norm(f, 0.0) - l2) <= 1e-14 * l2

    def test_sobolev_h0_is_l2(self, grid16):
        f = random_field(grid16, seed=11)
        assert np.isclose(sobolev_norm(f, 0.0), lebesgue_norm(f, 2))

    def test_vector_norm_is_magnitude_based(self, grid16):
        u = VectorField(
            [field_from_function(grid16, lambda x, y, z: np.sin(x)),
             field_from_function(grid16, lambda x, y, z: np.cos(x)),
             Field.zeros(grid16)]
        )
        # |u| = 1 pointwise
        assert np.isclose(lebesgue_norm(u, np.inf), 1.0)
        assert np.isclose(lebesgue_norm(u, 2), np.sqrt(grid16.volume))


class TestVectorField:
    def test_components_share_grid(self, grid16, grid32):
        with pytest.raises(GridMismatchError):
            VectorField([Field.zeros(grid16), Field.zeros(grid16), Field.zeros(grid32)])

    def test_horizontal_vertical_split(self, grid16):
        u = VectorField([constant_field(grid16, float(i)) for i in range(3)])
        assert mean_value(u.vertical) == 2.0
        assert tuple(mean_value(c) for c in u.horizontal) == (0.0, 1.0)

    def test_no_vertical_in_2d(self, grid16_2d):
        u = VectorField.zeros(grid16_2d)
        with pytest.raises(ValueError):
            _ = u.vertical

    def test_data_is_immutable(self, grid16):
        f = random_field(grid16, seed=12)
        with pytest.raises(ValueError):
            f.data[0, 0, 0] = 1.0
