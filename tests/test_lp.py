"""Dyadic decomposition, Besov/hybrid/per-block time norms, Bony paraproducts,
and the frequency-inequality witnesses."""

import numpy as np
import pytest

from cnslab.lp import (
    NormSpec,
    active_scale_range,
    bernstein_ratio,
    bernstein_witness,
    besov_norm,
    bony_decompose,
    chemin_lerner_norm,
    default_profile,
    dyadic_block,
    format_norm_key,
    heat_estimate_witness,
    heat_evolve,
    hybrid_norm,
    low_pass,
    parse_norm_key,
    partition_of_unity_error,
    split_low_high,
    time_besov_norm,
    truncated_besov_norm,
)
from cnslab.lp import _block_lp_norms
from cnslab.spectral import (
    Field,
    VectorField,
    _pdata,
    _sdata,
    constant_field,
    dealiased_product,
    field_from_function,
    lebesgue_norm,
    make_grid,
    mean_value,
    random_field,
    to_physical,
)


def _demeaned(f):
    return f - mean_value(f) * constant_field(f.grid, 1.0)


class TestCutoffProfile:
    def test_plateau_support_monotone(self):
        prof = default_profile()
        r = np.linspace(0.0, 3.0, 2001)
        chi = prof.chi(r)
        assert np.all(chi[r <= 0.75] == 1.0)
        assert np.all(chi[r >= 4.0 / 3.0] == 0.0)
        assert np.all(np.diff(chi) <= 1e-15)
        assert np.all((0.0 <= chi) & (chi <= 1.0))

    def test_phi_support(self):
        prof = default_profile()
        r = np.linspace(0.0, 4.0, 4001)
        phi = prof.phi(r)
        assert np.all(phi[(r < 0.75) | (r > 8.0 / 3.0)] == 0.0)
        assert phi[np.argmin(np.abs(r - 1.5))] > 0.0

    def test_partition_of_unity_on_grid(self, grid32):
        assert partition_of_unity_error(grid32) <= 1e-12

    def test_partition_of_unity_dense_radii(self):
        prof = default_profile()
        r = np.geomspace(0.3, 40.0, 500)
        total = sum(prof.phi(r / 2.0**j) for j in range(-4, 9))
        assert np.max(np.abs(total - 1.0)) <= 1e-12


class TestDyadicBlocks:
    def test_single_mode_block_weight(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(x))
        b0 = to_physical(dyadic_block(f, 0))
        weight = 1.0 - default_profile().chi(1.0)
        expected = weight * np.sin(grid16.x[0])
        assert np.max(np.abs(b0.data - expected)) < 1e-12

    def test_disjoint_support_gives_zero(self, grid32):
        f = random_field(grid32, seed=0, band=(3.0, 4.0))
        jmin, _ = active_scale_range(grid32)
        b = dyadic_block(f, jmin)  # support of phi(2^-jmin .) misses [3, 4]
        assert lebesgue_norm(b, 2) == 0.0

    def test_blocks_sum_to_demeaned_field(self, grid32):
        f = random_field(grid32, seed=1)
        jmin, jmax = active_scale_range(grid32)
        total = Field.zeros(grid32)
        for j in range(jmin, jmax + 1):
            total = total + dyadic_block(f, j)
        target = _demeaned(f)
        err = lebesgue_norm(total - target, 2)
        assert err <= 1e-10 * lebesgue_norm(target, 2)

    def test_out_of_range_scale_warns_and_zeroes(self, grid16):
        f = random_field(grid16, seed=2)
        with pytest.warns(RuntimeWarning):
            b = dyadic_block(f, 99)
        assert lebesgue_norm(b, 2) == 0.0

    @pytest.mark.parametrize("j,k", [(0, 2), (0, 3), (-1, 1), (1, 4)])
    def test_quasi_orthogonality(self, grid32, j, k):
        f = random_field(grid32, seed=3)
        double = dyadic_block(dyadic_block(f, j), k)
        assert lebesgue_norm(double, 2) <= 1e-10 * lebesgue_norm(f, 2)

    def test_real_input_real_blocks(self, grid16):
        f = random_field(grid16, seed=4)
        b = to_physical(dyadic_block(f, 1))
        assert not np.iscomplexobj(b.data)


def _full_kmag(grid):
    """|k| on every mode of the full n^d lattice, from np.fft.fftfreq."""
    k1 = (2.0 * np.pi / grid.length) * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return np.sqrt(sum(a * a for a in np.meshgrid(*([k1] * grid.dim), indexing="ij")))


def _direct_block_norms(f, p, js):
    """Block L^p norms from the full-spectrum multiplier phi(2^-j |k|) on
    every mode of the complex transform of the samples, and the complex
    inverse transform."""
    grid = f.grid
    comps = f.components if isinstance(f, VectorField) else (f,)
    kmag = _full_kmag(grid)
    spectra = [np.fft.fftn(_pdata(c)) / grid.n**grid.dim for c in comps]
    out = []
    for j in js:
        mult = default_profile().phi(np.ldexp(kmag, -j))
        if p == 2:
            power = sum(np.abs(mult * c) ** 2 for c in spectra)
            out.append(np.sqrt(grid.volume * np.sum(power)))
            continue
        blocks = [np.real(np.fft.ifftn(mult * c)) * grid.n**grid.dim for c in spectra]
        mag = np.sqrt(sum(b**2 for b in blocks))
        out.append(np.max(mag) if p == np.inf else (np.sum(mag**p) * grid.dx**grid.dim) ** (1 / p))
    return np.asarray(out)


class TestShellTable:
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("p", [2.0, 4.0, np.inf])
    @pytest.mark.parametrize("n,dim", [(16, 3), (24, 2)])
    def test_block_norms_match_full_spectrum_multipliers(self, n, dim, p, vector):
        grid = make_grid(n, 2.0 * np.pi, dim)
        comps = [random_field(grid, seed=s) for s in range(dim if vector else 1)]
        f = VectorField(comps) if vector else comps[0]
        jmin, jmax = active_scale_range(grid)
        js = list(range(jmin, jmax + 1))
        got = np.asarray(_block_lp_norms(f, p, js))
        ref = _direct_block_norms(f, p, js)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)
        weights = 2.0 ** (0.5 * np.asarray(js))
        direct = np.sum(weights * _direct_block_norms(_demeaned_any(f), p, js))
        assert besov_norm(f, 0.5, p, 1, warn_mean=False) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("n,dim", [(16, 3), (24, 2)])
    def test_block_and_low_pass_multipliers(self, n, dim):
        grid = make_grid(n, 2.0 * np.pi, dim)
        f = random_field(grid, seed=3)
        prof = default_profile()
        half_kmag = _full_kmag(grid)[..., : n // 2 + 1]
        jmin, jmax = active_scale_range(grid)
        for j in range(jmin, jmax + 1):
            phi = prof.phi(np.ldexp(half_kmag, -j))
            chi = prof.chi(np.ldexp(half_kmag, -j))
            scale = np.max(np.abs(_sdata(f)))
            assert np.max(np.abs(_sdata(dyadic_block(f, j)) - phi * _sdata(f))) <= 1e-15 * scale
            assert np.max(np.abs(_sdata(low_pass(f, j)) - chi * _sdata(f))) <= 1e-15 * scale

    def test_partition_of_unity_error_matches_modes(self, grid32):
        jmin, jmax = active_scale_range(grid32)
        total = sum(default_profile().phi(np.ldexp(grid32.kmag, -j)) for j in range(jmin, jmax + 1))
        direct = np.max(np.abs(total[grid32.kmag > 0] - 1.0))
        assert abs(partition_of_unity_error(grid32) - direct) <= 1e-15

    def test_shell_index_layout(self, grid16):
        msq = grid16.msq
        m = np.fft.fftfreq(16, d=1.0 / 16)
        expected = sum(a**2 for a in np.meshgrid(m, m, m, indexing="ij"))[..., :9]
        assert msq.shape == grid16.spectral_shape and np.array_equal(msq, expected)
        assert msq.max() == 3 * 8**2

    def test_no_multiplier_cache(self, grid16):
        import cnslab.lp as lp

        f = random_field(grid16, seed=8)
        before = {k: len(v) for k, v in vars(lp).items() if isinstance(v, (dict, list, set))}
        besov_norm(f, 0.5, 4, 1, warn_mean=False)
        dyadic_block(f, 0)
        low_pass(f, 1)
        after = {k: len(v) for k, v in vars(lp).items() if isinstance(v, (dict, list, set))}
        assert after == before
        assert not hasattr(lp, "_mult_cache")


def _demeaned_any(f):
    if isinstance(f, VectorField):
        return VectorField([_demeaned(c) for c in f.components])
    return _demeaned(f)


class TestDyadicDecomposition:
    def test_container_reconstructs_source(self, grid32):
        from cnslab.lp import DyadicDecomposition

        f = random_field(grid32, seed=21)
        dec = DyadicDecomposition.decompose(f)
        jmin, jmax = active_scale_range(grid32)
        assert set(dec.blocks) == set(range(jmin, jmax + 1))
        target = _demeaned(f)
        err = lebesgue_norm(dec.reconstruct() - target, 2)
        assert err <= 1e-10 * lebesgue_norm(target, 2)


class TestLowPass:
    def test_beyond_top_scale_is_identity(self, grid16):
        f = random_field(grid16, seed=5)
        _, jmax = active_scale_range(grid16)
        out = low_pass(f, jmax + 2)
        assert lebesgue_norm(out - f, 2) <= 1e-12 * lebesgue_norm(f, 2)

    def test_far_below_is_mean(self, grid16):
        f = random_field(grid16, seed=6)
        jmin, _ = active_scale_range(grid16)
        out = to_physical(low_pass(f, jmin - 2))
        assert np.max(np.abs(out.data - mean_value(f))) < 1e-12

    def test_telescoping_against_block_sums(self, grid32):
        f = random_field(grid32, seed=7)
        jmin, jmax = active_scale_range(grid32)
        for j in (0, 2):
            direct = low_pass(f, j)
            summed = mean_value(f) * constant_field(grid32, 1.0)
            for jj in range(jmin, j):
                summed = summed + dyadic_block(f, jj)
            err = lebesgue_norm(direct - summed, 2)
            assert err <= 1e-10 * max(lebesgue_norm(f, 2), 1e-300)


class TestBesovNorm:
    def test_zero_field(self, grid16):
        assert besov_norm(Field.zeros(grid16), 0.0, 2, 1) == 0.0

    def test_single_mode_partition_collapse(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(x))
        # sum_j phi(2^-j) = 1 collapses the ell^1 sum to the plain L^2 norm
        val = besov_norm(f, 0.0, 2, 1)
        assert np.isclose(val, lebesgue_norm(f, 2), rtol=1e-10)

    @pytest.mark.parametrize("s,p", [(0.5, 2), (1.5, 2), (-0.25, 4)])
    def test_single_mode_dilation_ratio(self, grid16, s, p):
        # moving one mode |k|=1 -> |k|=2 shifts every block weight by one
        # scale: the norm ratio is exactly 2^s on the torus (box L^p norms of
        # the dilated mode are unchanged; brute-forced here)
        f1 = field_from_function(grid16, lambda x, y, z: np.sin(x))
        f2 = field_from_function(grid16, lambda x, y, z: np.sin(2 * x))
        ratio = besov_norm(f2, s, p, 1) / besov_norm(f1, s, p, 1)
        assert ratio == pytest.approx(2.0**s, rel=1e-10)

    def test_nonzero_mean_warns(self, grid16):
        f = constant_field(grid16, 1.0) + field_from_function(
            grid16, lambda x, y, z: np.sin(x)
        )
        with pytest.warns(RuntimeWarning):
            val = besov_norm(f, 0.0, 2, 1)
        assert np.isclose(val, lebesgue_norm(field_from_function(
            grid16, lambda x, y, z: np.sin(x)), 2), rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_summation_monotonicity(self, grid32, seed):
        f = _demeaned(random_field(grid32, seed=seed))
        n_r1 = besov_norm(f, 0.5, 2, 1)
        n_r2 = besov_norm(f, 0.5, 2, 2)
        n_rinf = besov_norm(f, 0.5, 2, np.inf)
        assert n_rinf <= n_r2 + 1e-12 * n_r2
        assert n_r2 <= n_r1 + 1e-12 * n_r1


class TestSplitAndHybrid:
    def test_all_low_modes(self, grid32):
        f = _demeaned(random_field(grid32, seed=8, band=(0.5, 0.74)))
        low, high = split_low_high(f, R0=1.0)
        assert lebesgue_norm(high, 2) == 0.0
        assert lebesgue_norm(low - f, 2) <= 1e-10 * lebesgue_norm(f, 2)

    def test_all_high_modes(self, grid32):
        f = _demeaned(random_field(grid32, seed=9, band=(8.0, 10.0)))
        low, high = split_low_high(f, R0=1.0)
        assert lebesgue_norm(low, 2) == 0.0
        assert lebesgue_norm(high - f, 2) <= 1e-10 * lebesgue_norm(f, 2)

    def test_recombination(self, grid32):
        f = random_field(grid32, seed=10)
        low, high = split_low_high(f, R0=2.0)
        target = _demeaned(f)
        err = lebesgue_norm(low + high - target, 2)
        assert err <= 1e-10 * lebesgue_norm(target, 2)

    def test_r0_must_be_power_of_two(self, grid32):
        with pytest.raises(ValueError):
            split_low_high(random_field(grid32, seed=11), R0=3.0)

    def test_hybrid_collapses_when_indices_match(self, grid32):
        f = _demeaned(random_field(grid32, seed=12))
        full = besov_norm(f, 0.5, 2, 1)
        hyb = hybrid_norm(f, 0.5, 0.5, 2, 2, R0=1.0)
        assert np.isclose(hyb, full, rtol=1e-12)

    def test_hybrid_low_supported_field(self, grid32):
        f = _demeaned(random_field(grid32, seed=13, band=(0.5, 0.74)))
        hyb = hybrid_norm(f, 0.5, -0.5, 2, 4, R0=1.0)
        low_only = truncated_besov_norm(f, 0.5, 2, "low", R0=1.0)
        assert np.isclose(hyb, low_only, rtol=1e-12)

    def test_hybrid_two_pass_recomputation(self, grid32):
        f = _demeaned(random_field(grid32, seed=14))
        got = hybrid_norm(f, 0.5, 1.5, 2, 4, R0=2.0)
        # independent recomputation from raw blocks
        jmin, jmax = active_scale_range(grid32)
        total = 0.0
        for j in range(jmin, jmax + 1):
            b = dyadic_block(f, j)
            if 2.0**j <= 2.0:
                total += 2.0 ** (0.5 * j) * lebesgue_norm(b, 2)
            else:
                total += 2.0 ** (1.5 * j) * lebesgue_norm(b, 4)
        assert np.isclose(got, total, rtol=1e-12)


class TestNormKeys:
    def test_besov_round_trip(self):
        spec = NormSpec(s=0.5, p=2, r=1)
        assert parse_norm_key(format_norm_key(spec)) == spec

    def test_hybrid_round_trip(self):
        spec = NormSpec(s=0.5, t=-0.25, p=4, r=1, r_low=2, R0=2.0)
        again = parse_norm_key(format_norm_key(spec))
        assert again.hybrid and again.t == -0.25 and again.R0 == 2.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_norm_key("sobolev:s=1")


class TestCheminLerner:
    def test_time_constant_series_q_inf(self, grid16):
        f = _demeaned(random_field(grid16, seed=15))
        times = np.linspace(0.0, 2.0, 9)
        fields = [f] * len(times)
        val = chemin_lerner_norm(times, fields, np.inf, 0.5, 2, 1)
        assert np.isclose(val, besov_norm(f, 0.5, 2, 1), rtol=1e-12)

    def test_single_block_any_q(self, grid32):
        base = _demeaned(random_field(grid32, seed=16, band=(1.0, 2.0)))
        blk = dyadic_block(base, 0)
        times = np.linspace(0.0, 1.0, 11)
        fields = [np.exp(-t) * blk for t in times]
        got = chemin_lerner_norm(times, fields, 2, 0.0, 2, 1)
        # ordinary mixed norm of that block (their per-scale weights agree)
        per_t = np.asarray([besov_norm(f, 0.0, 2, 1) for f in fields])
        expected = np.sqrt(np.trapezoid(per_t**2, times))
        assert np.isclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_minkowski_ordering(self, grid16, seed):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.0, 8)
        fields = [_demeaned(random_field(grid16, seed=rng.integers(1 << 31))) for _ in times]
        # r=1 <= q=2: plain time-space norm is below the per-block norm
        plain = time_besov_norm(times, fields, 2, 0.5, 2, 1)
        tilde = chemin_lerner_norm(times, fields, 2, 0.5, 2, 1)
        assert plain <= tilde * (1.0 + 1e-12)
        # reversed for r=2 >= q=1
        plain_r2 = time_besov_norm(times, fields, 1, 0.5, 2, 2)
        tilde_r2 = chemin_lerner_norm(times, fields, 1, 0.5, 2, 2)
        assert tilde_r2 <= plain_r2 * (1.0 + 1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            chemin_lerner_norm([], [], 2, 0.5, 2, 1)


class TestBony:
    def test_scale_gap_reduces_to_low_high_paraproduct(self, grid32):
        u = field_from_function(grid32, lambda x, y, z: np.sin(x))
        v = field_from_function(grid32, lambda x, y, z: np.cos(8 * x + 0.3))
        tuv, tvu, rem = bony_decompose(u, v)
        assert lebesgue_norm(tvu, 2) <= 1e-12
        assert lebesgue_norm(rem, 2) <= 1e-12
        direct = dealiased_product(u, v)
        assert lebesgue_norm(tuv - direct, 2) <= 1e-9 * lebesgue_norm(direct, 2)

    def test_symmetry_for_equal_arguments(self, grid32):
        u = _demeaned(random_field(grid32, seed=17, band=(0.5, 8.0)))
        tuv, tvu, _ = bony_decompose(u, u)
        assert np.max(np.abs(tuv.data - tvu.data)) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, grid32, seed):
        u = _demeaned(random_field(grid32, seed=2 * seed, band=(0.5, 9.0)))
        v = _demeaned(random_field(grid32, seed=2 * seed + 1, band=(0.5, 9.0)))
        tuv, tvu, rem = bony_decompose(u, v)
        direct = dealiased_product(u, v)
        err = lebesgue_norm(tuv + tvu + rem - direct, 2)
        assert err <= 1e-9 * lebesgue_norm(direct, 2)


class TestBernstein:
    def test_identity_case_ratio_one(self):
        grid = make_grid(32, 4 * np.pi, 3)
        report = bernstein_witness(grid, 2, 2, 0, range(-1, 2), seed=0, samples_per_scale=2)
        for j in report.scales:
            assert report.ratios[j] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_sine_gradient_ratio_exact(self, grid16, j):
        f = field_from_function(grid16, lambda x, y, z, jj=j: np.sin(2.0**jj * x))
        assert bernstein_ratio(f, j, 2, 2, 1) == pytest.approx(1.0, rel=1e-10)

    def test_requires_p_le_q(self):
        grid = make_grid(16, 2 * np.pi, 3)
        with pytest.raises(ValueError):
            bernstein_witness(grid, 6, 2, 0, range(0, 2))

    def test_spread_bounded_across_scales(self):
        grid = make_grid(32, 4 * np.pi, 3)
        report = bernstein_witness(grid, 2, 6, 1, range(-2, 2), seed=1, samples_per_scale=3)
        assert report.spread <= 4.0


class TestHeatWitness:
    def test_zero_forcing_contraction(self, grid32):
        z0 = _demeaned(random_field(grid32, seed=18))
        rep = heat_estimate_witness(z0, None, np.inf, 0.5, 2, 1, mu=1.0, T=1.0)
        assert rep.lhs <= rep.rhs * (1.0 + 1e-10)

    def test_single_mode_constant_forcing_closed_form(self, grid16):
        mu, T = 1.0, 2.0
        forcing = field_from_function(grid16, lambda x, y, z: np.cos(x))
        z0 = Field.zeros(grid16)
        rep = heat_estimate_witness(z0, forcing, 1, 0.0, 2, 1, mu=mu, T=T, n_snapshots=400)
        # per-mode solution A (1 - e^{-mu t})/mu at |k| = 1; analytic time
        # integral against the profile's block weights
        prof = default_profile()
        jmin, jmax = active_scale_range(grid16)
        s2 = sum(2.0 ** (2 * j) * float(prof.phi(2.0**-j)) for j in range(jmin, jmax + 1))
        expected_ratio = s2 * (T - (1.0 - np.exp(-mu * T)) / mu) / (mu * T)
        assert rep.ratio == pytest.approx(expected_ratio, rel=1e-3)

    def test_rejects_nonpositive_horizon(self, grid16):
        with pytest.raises(ValueError):
            heat_estimate_witness(Field.zeros(grid16), None, 1, 0.0, 2, 1, mu=1.0, T=0.0)

    def test_evolution_matches_exact_exponential(self, grid16):
        z0 = field_from_function(grid16, lambda x, y, z: np.sin(x) + np.cos(2 * y))
        series = heat_evolve(z0, None, 0.5, [0.0, 0.3, 1.0])
        final = to_physical(series[-1])
        x, y = grid16.x[0], grid16.x[1]
        expected = np.exp(-0.5) * np.sin(x) + np.exp(-2.0) * np.cos(2 * y)
        assert np.max(np.abs(final.data - expected)) < 1e-12
