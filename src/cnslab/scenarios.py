"""Initial-data families: localized equilibrium perturbations, oscillating
divergence-free data, large vertical shear data, and the twin-run stability
pair. Every constructor is deterministic in (config, seed) and records the
norms its experiment tracks."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .helmholtz import project
from .lp import besov_norm, hybrid_norm, truncated_besov_norm
from .solver import FlowState, PhysicalParams
from .spectral import (
    Field,
    Grid,
    VectorField,
    _pdata,
    _sdata,
    dealias,
    gradient,
    lebesgue_norm,
    partial_deriv,
    sobolev_norm,
)

__all__ = [
    "ScenarioConfig",
    "InitialData",
    "smooth_bump",
    "equilibrium_perturbation",
    "oscillating_data",
    "large_vertical_data",
    "stability_pair",
    "stability_difference_norm",
    "build_scenario",
    "SCENARIO_KINDS",
]

#: every scenario kind, with the line `cnslab scenario list` prints for it
SCENARIO_KINDS = {
    "equilibrium_perturbation": "localized small data around (rho, u) = (1, 0)",
    "oscillating": "divergence-free data with a high-frequency vertical carrier",
    "large_vertical": "O(1) vertical shear plus small compressible pieces",
    "stability_pair": "reference run plus a norm-calibrated perturbation twin",
}


@dataclass
class ScenarioConfig:
    kind: str = "equilibrium_perturbation"
    epsilon: float = 1e-2
    p0: float = 1.0
    seed: int = 0
    # oscillating
    eps_osc: float = 0.25
    amplitude: float = 1.0
    # large vertical
    vertical_amplitude: float = 1.0
    p: float = 2.0
    smallness_constant: float = 1.0  # the reported witness constant C
    # stability pair
    eps_pert: float = 1e-3
    R0: float = 1.0
    bump_radius: float | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.epsilon < 0 or self.amplitude < 0 or self.vertical_amplitude < 0:
            raise ValueError("scenario amplitudes must be nonnegative")
        if not 1.0 <= self.p0 <= 2.0:
            raise ValueError(f"p0 must lie in [1,2], got {self.p0:g}")
        if not 2.0 <= self.p <= 4.0:
            raise ValueError(f"p must lie in [2,4], got {self.p:g}")


@dataclass
class InitialData:
    state: FlowState
    records: dict = dc_field(default_factory=dict)


def smooth_bump(grid: Grid, center=None, radius: float | None = None) -> np.ndarray:
    """Gaussian-tailed bump exp(-|x-c|^2 / (2 sigma^2)) with sigma = radius/2,
    peak 1. The default radius L/8 keeps the periodization error of
    box-localized data below 1e-8, and the spectrum resolved well inside the
    dealiased band at production resolutions (a hard-compact profile would
    need far more points to keep discrete energy budgets closed)."""
    radius = radius if radius is not None else grid.length / 8.0
    sigma = radius / 2.0
    if center is None:
        center = (grid.length / 2.0,) * grid.dim
    # separable: the product of one 1-D Gaussian per axis, on wrapped distances
    x1 = grid.length * np.arange(grid.n) / grid.n
    factors = []
    for c in center:
        dxa = (x1 - c + grid.length / 2.0) % grid.length - grid.length / 2.0
        factors.append(np.exp(-(dxa**2) / (2.0 * sigma**2)))
    return functools.reduce(np.multiply.outer, factors)


def _low_mode_modulation(grid: Grid, rng) -> np.ndarray:
    """Real random trig polynomial from seeded phases of the modes |m_i| <= 2,
    O(1) amplitude."""
    terms = [
        (m, rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * np.pi))
        for m in _mode_iter(grid.dim, 2)
    ]
    return _pdata(_trig_polynomial(grid, terms)) / math.sqrt(len(terms))


def _trig_polynomial(grid: Grid, terms) -> Field:
    """sum amp cos(k_m . x + phase) over the (m, amp, phase) terms, one per
    conjugate pair, synthesized from its coefficients: 0.5 amp e^(i phase)
    at m and the conjugate at -m."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for m, amp, phase in terms:
        val = 0.5 * amp * np.exp(1j * phase)
        coeffs[tuple(c % grid.n for c in m)] += val
        coeffs[tuple((-c) % grid.n for c in m)] += np.conj(val)
    return Field(grid, coeffs, "spectral")


def _mode_iter(dim, max_mode):
    """Fixed enumeration of nonzero low modes, one per conjugate pair,
    independent of the grid resolution."""
    for m in itertools.product(range(-max_mode, max_mode + 1), repeat=dim):
        if m == (0,) * dim:
            continue
        # keep one representative per +-m pair
        for comp in m:
            if comp > 0:
                break
            if comp < 0:
                m = None
                break
        if m is not None:
            yield m


def _mean_zero_unit(grid: Grid, samples: np.ndarray) -> Field:
    """Subtract the mean and normalize to unit sup norm."""
    samples = samples - np.mean(samples)
    peak = np.max(np.abs(samples))
    if peak == 0:
        raise ValueError("degenerate zero profile")
    return Field.from_physical(grid, samples / peak)


def _band_profile(grid: Grid, rng) -> Field:
    """A unit bump modulated by seeded low modes, mean-zero at unit sup norm,
    truncated to the 2/3 ball as a state's fields are: norms taken of it
    describe the data a run starts from."""
    return dealias(_mean_zero_unit(grid, smooth_bump(grid) * _low_mode_modulation(grid, rng)))


def _spectrally_shaped_field(grid: Grid, rng) -> Field:
    """Random mean-zero field with |f_hat(k)| ~ |k|^-2.5 up to kcut = 8 k_min:
    the torus stand-in for data with critical L^2 (but no better)
    integrability, whose mass sits at the lowest wavenumbers."""
    base = 2.0 * np.pi / grid.length
    kcut = 8.0 * base
    terms = []
    for m in _mode_iter(grid.dim, 8):
        k = base * math.sqrt(sum(c * c for c in m))
        if k > kcut:
            rng.uniform()
            rng.uniform()
            continue
        terms.append((m, rng.uniform(0.5, 1.0) * k**-2.5, rng.uniform(0.0, 2.0 * np.pi)))
    f = _trig_polynomial(grid, terms)
    peak = np.max(np.abs(_pdata(f)))
    return Field(grid, _sdata(f) / peak, "spectral")


def equilibrium_perturbation(
    grid: Grid,
    epsilon: float,
    p0: float,
    seed: int,
    params: PhysicalParams | None = None,
    bump_radius: float | None = None,
) -> InitialData:
    """a0 = eps*g, u0 = eps*v with mean(a0) = 0 and unit-sup profiles.

    For p0 < 2 the profiles are box-localized bumps modulated by seeded
    low-mode phases (flat low-frequency spectrum, the periodization of an
    L^p0 function); bump_radius defaults to L/8 and may be shrunk to widen
    the flat spectral band. At p0 = 2 a bump would still be transiently
    L^1-like and decay at the p0=1 rate, so the generator switches to a
    spectrally shaped profile |u_hat| ~ |k|^(-3/2) carrying no extra
    integrability.
    """
    params = params or PhysicalParams()
    rng = np.random.default_rng(seed)
    if bump_radius is not None and bump_radius > grid.length / 8.0:
        raise ValueError("bump radius above L/8 defeats the box localization")
    if p0 < 2.0:

        def profile():
            # centers snap to the L/16 lattice: a grid point at every
            # production resolution, so the sampled field (and its discrete
            # peak) is the same function regardless of n_per_dim
            center = rng.uniform(0.0, grid.length, size=grid.dim)
            center = np.round(center * 16.0 / grid.length) * (grid.length / 16.0)
            bump = smooth_bump(grid, center=center, radius=bump_radius)
            return _mean_zero_unit(grid, bump * _low_mode_modulation(grid, rng))

        g = profile()
        v = [profile() for _ in range(grid.dim)]
    else:
        # merely-L^2 data on the torus keeps mass at the lowest wavenumbers,
        # including the conserved k=0 momentum mode: genuinely non-decaying
        # content is what beta(2) = 0 asserts
        g = _spectrally_shaped_field(grid, rng)
        v = []
        for _ in range(grid.dim):
            shaped = _spectrally_shaped_field(grid, rng)
            carrier = 0.5 * rng.choice([-1.0, 1.0])
            with_mean = Field.from_physical(grid, _pdata(shaped) + carrier)
            peak = np.max(np.abs(_pdata(with_mean)))
            v.append((1.0 / peak) * with_mean)
    if epsilon >= 1.0:
        raise ValueError(f"epsilon={epsilon:g} drives the density nonpositive")
    state = FlowState(0.0, epsilon * g, VectorField([epsilon * c for c in v]), params)
    records = {
        "a0_lp0": lebesgue_norm(state.a, p0),
        "u0_lp0": lebesgue_norm(state.u, p0),
        "rho_u0_lp0": lebesgue_norm(state.momentum(), p0),
        "a0_h2": sobolev_norm(state.a, 2.0),
        "u0_h2": sobolev_norm(state.u, 2.0),
        "p0": p0,
        "epsilon": epsilon,
        "seed": seed,
    }
    return InitialData(state=state, records=records)


def oscillating_data(
    grid: Grid,
    eps_osc: float,
    amplitude: float = 1.0,
    params: PhysicalParams | None = None,
    bump_radius: float | None = None,
) -> InitialData:
    """u0 = amplitude * sin(x3/eps) (-d2 phi, d1 phi, 0) with a0 = 0; the
    vertical carrier 1/eps is snapped to the wavenumber lattice and the snap
    is recorded. Divergence-free by mixed-partial symmetry, exactly so in the
    spectral discretization."""
    if grid.dim != 3:
        raise ValueError("oscillating data needs dim=3")
    params = params or PhysicalParams()
    base = 2.0 * np.pi / grid.length
    m3 = max(1, int(round(1.0 / (eps_osc * base))))
    if m3 > grid.n // 3:
        raise ValueError(
            f"oscillation 1/eps={1 / eps_osc:g} above the dealiased band of the grid"
        )
    eps_snapped = 1.0 / (m3 * base)
    phi = Field.from_physical(grid, smooth_bump(grid, radius=bump_radius))
    d1 = _pdata(partial_deriv(phi, 0))
    d2 = _pdata(partial_deriv(phi, 1))
    carrier = np.sin(grid.x[2] / eps_snapped)
    u0 = VectorField(
        [
            Field.from_physical(grid, -amplitude * carrier * d2),
            Field.from_physical(grid, amplitude * carrier * d1),
            Field.zeros(grid),
        ]
    )
    state = FlowState(0.0, Field.zeros(grid), u0, params)
    records = {
        "eps_requested": eps_osc,
        "eps_snapped": eps_snapped,
        "carrier_mode": m3,
        "q_part_l2": lebesgue_norm(project(state.u).Q, 2),
        "hdot_half": sobolev_norm(state.u, 0.5, homogeneous=True),
    }
    return InitialData(state=state, records=records)


def large_vertical_data(
    grid: Grid,
    epsilon: float,
    p: float,
    vertical_amplitude: float,
    seed: int = 0,
    params: PhysicalParams | None = None,
    smallness_constant: float = 1.0,
    R0: float = 1.0,
) -> InitialData:
    """O(1) divergence-free vertical component w(x1,x2) e3 (x3-independence
    makes P u0 = u0 exact) plus small a0, Q u0 and horizontal P u0 scaled to
    meet the smallness budget
        S * exp(C (1 + ||(Pu0)^3||_B)) <= eps,
    where S collects the four norms of the small pieces and C is the reported
    witness constant."""
    if grid.dim != 3:
        raise ValueError("large vertical data needs dim=3")
    params = params or PhysicalParams()
    rng = np.random.default_rng(seed)

    # vertical O(1) field: mean-zero function of (x1, x2) only
    mod = _low_mode_modulation(grid, rng)
    w_samples = smooth_bump(grid, radius=grid.length / 6.0) * mod
    w_samples = np.mean(w_samples, axis=2, keepdims=True) * np.ones(grid.shape)
    w = vertical_amplitude * dealias(_mean_zero_unit(grid, w_samples))

    s_bes = 3.0 / p - 1.0
    w_norm = besov_norm(w, s_bes, p, 1)

    budget = epsilon * math.exp(-smallness_constant * (1.0 + w_norm))
    if budget < 1e-12:
        raise ValueError(
            f"smallness budget infeasible: eps*exp(-C(1+||w||)) = {budget:.3e} "
            f"with ||(Pu0)^3|| = {w_norm:.3g}"
        )

    # unit-amplitude small pieces
    a_raw = _band_profile(grid, rng)
    qu_raw = gradient(_band_profile(grid, rng))  # pure gradient: Q(qu_raw) = qu_raw
    psi_h = _band_profile(grid, rng)
    ph_raw = VectorField(
        [-1.0 * partial_deriv(psi_h, 1), partial_deriv(psi_h, 0), Field.zeros(grid)]
    )

    def small_sum(scale):
        return (
            truncated_besov_norm(scale * a_raw, 0.5, 2, "low", R0)
            + truncated_besov_norm(scale * qu_raw, 0.5, 2, "low", R0)
            + truncated_besov_norm(scale * qu_raw, s_bes, p, "high", R0)
            + truncated_besov_norm(scale * a_raw, 3.0 / p, p, "high", R0)
            + besov_norm(scale * ph_raw, s_bes, p, 1)
        )

    unit = small_sum(1.0)
    scale = budget / unit if unit > 0 else 0.0
    a0 = scale * a_raw
    u0 = VectorField(
        [
            scale * qu_raw.components[0] + scale * ph_raw.components[0],
            scale * qu_raw.components[1] + scale * ph_raw.components[1],
            scale * qu_raw.components[2] + w,
        ]
    )
    state = FlowState(0.0, a0, u0, params)
    smallness = small_sum(scale)
    lhs = smallness * math.exp(smallness_constant * (1.0 + w_norm))
    records = {
        "vertical_amplitude": vertical_amplitude,
        "p": p,
        "epsilon": epsilon,
        "witness_constant": smallness_constant,
        "pu3_besov": w_norm,
        "smallness_sum": smallness,
        "smalldata_lhs": lhs,
        "seed": seed,
        "R0": R0,
    }
    return InitialData(state=state, records=records)


def stability_difference_norm(
    a_diff: Field, u_diff: VectorField, p: float, R0: float = 1.0
) -> dict:
    """The three perturbation-size summands: hybrid norm of the density
    difference, Besov norm of its incompressible part, hybrid norm of the
    compressible part."""
    spl = project(u_diff)
    s_bes = 3.0 / p - 1.0
    rho_term = hybrid_norm(a_diff, 0.5, 3.0 / p, 2, p, R0, warn_mean=False)
    p_term = besov_norm(spl.P, s_bes, p, 1, warn_mean=False)
    q_term = hybrid_norm(spl.Q, 0.5, s_bes, 2, p, R0, warn_mean=False)
    return {
        "rho": rho_term,
        "P": p_term,
        "Q": q_term,
        "total": rho_term + p_term + q_term,
    }


def stability_pair(
    base: InitialData, eps_pert: float, seed: int, p: float = 2.0, R0: float = 1.0
) -> tuple[InitialData, InitialData, dict]:
    """Reference state plus a perturbed twin whose difference has the
    perturbation norm rescaled to exactly eps_pert. The records name the
    perturbation's seed `pert_seed`, so merged over the reference's records
    they keep its `seed`."""
    ref = base.state
    grid = ref.grid
    if eps_pert == 0.0:
        pert = FlowState(0.0, ref.a, ref.u, ref.params)
        rec = {"eps_pert": 0.0, "rho": 0.0, "P": 0.0, "Q": 0.0, "total": 0.0}
        return base, InitialData(state=pert, records=rec), rec
    rng = np.random.default_rng(seed)
    da = _band_profile(grid, rng)
    du = VectorField([_band_profile(grid, rng) for _ in range(grid.dim)])
    unit = stability_difference_norm(da, du, p, R0)["total"]
    scale = eps_pert / unit
    a_pert = ref.a + scale * da
    u_pert = ref.u + scale * du
    pert_state = FlowState(0.0, a_pert, u_pert, ref.params)
    parts = stability_difference_norm(scale * da, scale * du, p, R0)
    records = {"eps_pert": eps_pert, **parts, "pert_seed": seed, "p": p, "R0": R0}
    return base, InitialData(state=pert_state, records=records), records


def build_scenario(cfg: ScenarioConfig, grid: Grid, params: PhysicalParams):
    """Dispatch a ScenarioConfig to its constructor. stability_pair returns
    (reference, perturbed, records); the others a single InitialData."""
    if cfg.kind == "equilibrium_perturbation":
        return equilibrium_perturbation(
            grid, cfg.epsilon, cfg.p0, cfg.seed, params, cfg.bump_radius
        )
    if cfg.kind == "oscillating":
        return oscillating_data(grid, cfg.eps_osc, cfg.amplitude, params, cfg.bump_radius)
    if cfg.kind == "large_vertical":
        return large_vertical_data(
            grid,
            cfg.epsilon,
            cfg.p,
            cfg.vertical_amplitude,
            cfg.seed,
            params,
            cfg.smallness_constant,
            cfg.R0,
        )
    if cfg.kind == "stability_pair":
        base = equilibrium_perturbation(
            grid, cfg.epsilon, cfg.p0, cfg.seed, params, cfg.bump_radius
        )
        return stability_pair(base, cfg.eps_pert, cfg.seed + 1, cfg.p, cfg.R0)
    raise ValueError(f"unknown scenario kind {cfg.kind!r}")
