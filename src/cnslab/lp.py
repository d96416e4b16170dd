"""Homogeneous Littlewood-Paley decomposition, Besov / hybrid / per-block time
norms, paraproducts, and the frequency-inequality witness harnesses.

The dyadic filter is phi(r) = chi(r/2) - chi(r) built from a smooth radial
cutoff chi that equals 1 on [0, 3/4] and 0 on [4/3, inf); phi is supported in
[3/4, 8/3] and the shifts phi(2^-j r) sum to 1 for every r > 0 covered by the
active scale range of the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Field,
    VectorField,
    Grid,
    GridMismatchError,
    _cell,
    _inverse_real,
    _pdata,
    _sdata,
    dealias,
    gradient,
    lebesgue_norm,
    mean_value,
)

__all__ = [
    "CutoffProfile",
    "DyadicDecomposition",
    "NormSpec",
    "default_profile",
    "active_scale_range",
    "dyadic_block",
    "low_pass",
    "besov_norm",
    "truncated_besov_norm",
    "split_low_high",
    "hybrid_norm",
    "chemin_lerner_norm",
    "time_besov_norm",
    "bony_decompose",
    "bernstein_ratio",
    "bernstein_witness",
    "heat_evolve",
    "heat_estimate_witness",
    "parse_norm_key",
    "format_norm_key",
    "partition_of_unity_error",
]


def _smooth_step(sigma: np.ndarray) -> np.ndarray:
    """C^inf step: 0 for sigma <= 0, 1 for sigma >= 1, strictly monotone between."""
    sigma = np.asarray(sigma, dtype=np.float64)

    def g(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    a = g(sigma)
    b = g(1.0 - sigma)
    return a / (a + b)


class CutoffProfile:
    """Smooth radial cutoff chi with chi=1 on [0, inner], chi=0 on [outer, inf)."""

    __slots__ = ("inner", "outer")

    def __init__(self, inner: float = 0.75, outer: float = 4.0 / 3.0):
        if not 0 < inner < outer:
            raise ValueError("need 0 < inner < outer")
        self.inner = inner
        self.outer = outer

    def chi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return _smooth_step((self.outer - r) / (self.outer - self.inner))

    def phi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return self.chi(r / 2.0) - self.chi(r)


_DEFAULT = CutoffProfile()


def default_profile() -> CutoffProfile:
    return _DEFAULT


def active_scale_range(grid: Grid) -> tuple[int, int]:
    """Scale interval [j_min, j_max] outside which every dyadic block vanishes
    identically on the grid."""
    jmin = math.floor(math.log2(grid.kmin)) - 1
    jmax = math.ceil(math.log2(grid.kmax)) + 1
    return jmin, jmax


def _shell_values(grid: Grid, fn, js) -> np.ndarray:
    """fn(2^-j |k|) on every shell |m|^2 = 0, 1, ..., d (n/2)^2 of the grid's
    lattice, one row per scale j; indexing a row with `grid.msq` maps it onto modes."""
    radii = grid.kmin * np.sqrt(np.arange(grid.dim * (grid.n // 2) ** 2 + 1))
    return fn(np.ldexp(radii, -np.asarray(js)[:, None]))


def dyadic_block(f: Field, j: int) -> Field:
    """Frequency block at scale 2^j: spectral multiplier phi(2^-j |k|)."""
    jmin, jmax = active_scale_range(f.grid)
    if j < jmin or j > jmax:
        warnings.warn(
            f"dyadic scale j={j} outside active range [{jmin}, {jmax}]; block is zero",
            RuntimeWarning,
            stacklevel=2,
        )
        return Field.zeros(f.grid)
    phi = _shell_values(f.grid, _DEFAULT.phi, [j])[0]
    return Field(f.grid, phi[f.grid.msq] * _sdata(f), "spectral")


def low_pass(f: Field, j: int) -> Field:
    """Low-pass at scale 2^j: multiplier chi(2^-j |k|); keeps the mean mode."""
    chi = _shell_values(f.grid, _DEFAULT.chi, [j])[0]
    return Field(f.grid, chi[f.grid.msq] * _sdata(f), "spectral")


@dataclass
class DyadicDecomposition:
    """The family {block_j} of a field over the active scale range."""

    source: Field
    blocks: dict = field(default_factory=dict)

    @classmethod
    def decompose(cls, f: Field):
        jmin, jmax = active_scale_range(f.grid)
        blocks = {j: dyadic_block(f, j) for j in range(jmin, jmax + 1)}
        return cls(source=f, blocks=blocks)

    def reconstruct(self) -> Field:
        out = Field.zeros(self.source.grid)
        for b in self.blocks.values():
            out = out + b
        return out


@dataclass(frozen=True)
class NormSpec:
    """Besov index triple; t/r_low/R0 present only for hybrid norms."""

    s: float
    p: float
    r: float
    t: float | None = None
    r_low: float = 2.0
    R0: float = 1.0

    @property
    def hybrid(self) -> bool:
        return self.t is not None

    def __post_init__(self):
        if self.p < 1 or self.r < 1:
            raise ValueError("Besov indices p, r must lie in [1, inf]")
        if self.hybrid:
            _split_index(self.R0)


def _index(x: float) -> str:
    """x in %g form, or in full when %g would not read back as x."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def format_norm_key(spec: NormSpec) -> str:
    """The key parse_norm_key reads back as spec."""
    i = _index
    if spec.hybrid:
        return (f"hybrid:s={i(spec.s)},t={i(spec.t)},r={i(spec.r_low)},"
                f"p={i(spec.p)},R0={i(spec.R0)}")
    return f"besov:s={i(spec.s)},p={i(spec.p)},r={i(spec.r)}"


def parse_norm_key(key: str) -> NormSpec:
    kind, _, rest = key.partition(":")
    fields = {}
    for item in rest.split(","):
        name, _, val = item.partition("=")
        fields[name.strip()] = float("inf") if val.strip() == "inf" else float(val)
    try:
        if kind == "besov":
            return NormSpec(s=fields["s"], p=fields["p"], r=fields["r"])
        if kind == "hybrid":
            return NormSpec(
                s=fields["s"],
                t=fields["t"],
                r_low=fields["r"],
                p=fields["p"],
                R0=fields.get("R0", 1.0),
                r=1.0,
            )
    except KeyError as exc:
        raise ValueError(f"norm key {key!r} is missing index {exc}") from None
    raise ValueError(f"unknown norm key kind {kind!r}")


def _block_lp_norms(f, p, js):
    """L^p norm of each dyadic block; vector fields through the pointwise
    Euclidean magnitude of their blocks. For p=2 one bincount of the
    Hermitian-weighted spectral power over shells (Parseval); otherwise each
    block is inverted from the half spectrum, one scale at a time."""
    grid = f.grid
    comps = f.components if isinstance(f, VectorField) else (f,)
    phi = _shell_values(grid, _DEFAULT.phi, js)
    if p == 2:
        power = grid.w * sum(np.abs(_sdata(c)) ** 2 for c in comps)
        shells = np.bincount(grid.msq.ravel(), weights=power.ravel(), minlength=phi.shape[1])
        return [float(np.sqrt(grid.volume * v)) for v in phi**2 @ shells]
    halves = [_sdata(c) for c in comps]
    out = []
    for row in phi:
        if not row.any():
            out.append(0.0)
            continue
        mult = row[grid.msq]
        mag2 = np.zeros(grid.shape)  # squared pointwise magnitude of the block
        for half in halves:
            b = _inverse_real(grid, mult * half)
            mag2 += np.multiply(b, b, out=b)
        if p == np.inf:
            out.append(float(np.sqrt(np.max(mag2))))
        else:
            out.append(float((np.sum(mag2 ** (p / 2)) * _cell(grid)) ** (1.0 / p)))
    return out


def _split_index(R0: float) -> int:
    """The scale j0 with 2^j0 = R0, the low/high split of the hybrid norms."""
    j0 = int(round(math.log2(R0)))
    if abs(math.log2(R0) - j0) > 1e-9:
        raise ValueError(f"R0 must be a power of two, got {R0}")
    return j0


def _scale_weights(js, s) -> np.ndarray:
    return np.asarray([2.0 ** (j * s) for j in js])


def _ell_r(values: np.ndarray, r) -> float:
    if r == np.inf:
        return float(np.max(values)) if len(values) else 0.0
    return float(np.sum(values**r) ** (1.0 / r))


def _demean(f, warn=True):
    if isinstance(f, VectorField):
        return VectorField([_demean(c, warn) for c in f.components])
    m = mean_value(f)
    if isinstance(m, complex) or abs(m) > 1e-13:
        s = _sdata(f).copy()
        scale = np.sqrt(np.sum(f.grid.w * np.abs(s) ** 2))
        # complain only when the mean is a real feature, not round-off drift
        if warn and abs(m) > 1e-4 * max(scale, 1e-300):
            warnings.warn(
                f"Besov norm input has mean {m:.3e}; subtracting it", RuntimeWarning, stacklevel=3
            )
        s[(0,) * f.grid.dim] = 0.0
        return Field(f.grid, s, "spectral")
    return f


def besov_norm(f, s, p, r, warn_mean: bool = True) -> float:
    """Homogeneous Besov semi-norm: ell^r over scales of 2^(js) * L^p block norms.

    Vector fields are measured through the pointwise Euclidean magnitude of
    their blocks.
    """
    f = _demean(f, warn=warn_mean)
    jmin, jmax = active_scale_range(f.grid)
    js = list(range(jmin, jmax + 1))
    norms = np.asarray(_block_lp_norms(f, p, js))
    return _ell_r(_scale_weights(js, s) * norms, r)


def truncated_besov_norm(f, s, p, part: str, R0: float = 1.0, warn_mean: bool = True) -> float:
    """Low/high truncated semi-norm: the ell^1 block sum restricted to
    2^j <= R0 ('low') or 2^j > R0 ('high')."""
    j0 = _split_index(R0)
    f = _demean(f, warn=warn_mean)
    jmin, jmax = active_scale_range(f.grid)
    if part == "low":
        js = [j for j in range(jmin, jmax + 1) if j <= j0]
    elif part == "high":
        js = [j for j in range(jmin, jmax + 1) if j > j0]
    else:
        raise ValueError("part must be 'low' or 'high'")
    if not js:
        return 0.0
    norms = np.asarray(_block_lp_norms(f, p, js))
    return float(np.sum(_scale_weights(js, s) * norms))


def split_low_high(f: Field, R0: float):
    """(f_low, f_high) with f_low the sum of blocks at 2^j <= R0; the pair
    recombines to f minus its mean."""
    j0 = _split_index(R0)
    jmin, jmax = active_scale_range(f.grid)
    low = Field.zeros(f.grid)
    high = Field.zeros(f.grid)
    for j in range(jmin, jmax + 1):
        b = dyadic_block(f, j)
        if j <= j0:
            low = low + b
        else:
            high = high + b
    return low, high


def hybrid_norm(f, s, t, r, p, R0: float = 1.0, warn_mean: bool = True) -> float:
    """Low frequencies measured with (s, L^r), high with (t, L^p), both with
    ell^1 sums, split at R0."""
    return truncated_besov_norm(f, s, r, "low", R0, warn_mean) + (
        truncated_besov_norm(f, t, p, "high", R0, warn_mean)
    )


def _time_lq(values: np.ndarray, times: np.ndarray, q) -> float:
    if q == np.inf:
        return float(np.max(values))
    return float(np.trapezoid(values**q, times) ** (1.0 / q))


def chemin_lerner_norm(times, fields, q, s, p, r) -> float:
    """Per-block time-Lebesgue norm (trapezoidal) before the ell^r scale sum."""
    times = np.asarray(times, dtype=np.float64)
    fields = list(fields)
    if len(fields) == 0 or len(times) != len(fields):
        raise ValueError("need a nonempty time series with matching times")
    grid = fields[0].grid
    jmin, jmax = active_scale_range(grid)
    js = list(range(jmin, jmax + 1))
    per_block = np.empty((len(js), len(fields)))
    for n, f in enumerate(fields):
        per_block[:, n] = _block_lp_norms(_demean(f, warn=False), p, js)
    vals = np.asarray([_time_lq(per_block[i], times, q) for i in range(len(js))])
    return _ell_r(_scale_weights(js, s) * vals, r)


def time_besov_norm(times, fields, q, s, p, r) -> float:
    """Plain L^q-in-time of the Besov norm (scale sum before the time norm)."""
    times = np.asarray(times, dtype=np.float64)
    vals = np.asarray([besov_norm(f, s, p, r) for f in fields])
    return _time_lq(vals, times, q)


# ---------------------------------------------------------------------------
# Bony paraproduct decomposition

def bony_decompose(u: Field, v: Field):
    """(T_u v, T_v u, R) with T_u v = sum_j S_(j-1)u * block_j v and
    R = sum_j block_j u * (block_(j-1)+block_j+block_(j+1)) v, all products
    dealiased. For mean-zero inputs the three parts rebuild the dealiased
    product of u and v."""
    if not u.grid.compatible(v.grid):
        raise GridMismatchError("bony_decompose needs a shared grid")
    grid = u.grid
    jmin, jmax = active_scale_range(grid)
    js = list(range(jmin, jmax + 1))

    ut, vt = dealias(u), dealias(v)
    ub = {j: _pdata(dyadic_block(ut, j)) for j in js}
    vb = {j: _pdata(dyadic_block(vt, j)) for j in js}
    ulow = {j: _pdata(low_pass(ut, j - 1)) for j in js}
    vlow = {j: _pdata(low_pass(vt, j - 1)) for j in js}

    tuv = np.zeros(grid.shape)
    tvu = np.zeros(grid.shape)
    rem = np.zeros(grid.shape)
    for j in js:
        tuv += ulow[j] * vb[j]
        tvu += vlow[j] * ub[j]
        tilde = sum(vb[jj] for jj in (j - 1, j, j + 1) if jj in vb)
        rem += ub[j] * tilde
    return (
        dealias(Field.from_physical(grid, tuv)),
        dealias(Field.from_physical(grid, tvu)),
        dealias(Field.from_physical(grid, rem)),
    )


# ---------------------------------------------------------------------------
# witness harnesses

def partition_of_unity_error(grid: Grid) -> float:
    """max over active nonzero lattice modes of |1 - sum_j phi(2^-j |k|)|."""
    jmin, jmax = active_scale_range(grid)
    total = np.sum(_shell_values(grid, _DEFAULT.phi, range(jmin, jmax + 1)), axis=0)
    occupied = np.bincount(grid.msq.ravel(), minlength=len(total)) > 0
    occupied[0] = False
    return float(np.max(np.abs(total[occupied] - 1.0)))


def _deriv_magnitude(f: Field, order: int) -> Field:
    """|f| for order 0, gradient magnitude for order 1, |k|^order multiplier
    beyond (isotropic derivative surrogate)."""
    if order == 0:
        return f
    if order == 1:
        comps = [_pdata(c) for c in gradient(f).components]
        return Field.from_physical(f.grid, np.sqrt(sum(c**2 for c in comps)))
    return Field(f.grid, f.grid.kmag**order * _sdata(f), "spectral")


def bernstein_ratio(f: Field, j: int, p: float, q: float, order: int) -> float:
    """Empirical ratio ||D^order f||_q / (2^(j(order + d(1/p - 1/q))) ||f||_p)."""
    d = f.grid.dim
    num = lebesgue_norm(_deriv_magnitude(f, order), q)
    den = 2.0 ** (j * (order + d * (1.0 / p - 1.0 / q))) * lebesgue_norm(f, p)
    return num / den


@dataclass
class BernsteinReport:
    p: float
    q: float
    order: int
    scales: list
    ratios: dict  # j -> mean ratio over the sample family
    samples: dict  # j -> list of per-sample ratios

    @property
    def spread(self) -> float:
        vals = [self.ratios[j] for j in self.scales]
        return max(vals) / min(vals)


def _annulus_packet(grid: Grid, j: int, rng) -> Field:
    """Random single-annulus field: a Gaussian wave packet at scale 2^-j,
    filtered to the dyadic annulus. Packets (rather than delocalized random
    modes) track the sharp frequency-inequality constants across scales; the
    width cap keeps low-scale packets box-filling enough to stay comparable."""
    width = min(3.0 * 2.0**-j, grid.length / 3.2)
    center = rng.uniform(0.0, grid.length, size=grid.dim)
    direction = rng.standard_normal(grid.dim)
    direction /= np.linalg.norm(direction)
    carrier = 1.4 * 2.0**j
    phase = rng.uniform(0.0, 2.0 * np.pi)

    # periodized displacement to the packet center
    r2 = np.zeros(grid.shape)
    proj = np.zeros(grid.shape)
    for ax in range(grid.dim):
        dxa = grid.x[ax] - center[ax]
        dxa = (dxa + grid.length / 2.0) % grid.length - grid.length / 2.0
        r2 += dxa**2
        proj += direction[ax] * dxa
    samples = np.exp(-r2 / (2.0 * width**2)) * np.cos(carrier * proj + phase)
    return dyadic_block(Field.from_physical(grid, samples), j)


def bernstein_witness(
    grid: Grid,
    p: float,
    q: float,
    order: int,
    j_range,
    seed: int = 0,
    samples_per_scale: int = 4,
) -> BernsteinReport:
    """Ratio family for the dyadic-derivative inequality over consecutive
    scales; the testable claim is that the max/min spread stays bounded."""
    if q < p:
        raise ValueError("requires p <= q")
    rng = np.random.default_rng(seed)
    js = list(j_range)
    ratios, per_sample = {}, {}
    for j in js:
        vals = []
        for _ in range(samples_per_scale):
            f = _annulus_packet(grid, j, rng)
            if lebesgue_norm(f, 2) < 1e-12:
                continue
            vals.append(bernstein_ratio(f, j, p, q, order))
        per_sample[j] = vals
        ratios[j] = float(np.mean(vals))
    return BernsteinReport(p=p, q=q, order=order, scales=js, ratios=ratios, samples=per_sample)


def heat_evolve(z0: Field, forcing, mu: float, times) -> list:
    """Exact per-mode solution of dz/dt - mu*Lap z = f via integrating factor.

    forcing may be None, a constant-in-time Field, or a list of Fields sampled
    at `times` (integrated exactly for the piecewise-linear interpolant).
    """
    grid = z0.grid
    times = np.asarray(times, dtype=np.float64)
    kap = mu * grid.k2
    z = _sdata(z0).copy()
    out = [Field(grid, z.copy(), "spectral")]
    if forcing is None:
        fseq = None
        fconst = None
    elif isinstance(forcing, Field):
        fconst = _sdata(forcing)
        fseq = None
    else:
        fseq = [_sdata(f) for f in forcing]
        if len(fseq) != len(times):
            raise ValueError("forcing series must align with times")
        fconst = None

    with np.errstate(divide="ignore", invalid="ignore"):
        inv_kap = np.where(kap > 0, 1.0 / np.where(kap > 0, kap, 1.0), 0.0)

    for n in range(1, len(times)):
        dt = times[n] - times[n - 1]
        decay = np.exp(-kap * dt)
        z = decay * z
        if fconst is not None:
            # integral of e^{-kap (dt - tau)} over the step; dt at kap = 0
            z = z + np.where(kap > 0, (1.0 - decay) * inv_kap, dt) * fconst
        elif fseq is not None:
            fa, fb = fseq[n - 1], fseq[n]
            # exact step integral for linear-in-time forcing
            i0 = np.where(kap > 0, (1.0 - decay) * inv_kap, dt)
            i1 = np.where(kap > 0, (dt - i0) * inv_kap, 0.5 * dt * dt)
            z = z + fa * (i0 - i1 / dt) + fb * (i1 / dt)
        out.append(Field(grid, z.copy(), "spectral"))
    return out


@dataclass
class HeatWitnessReport:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


def heat_estimate_witness(
    z0: Field,
    forcing,
    m: float,
    s: float,
    p: float,
    r: float,
    mu: float,
    T: float,
    n_snapshots: int = 200,
) -> HeatWitnessReport:
    """Smoothing-estimate witness: LHS is the per-block mixed norm of the heat
    solution at regularity s + 2/m, RHS the data norm ||z0|| + ||f|| without
    the non-constructive constant."""
    if T <= 0:
        raise ValueError("T must be positive")
    times = np.linspace(0.0, T, n_snapshots + 1)
    series = heat_evolve(z0, forcing, mu, times)
    s_lhs = s + (0.0 if m == np.inf else 2.0 / m)
    lhs = chemin_lerner_norm(times, series, m, s_lhs, p, r)
    rhs = besov_norm(z0, s, p, r)
    if forcing is not None:
        if isinstance(forcing, Field):
            fseries = [forcing] * len(times)
        else:
            fseries = list(forcing)
        rhs += chemin_lerner_norm(times, fseries, 1, s, p, r)
    return HeatWitnessReport(lhs=lhs, rhs=rhs)
