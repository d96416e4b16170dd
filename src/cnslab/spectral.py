"""Periodic-box discretization: grids, scalar/vector fields, Fourier transforms,
spectral differential operators, dealiased products and L^p norms.

All spectral coefficients follow the Fourier-series convention
f(x) = sum_k fhat(k) exp(i k.x), so the k=0 coefficient is the mean of the
field and a unit sine carries two conjugate coefficients of magnitude 1/2.

Fields hold real samples or the full spectrum of real samples (complex samples
are refused). Every transform is one of a counted real pair
(`transform_count`): `_forward_real` runs `rfftn` and rebuilds the other half
of the spectrum by Hermitian symmetry, and `_inverse_real` runs `irfftn` on
the half `coeffs[..., :n//2+1]`. Code that works on the half spectrum itself
(the solver's right-hand side, the Littlewood-Paley blocks) takes its
multipliers from `Grid.plan`, a `HalfPlan` built on first use and owned by the
grid: the half-spectrum `k`, `k^2`, 2/3-rule mask, `ik` with the Nyquist rows
zeroed, the shell index |m|^2 of every mode, and the gather index of the
Hermitian fill.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

__all__ = [
    "Grid",
    "Field",
    "VectorField",
    "GridError",
    "GridMismatchError",
    "check_grid",
    "PositivityFault",
    "make_grid",
    "constant_field",
    "field_from_function",
    "random_field",
    "to_spectral",
    "to_physical",
    "gradient",
    "partial_deriv",
    "divergence",
    "laplacian",
    "dealias",
    "dealiased_product",
    "nonlinear_map",
    "lebesgue_norm",
    "sobolev_norm",
    "mean_value",
    "transform_count",
]

SPECTRAL = "spectral"
PHYSICAL = "physical"

# Real transforms made by this process: calls of _forward_half and _inverse_real.
_transform_calls = 0


class GridError(ValueError):
    """Invalid grid parameters."""


def check_grid(n, length, dim) -> None:
    """The grid rule: n an even radix-2/3 size >= 8, length > 0, dim 2 or 3.
    Raises GridError; allocates nothing."""
    even = isinstance(n, (int, np.integer)) and n >= 8 and n % 2 == 0
    m = int(n) if even else 1
    for p in (2, 3):
        while m % p == 0:
            m //= p
    if not even or m != 1:
        raise GridError(
            f"n_per_dim must be an even radix-2/3 size >= 8 (8, 16, 24, 32, 48, ...), got {n!r}"
        )
    if not length > 0:
        raise GridError(f"box_length must be positive, got {length!r}")
    if dim not in (2, 3):
        raise GridError(f"dim must be 2 or 3, got {dim!r}")


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class PositivityFault(RuntimeError):
    """A pointwise map hit values outside its domain (e.g. nonpositive density).

    Carries the offending minimum sample value and, when known, the time.
    """

    def __init__(self, message, min_value=None, time=None):
        super().__init__(message)
        self.min_value = min_value
        self.time = time


class Grid:
    """Uniform periodic box with cached wavenumber lattice.

    Instances are immutable, apart from the half-spectrum plan built on
    first use, and hashed by identity so they can key caches of derived
    spectral multipliers.
    """

    __slots__ = (
        "n",
        "length",
        "dim",
        "dx",
        "volume",
        "k1",
        "k",
        "k2",
        "kmag",
        "x",
        "dealias_mask",
        "nyquist_free",
        "k_odd",
        "kmin",
        "kmax",
        "_plan",
    )

    def __init__(self, n: int, length: float, dim: int):
        check_grid(n, length, dim)
        self.n = int(n)
        self.length = float(length)
        self.dim = int(dim)
        self.dx = self.length / self.n
        self.volume = self.length**self.dim

        m = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integer lattice indices
        self.k1 = (2.0 * np.pi / self.length) * m
        axes = np.meshgrid(*([self.k1] * self.dim), indexing="ij")
        self.k = tuple(np.ascontiguousarray(a) for a in axes)
        self.k2 = sum(a * a for a in self.k)
        self.kmag = np.sqrt(self.k2)

        x1 = self.length * np.arange(self.n) / self.n
        self.x = tuple(np.meshgrid(*([x1] * self.dim), indexing="ij"))

        # 2/3-rule mask on integer indices: keep |m_i| <= n//3 in every axis.
        cut = self.n // 3
        mgrids = np.meshgrid(*([m] * self.dim), indexing="ij")
        mask = np.ones(self.shape, dtype=bool)
        for mg in mgrids:
            mask &= np.abs(mg) <= cut
        self.dealias_mask = mask

        # Nyquist rows (m = -n/2) are zeroed by odd-order derivatives.
        nyq_ok = np.ones(self.shape, dtype=bool)
        for mg in mgrids:
            nyq_ok &= mg != -self.n // 2
        self.nyquist_free = nyq_ok
        # k_i with its own Nyquist entry zeroed, one broadcast axis each: odd in
        # m, so products k_i k_j keep the Hermitian symmetry of real fields
        k1_odd = np.where(m == -self.n // 2, 0.0, self.k1)
        self.k_odd = tuple(k1_odd.reshape([-1 if b == ax else 1 for b in range(self.dim)])
                           for ax in range(self.dim))

        self.kmin = 2.0 * np.pi / self.length
        self.kmax = float(np.max(self.kmag))
        for arr in (self.k1, self.k2, self.kmag, self.dealias_mask, self.nyquist_free,
                    *self.k_odd):
            arr.setflags(write=False)
        self._plan = None

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def plan(self) -> "HalfPlan":
        """Half-spectrum multipliers of this grid, built on first use."""
        if self._plan is None:
            self._plan = HalfPlan(self)
        return self._plan

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length:g}, dim={self.dim})"

    # identity-based hashing: grids are built once and shared
    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    def compatible(self, other: "Grid") -> bool:
        return (
            self is other
            or (self.n == other.n and self.dim == other.dim and self.length == other.length)
        )


def make_grid(n_per_dim: int, box_length: float, dim: int = 3) -> Grid:
    return Grid(n_per_dim, box_length, dim)


class HalfPlan:
    """Multipliers of one grid on the half spectrum of `rfftn` (last axis
    cut to its first n//2+1 modes), the gather index that rebuilds the
    full spectrum from the half by Hermitian symmetry, and the shell index
    `msq` = |m|^2 of every mode of the full spectrum (integer lattice
    indices m); its view `msq[..., :n//2+1]` indexes the half spectrum."""

    __slots__ = ("k", "k2", "mask", "ik", "gather", "msq")

    def __init__(self, grid: Grid):
        n, h = grid.n, grid.n // 2 + 1
        half = (Ellipsis, slice(0, h))
        self.msq = np.rint(grid.k2 / grid.kmin**2).astype(np.intp)  # |m|^2 = k^2 / kmin^2
        self.k = tuple(np.ascontiguousarray(a[half]) for a in grid.k)
        self.k2 = np.ascontiguousarray(grid.k2[half])
        self.mask = np.ascontiguousarray(grid.dealias_mask[half])
        nyq_ok = grid.nyquist_free[half]
        self.ik = tuple(1j * np.where(nyq_ok, a, 0.0) for a in self.k)
        # full[m0, .., m] for m >= h is conj(half[-m0, .., n - m]), indices mod n
        neg = (-np.arange(n)) % n
        rows = np.ix_(*([neg] * (grid.dim - 1) + [n - np.arange(h, n)]))
        self.gather = np.ravel_multi_index(rows, self.k2.shape)
        for arr in (*self.k, self.k2, self.mask, *self.ik, self.gather, self.msq):
            arr.setflags(write=False)


class Field:
    """Real scalar field on a Grid, stored either as spectral coefficients or
    real physical samples. Data arrays are frozen; every operation returns a
    new Field, so values can be shared freely between workers. The transform
    to the other representation is memoized (it is a pure function of the
    data)."""

    __slots__ = ("grid", "data", "rep", "_alt")

    def __init__(self, grid: Grid, data: np.ndarray, rep: str):
        if rep not in (SPECTRAL, PHYSICAL):
            raise ValueError(f"unknown representation {rep!r}")
        if data.shape != grid.shape:
            raise ValueError(f"data shape {data.shape} does not match grid {grid.shape}")
        self.grid = grid
        if rep == PHYSICAL and np.iscomplexobj(data):
            raise ValueError("physical samples must be real")
        data = np.ascontiguousarray(data, dtype=np.complex128 if rep == SPECTRAL else np.float64)
        data.setflags(write=False)
        self.data = data
        self.rep = rep
        self._alt = None

    @classmethod
    def from_physical(cls, grid: Grid, samples: np.ndarray) -> "Field":
        return cls(grid, np.asarray(samples), PHYSICAL)

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs: np.ndarray) -> "Field":
        return cls(grid, np.asarray(coeffs, dtype=np.complex128), SPECTRAL)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128), SPECTRAL)

    def __repr__(self):
        return f"Field({self.grid!r}, rep={self.rep})"

    # linear arithmetic happens in the canonical (spectral) representation
    def __add__(self, other):
        _check_same_grid(self, other)
        return Field(self.grid, _sdata(self) + _sdata(other), SPECTRAL)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return Field(self.grid, _sdata(self) - _sdata(other), SPECTRAL)

    def __mul__(self, scalar):
        if isinstance(scalar, Field):
            raise TypeError("use dealiased_product for field*field products")
        return Field(self.grid, _sdata(self) * scalar, SPECTRAL)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -_sdata(self), SPECTRAL)


class VectorField:
    """dim-tuple of Fields sharing one Grid; components addressable as a whole,
    as the horizontal pair (u^1, u^2), or the vertical component u^3."""

    __slots__ = ("grid", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty component list")
        grid = components[0].grid
        for c in components:
            if not grid.compatible(c.grid):
                raise GridMismatchError("vector components on different grids")
        if len(components) != grid.dim:
            raise ValueError(f"expected {grid.dim} components, got {len(components)}")
        self.grid = grid
        self.components = components

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls([Field.zeros(grid) for _ in range(grid.dim)])

    @property
    def horizontal(self):
        return self.components[:2]

    @property
    def vertical(self) -> Field:
        if self.grid.dim != 3:
            raise ValueError("vertical component requires dim=3")
        return self.components[2]

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __add__(self, other):
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return VectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return VectorField([-c for c in self.components])


def _check_same_grid(f, g):
    if not f.grid.compatible(g.grid):
        raise GridMismatchError(f"grid mismatch: {f.grid!r} vs {g.grid!r}")


def transform_count() -> int:
    """Real transforms (forward and inverse) this process has made so far."""
    return _transform_calls


def _forward_half(samples: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of real samples."""
    global _transform_calls
    _transform_calls += 1
    return _fft.rfftn(samples, norm="forward")


def _full_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full spectrum whose first n//2+1 modes on the last axis are `half`,
    the rest filled in by Hermitian symmetry."""
    h = half.shape[-1]
    full = np.empty(grid.shape, dtype=np.complex128)
    full[..., :h] = half
    np.conjugate(np.take(half, grid.plan.gather), out=full[..., h:])
    return full


def _forward_real(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Full-spectrum coefficients of real samples."""
    return _full_from_half(grid, _forward_half(samples))


def _inverse_real(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of Hermitian coefficients, given in full or half layout."""
    global _transform_calls
    _transform_calls += 1
    return _fft.irfftn(coeffs[..., : grid.n // 2 + 1], s=grid.shape, norm="forward")


def _sdata(f: Field) -> np.ndarray:
    """Spectral coefficients of f (computing the transform if needed)."""
    if f.rep == SPECTRAL:
        return f.data
    if f._alt is None:
        out = _forward_real(f.grid, f.data)
        out.setflags(write=False)
        f._alt = out
    return f._alt


def _pdata(f: Field) -> np.ndarray:
    """Real physical samples of f (computing the transform if needed), from
    the half spectrum, which holds all of a Hermitian spectrum."""
    if f.rep == PHYSICAL:
        return f.data
    if f._alt is None:
        out = _inverse_real(f.grid, f.data)
        out.setflags(write=False)
        f._alt = out
    return f._alt


def to_spectral(f: Field) -> Field:
    if f.rep == SPECTRAL:
        return f
    return Field(f.grid, _sdata(f), SPECTRAL)


def to_physical(f: Field) -> Field:
    if f.rep == PHYSICAL:
        return f
    return Field(f.grid, _pdata(f), PHYSICAL)


def constant_field(grid: Grid, value: float) -> Field:
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[(0,) * grid.dim] = value
    return Field(grid, coeffs, SPECTRAL)


def field_from_function(grid: Grid, fn) -> Field:
    """Sample fn(x1, ..., xd) on the grid points."""
    return Field(grid, np.asarray(fn(*grid.x), dtype=np.float64), PHYSICAL)


def random_field(grid: Grid, seed, band=None, rng=None) -> Field:
    """Seeded random real field; optional (klow, khigh) band limits its
    spectral support to klow <= |k| <= khigh."""
    rng = np.random.default_rng(seed) if rng is None else rng
    samples = rng.standard_normal(grid.shape)
    f = Field(grid, samples, PHYSICAL)
    if band is not None:
        klow, khigh = band
        keep = (grid.kmag >= klow) & (grid.kmag <= khigh)
        f = Field(grid, np.where(keep, _sdata(f), 0.0), SPECTRAL)
    return f


# ---------------------------------------------------------------------------
# differential operators (spectral multipliers)

def _deriv_multiplier(grid: Grid, axis: int) -> np.ndarray:
    # i*k_axis with the Nyquist row zeroed (odd-derivative symmetry safety)
    return 1j * np.where(grid.nyquist_free, grid.k[axis], 0.0)


def partial_deriv(f: Field, axis: int) -> Field:
    return Field(f.grid, _deriv_multiplier(f.grid, axis) * _sdata(f), SPECTRAL)


def gradient(f: Field) -> VectorField:
    s = _sdata(f)
    return VectorField(
        [Field(f.grid, _deriv_multiplier(f.grid, ax) * s, SPECTRAL) for ax in range(f.grid.dim)]
    )


def divergence(v: VectorField) -> Field:
    grid = v.grid
    out = np.zeros(grid.shape, dtype=np.complex128)
    for ax, comp in enumerate(v.components):
        out += _deriv_multiplier(grid, ax) * _sdata(comp)
    return Field(grid, out, SPECTRAL)


def laplacian(f: Field) -> Field:
    return Field(f.grid, -f.grid.k2 * _sdata(f), SPECTRAL)


# ---------------------------------------------------------------------------
# dealiased nonlinearities

def dealias(f: Field) -> Field:
    """Zero every mode outside the 2/3 ball."""
    return Field(f.grid, np.where(f.grid.dealias_mask, _sdata(f), 0.0), SPECTRAL)


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product with the 2/3 truncation applied to both inputs and
    the output; bilinear and symmetric."""
    _check_same_grid(f, g)
    fp = _pdata(dealias(f))
    gp = _pdata(dealias(g))
    return dealias(Field.from_physical(f.grid, fp * gp))


def nonlinear_map(f: Field, fn, time=None) -> Field:
    """Apply fn pointwise in physical space, then truncate at the 2/3 ball.

    Raises PositivityFault when fn produces non-finite values (the usual cause
    is a density that left the domain of rho^gamma or log rho).
    """
    samples = _pdata(f)
    with np.errstate(all="ignore"):
        mapped = fn(samples)
    mapped = np.asarray(mapped)
    if not np.all(np.isfinite(mapped)):
        raise PositivityFault(
            f"pointwise map left its domain (min input sample {samples.min():.6g})",
            min_value=float(np.min(samples)),
            time=time,
        )
    return dealias(Field.from_physical(f.grid, mapped))


# ---------------------------------------------------------------------------
# norms and integrals (rectangle rule: spectrally accurate for smooth
# periodic integrands)

def _cell(grid: Grid) -> float:
    return grid.dx**grid.dim


def lebesgue_norm(f, p) -> float:
    """L^p norm over the box; accepts a Field or a VectorField (pointwise
    Euclidean magnitude)."""
    if isinstance(f, VectorField):
        mag2 = sum(_pdata(c) ** 2 for c in f.components)
        vals = np.sqrt(mag2)
        grid = f.grid
    else:
        vals = np.abs(_pdata(f))
        grid = f.grid
    if p == np.inf or p == "inf":
        return float(np.max(vals))
    p = float(p)
    if p < 1:
        raise ValueError(f"L^p norm needs p >= 1, got {p}")
    return float((np.sum(vals**p) * _cell(grid)) ** (1.0 / p))


def mean_value(f: Field) -> float:
    v = _sdata(f)[(0,) * f.grid.dim]
    # a spectrum built by hand may carry a complex mean; round-off is not one
    return float(v.real) if abs(v.imag) <= 1e-10 * (abs(v) + 1.0) else complex(v)


def sobolev_norm(f, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm computed spectrally as
    (V * sum (1+|k|^2)^s |fhat|^2)^(1/2), |k|^(2s) in the homogeneous case."""
    if isinstance(f, VectorField):
        return float(np.sqrt(sum(sobolev_norm(c, s, homogeneous) ** 2 for c in f.components)))
    grid = f.grid
    coeffs = np.abs(_sdata(f)) ** 2
    if homogeneous:
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(grid.k2 > 0, grid.k2**s, 0.0)
    else:
        w = (1.0 + grid.k2) ** s
    return float(np.sqrt(grid.volume * np.sum(w * coeffs)))
