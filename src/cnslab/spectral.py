"""Periodic-box discretization: grids, scalar/vector fields, Fourier transforms,
spectral differential operators, dealiased products and L^p norms.

All spectral coefficients follow the Fourier-series convention
f(x) = sum_k fhat(k) exp(i k.x), so the k=0 coefficient is the mean of the
field and a unit sine carries two conjugate coefficients of magnitude 1/2.

Fields hold real samples or the `rfftn` half of their spectrum, shape
`Grid.spectral_shape` = (n, ..., n//2+1); complex samples are refused. A full
Hermitian spectrum passed in is folded to its half on entry. Every transform
is one of a counted real pair (`transform_count`): `_forward_half` runs
`rfftn` and `_inverse_real` runs `irfftn`. The multipliers (`k`, `k^2`, the
2/3-rule mask, `ik` with the Nyquist rows zeroed, the shell index |m|^2, the
inverse Laplacian symbols) live on the grid, on the same half layout. A sum
over the full spectrum is the sum over the half with the Hermitian weight
`Grid.w`.
"""

from __future__ import annotations

import threading

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
# The members of a twin pair step on two threads, so the count is locked: a
# bare += may lose an increment, and the count must repeat exactly.
_transform_calls = 0
_transform_lock = threading.Lock()


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
    """Uniform periodic box with its wavenumber multipliers.

    The spectral arrays live on the `rfftn` half spectrum, shape
    `spectral_shape` = (n, ..., n//2+1): the first n//2+1 entries of the
    last axis of the full `fftfreq` lattice, so every multiplier keeps its
    full-lattice value on each stored mode (the last-axis Nyquist index
    carries m = -n/2). Instances are immutable and hashed by identity.
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
        "ik",
        "msq",
        "w",
        "inv_k2",
        "inv_k2_odd",
        "inv_kmag_odd",
        "kmin",
        "kmax",
    )

    def __init__(self, n: int, length: float, dim: int):
        check_grid(n, length, dim)
        self.n = int(n)
        self.length = float(length)
        self.dim = int(dim)
        self.dx = self.length / self.n
        self.volume = self.length**self.dim

        m = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integer lattice indices
        h = self.n // 2 + 1
        ms = [m] * (self.dim - 1) + [m[:h]]  # the half lattice, axis by axis
        self.k1 = (2.0 * np.pi / self.length) * m
        ks = [self.k1] * (self.dim - 1) + [self.k1[:h]]
        self.k = tuple(np.meshgrid(*ks, indexing="ij"))
        self.k2 = sum(a * a for a in self.k)
        self.kmag = np.sqrt(self.k2)

        x1 = self.length * np.arange(self.n) / self.n
        self.x = tuple(np.meshgrid(*([x1] * self.dim), indexing="ij"))

        # 2/3-rule mask on integer indices: keep |m_i| <= n//3 in every axis.
        mgrids = np.meshgrid(*ms, indexing="ij")
        self.dealias_mask = np.logical_and.reduce([np.abs(mg) <= self.n // 3 for mg in mgrids])
        # Nyquist rows (m = -n/2) are zeroed by odd-order derivatives.
        self.nyquist_free = np.logical_and.reduce([mg != -self.n // 2 for mg in mgrids])
        # i*k_i with the Nyquist rows zeroed (odd-derivative symmetry safety)
        self.ik = tuple(1j * np.where(self.nyquist_free, a, 0.0) for a in self.k)
        # k_i with its own Nyquist entry zeroed, one broadcast axis each: odd in
        # m, so products k_i k_j keep the Hermitian symmetry of real fields
        k1_odd = np.where(m == -self.n // 2, 0.0, self.k1)
        self.k_odd = tuple(
            (k1_odd[:h] if ax == self.dim - 1 else k1_odd).reshape(
                [-1 if b == ax else 1 for b in range(self.dim)])
            for ax in range(self.dim)
        )

        self.kmin = 2.0 * np.pi / self.length
        self.kmax = float(np.max(self.kmag))
        self.msq = np.rint(self.k2 / self.kmin**2).astype(np.intp)  # shell index |m|^2
        # Hermitian weight of each stored mode in a sum over the full spectrum,
        # along the last axis: its planes 0 and n/2 hold their own conjugates
        self.w = np.full(h, 2.0)
        self.w[[0, -1]] = 1.0
        # inverse symbols, zero at k = 0: 1/|k|^2, and 1/|k~|^2, 1/|k~| of k_odd
        kt2 = sum(a * a for a in self.k_odd)
        self.inv_k2 = np.where(self.k2 > 0, 1.0 / np.where(self.k2 > 0, self.k2, 1.0), 0.0)
        self.inv_k2_odd = np.where(kt2 > 0, 1.0 / np.where(kt2 > 0, kt2, 1.0), 0.0)
        self.inv_kmag_odd = np.where(kt2 > 0, 1.0 / np.sqrt(np.where(kt2 > 0, kt2, 1.0)), 0.0)
        for arr in (self.k1, *self.k, self.k2, self.kmag, self.dealias_mask, self.nyquist_free,
                    *self.ik, *self.k_odd, self.msq, self.w, self.inv_k2, self.inv_k2_odd,
                    self.inv_kmag_odd):
            arr.setflags(write=False)

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def spectral_shape(self):
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

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


class Field:
    """Real scalar field on a Grid, stored either as the half spectrum of its
    coefficients or as real physical samples. Data arrays are frozen; every
    operation returns a new Field, so values can be shared freely between
    workers. The transform to the other representation is memoized (it is a
    pure function of the data)."""

    __slots__ = ("grid", "data", "rep", "_alt")

    def __init__(self, grid: Grid, data: np.ndarray, rep: str):
        if rep not in (SPECTRAL, PHYSICAL):
            raise ValueError(f"unknown representation {rep!r}")
        expected = grid.spectral_shape if rep == SPECTRAL else grid.shape
        if rep == SPECTRAL and data.shape == grid.shape:
            data = data[..., : grid.n // 2 + 1]  # a full Hermitian spectrum: keep its half
        if data.shape != expected:
            raise ValueError(f"{rep} data shape {data.shape} does not match grid {expected}")
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
        return cls(grid, np.zeros(grid.spectral_shape, dtype=np.complex128), SPECTRAL)

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


def _count_transform():
    global _transform_calls
    with _transform_lock:
        _transform_calls += 1


def _forward_half(samples: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of real samples."""
    _count_transform()
    return _fft.rfftn(samples, norm="forward")


def _inverse_real(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of half-spectrum coefficients."""
    _count_transform()
    return _fft.irfftn(coeffs, s=grid.shape, norm="forward")


def _sdata(f: Field) -> np.ndarray:
    """Spectral coefficients of f (computing the transform if needed)."""
    if f.rep == SPECTRAL:
        return f.data
    if f._alt is None:
        out = _forward_half(f.data)
        out.setflags(write=False)
        f._alt = out
    return f._alt


def _pdata(f: Field) -> np.ndarray:
    """Real physical samples of f (computing the transform if needed)."""
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
    coeffs = np.zeros(grid.spectral_shape, dtype=np.complex128)
    coeffs[(0,) * grid.dim] = value
    return Field(grid, coeffs, SPECTRAL)


def field_from_function(grid: Grid, fn) -> Field:
    """Sample fn(x1, ..., xd) on the grid points."""
    return Field(grid, np.asarray(fn(*grid.x), dtype=np.float64), PHYSICAL)


def random_field(grid: Grid, seed, band=None) -> Field:
    """Seeded random real field; optional (klow, khigh) band limits its
    spectral support to klow <= |k| <= khigh."""
    samples = np.random.default_rng(seed).standard_normal(grid.shape)
    f = Field(grid, samples, PHYSICAL)
    if band is not None:
        klow, khigh = band
        keep = (grid.kmag >= klow) & (grid.kmag <= khigh)
        f = Field(grid, np.where(keep, _sdata(f), 0.0), SPECTRAL)
    return f


# ---------------------------------------------------------------------------
# differential operators (spectral multipliers)

def partial_deriv(f: Field, axis: int) -> Field:
    return Field(f.grid, f.grid.ik[axis] * _sdata(f), SPECTRAL)


def gradient(f: Field) -> VectorField:
    s = _sdata(f)
    return VectorField([Field(f.grid, ik * s, SPECTRAL) for ik in f.grid.ik])


def divergence(v: VectorField) -> Field:
    grid = v.grid
    out = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for ik, comp in zip(grid.ik, v.components):
        out += ik * _sdata(comp)
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
    (V * sum (1+|k|^2)^s |fhat|^2)^(1/2), |k|^(2s) in the homogeneous case;
    the sum runs over the half spectrum with the Hermitian weight `grid.w`."""
    if isinstance(f, VectorField):
        return float(np.sqrt(sum(sobolev_norm(c, s, homogeneous) ** 2 for c in f.components)))
    grid = f.grid
    coeffs = np.abs(_sdata(f)) ** 2
    if homogeneous:
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = np.where(grid.k2 > 0, grid.k2**s, 0.0)
    else:
        mult = (1.0 + grid.k2) ** s
    return float(np.sqrt(grid.volume * np.sum(grid.w * mult * coeffs)))
