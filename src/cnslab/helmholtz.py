"""Helmholtz (Leray) splitting and the derived scalar unknowns: the
compressible scalar d with Lambda d = div u, the effective viscous flux
div u - frak_a/(lambda+2mu), and the auxiliary combination (2mu+lambda)*
Lambda a - d.

Only the incompressible part P u is exposed; analyses that name a separate
divergence-free unknown b mean exactly this projection (b = P u)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Field,
    VectorField,
    GridMismatchError,
    _sdata,
    dealiased_product,
    divergence,
    gradient,
    mean_value,
)

__all__ = [
    "HelmholtzSplit",
    "project",
    "incompressible_part",
    "compressible_part",
    "lambda_power",
    "effective_flux",
    "auxiliary_w",
    "material_derivative",
    "convective_term",
]

#: Convention: the k=0 (mean velocity) mode belongs to the incompressible part
#: since constants are divergence-free.
MEAN_MODE_CONVENTION = "incompressible"


@dataclass
class HelmholtzSplit:
    """Incompressible part P u, compressible part Q u, and the compressible
    scalar d = Lambda^{-1} div u."""

    P: VectorField
    Q: VectorField
    d: Field
    mean_convention: str = MEAN_MODE_CONVENTION


def _k_dot(grid, u_hats):
    """k . u per mode, with k = grid.k_odd."""
    return sum(grid.k_odd[ax] * u_hats[ax] for ax in range(grid.dim))


def project(u: VectorField) -> HelmholtzSplit:
    """Spectral projectors P = I - Q and Q = kk^T/|k|^2, with k zeroed on
    each axis's own Nyquist entry so that P u, Q u and d keep the Hermitian
    symmetry of a real u; the mean velocity is assigned to P."""
    grid = u.grid
    shat = [_sdata(c) for c in u.components]
    k = grid.k_odd
    k_dot_u = _k_dot(grid, shat)
    q = [k[ax] * k_dot_u * grid.inv_k2_odd for ax in range(grid.dim)]
    p = [shat[ax] - q[ax] for ax in range(grid.dim)]
    d_hat = 1j * k_dot_u * grid.inv_kmag_odd  # so that Lambda d = div u off the Nyquist planes
    return HelmholtzSplit(
        P=VectorField([Field(grid, arr, "spectral") for arr in p]),
        Q=VectorField([Field(grid, arr, "spectral") for arr in q]),
        d=Field(grid, d_hat, "spectral"),
    )


def incompressible_part(u: VectorField) -> VectorField:
    """P u alone, bit for bit `project(u).P`, formed one component at a
    time without Q u and d: a caller that measures only P holds about half
    of what the whole split holds."""
    grid = u.grid
    shat = [_sdata(c) for c in u.components]
    k = grid.k_odd
    k_dot_u = _k_dot(grid, shat)
    return VectorField([
        Field(grid, shat[ax] - k[ax] * k_dot_u * grid.inv_k2_odd, "spectral")
        for ax in range(grid.dim)
    ])


def compressible_part(u: VectorField) -> VectorField:
    """Q u alone, bit for bit `project(u).Q`, formed one component at a
    time without P u and d, as `incompressible_part` forms P u."""
    grid = u.grid
    k_dot_u = _k_dot(grid, [_sdata(c) for c in u.components])
    return VectorField([
        Field(grid, grid.k_odd[ax] * k_dot_u * grid.inv_k2_odd, "spectral")
        for ax in range(grid.dim)
    ])


def lambda_power(f: Field, alpha: float) -> Field:
    """Fourier multiplier |k|^alpha (Lambda = sqrt(-Laplacian)); negative
    powers require a mean-zero input."""
    grid = f.grid
    s = _sdata(f)
    if alpha < 0:
        m = mean_value(f)
        if abs(m) > 1e-12:
            raise ValueError(f"Lambda^{alpha:g} needs a mean-zero field (mean {m:.3e})")
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(grid.kmag > 0, grid.kmag**alpha, 0.0)
    out = mult * s
    if alpha >= 0:
        # |k|^0 keeps the mean; positive powers annihilate it
        out[(0,) * grid.dim] = s[(0,) * grid.dim] if alpha == 0 else 0.0
    return Field(grid, out, "spectral")


def effective_flux(u: VectorField, frak_a: Field, lam: float, mu: float) -> Field:
    """G = div u - frak_a / (lambda + 2 mu); better behaved than either term."""
    if lam + 2.0 * mu <= 0:
        raise ValueError(f"need lambda + 2 mu > 0, got {lam + 2 * mu:g}")
    return divergence(u) - frak_a * (1.0 / (lam + 2.0 * mu))


def auxiliary_w(a: Field, d: Field, lam: float, mu: float) -> Field:
    """w = (2 mu + lambda) * Lambda a - d."""
    return lambda_power(a, 1.0) * (2.0 * mu + lam) - d


def convective_term(u: VectorField, f) -> "Field | VectorField":
    """(u . grad) f with dealiased products; f may be a Field or VectorField."""
    if isinstance(f, VectorField):
        return VectorField([convective_term(u, c) for c in f.components])
    if not u.grid.compatible(f.grid):
        raise GridMismatchError("convective term needs a shared grid")
    grid = u.grid
    out = Field.zeros(grid)
    grad_f = gradient(f)
    for ax in range(grid.dim):
        out = out + dealiased_product(u.components[ax], grad_f.components[ax])
    return out


def material_derivative(u: VectorField, u_t: VectorField) -> VectorField:
    """u_t + (u . grad) u along the flow."""
    if not u.grid.compatible(u_t.grid):
        raise GridMismatchError("material derivative needs a shared grid")
    return u_t + convective_term(u, u)
