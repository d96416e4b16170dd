"""Tracked functionals: relative entropy, basic and L^4 energies, the Lyapunov
functional with calibrated weights, effective-flux norms, low-frequency
spectral mass over the shrinking ball, decay-rate fits, and the Lipschitz
budget of the velocity gradient."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .helmholtz import effective_flux
from .lp import NormSpec, besov_norm, format_norm_key, hybrid_norm, parse_norm_key
from .scenarios import stability_difference_norm
from .solver import FlowState, PhysicalParams, dissipation_rate
from .spectral import (
    Field,
    VectorField,
    PositivityFault,
    _cell,
    _pdata,
    _sdata,
    divergence,
    gradient,
    lebesgue_norm,
    sobolev_norm,
)

__all__ = [
    "DiagnosticSeries",
    "DecayFit",
    "LyapunovConstants",
    "LyapunovResult",
    "relative_entropy",
    "entropy_density",
    "pressure_cross_density",
    "basic_energy",
    "energy_balance_residual",
    "lyapunov_nonincreasing",
    "l4_energy",
    "calibrate_lyapunov",
    "lyapunov_X",
    "low_freq_mass",
    "conlf_rhs",
    "conlf_constant",
    "beta",
    "fit_decay",
    "holder_norm",
    "DiagnosticsConfig",
    "make_observer",
    "select_field",
]


# ---------------------------------------------------------------------------
# pointwise densities

def entropy_density(rho: np.ndarray, gamma: float) -> np.ndarray:
    """H(rho|1): (rho^g - 1 - g(rho-1))/(g-1) for g>1, rho ln rho - rho + 1 at g=1."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.min(rho) <= 0:
        raise PositivityFault(
            "relative entropy needs positive density", min_value=float(np.min(rho))
        )
    if gamma == 1.0:
        return rho * np.log(rho) - rho + 1.0
    return (rho**gamma - 1.0 - gamma * (rho - 1.0)) / (gamma - 1.0)


def pressure_cross_density(rho: np.ndarray, gamma: float, lam: float, mu: float) -> np.ndarray:
    """The pointwise density f(rho) whose time derivative absorbs the
    (u frak_a, grad frak_a) cross term in the dissipation inequality."""
    rho = np.asarray(rho, dtype=np.float64)
    pref = 1.0 / (lam + 2.0 * mu)
    if gamma == 1.0:
        return pref * (0.5 * (rho - 1.0) ** 2 - (rho * np.log(rho) - rho + 1.0))
    g = gamma
    h = entropy_density(rho, g)
    coeff = (
        (g - 1.0) / (2.0 * (2.0 * g - 1.0)) * rho**g
        + g * (g - 1.0) / (2.0 * (2.0 * g - 1.0)) * rho
        - (g * g + 2.0 * g - 1.0) / (2.0 * (2.0 * g - 1.0))
    )
    return pref * (g * g / (2.0 * (2.0 * g - 1.0)) * (rho - 1.0) ** 2 - coeff * h)


# ---------------------------------------------------------------------------
# scalar functionals of a state

def relative_entropy(a: Field, gamma: float) -> float:
    """Integral of H(rho|1) over the box; zero exactly at equilibrium."""
    rho = 1.0 + _pdata(a)
    return float(np.sum(entropy_density(rho, gamma)) * _cell(a.grid))


def basic_energy(state: FlowState, params: PhysicalParams) -> tuple[float, float]:
    """(E, D): E = int H(rho|1) + 1/2 int rho |u|^2, D the viscous dissipation."""
    rho = state.rho_phys
    u2 = sum(_pdata(c) ** 2 for c in state.u.components)
    e = float(
        np.sum(entropy_density(rho, params.gamma) + 0.5 * rho * u2) * _cell(state.grid)
    )
    return e, dissipation_rate(state, params)


def l4_energy(state: FlowState) -> float:
    """int rho |u|^4 dx."""
    rho = state.rho_phys
    u2 = sum(_pdata(c) ** 2 for c in state.u.components)
    return float(np.sum(rho * u2 * u2) * _cell(state.grid))


@dataclass(frozen=True)
class LyapunovConstants:
    A1: float = 1.0
    A2: float = 1.0
    A3: float = 1.0
    A4: float = 1.0
    A5: float = 1.0
    A6: float = 1.0

    def as_dict(self):
        return {k: getattr(self, k) for k in ("A1", "A2", "A3", "A4", "A5", "A6")}


def calibrate_lyapunov(state0: FlowState, params: PhysicalParams) -> LyapunovConstants:
    """Deterministic choice of the Lyapunov weights: A1=A2=A3=A5=A6=1 and A4
    sized so the negative cross terms -(frak_a, div u) and int f(rho) are
    dominated by half of the A4 entropy block on the density band the
    reference state can reach (its initial amplitude doubled). The amplitude
    is floored at 1e-4: on a narrower band the entropy formulas cancel to
    round-off, so nearly constant densities take the small-amplitude limit."""
    amp = max(abs(state0.rho_min - 1.0), abs(state0.rho_max - 1.0), 1e-4)
    band = np.linspace(max(1.0 - 2.0 * amp, 0.05), 1.0 + 2.0 * amp, 512)
    band = band[np.abs(band - 1.0) > 1e-10]
    e = band - 1.0
    g = params.gamma
    lim_h = 0.5 if g == 1.0 else g / 2.0  # H(rho)/(rho-1)^2 at rho -> 1
    h = entropy_density(band, g)
    c_h = float(min(np.min(h / e**2), lim_h))
    c_frak = float(max(np.max(np.abs(band**g - 1.0) / np.abs(e)), g))
    c_f = float(np.max(np.abs(pressure_cross_density(band, g, params.lam, params.mu)) / h))
    a4 = max(1.0, 2.0 * (c_frak**2 / (2.0 * (params.lam + params.mu) * c_h) + c_f))
    return LyapunovConstants(A4=a4)


@dataclass
class LyapunovResult:
    X: float
    comparator: float  # ||u||_H1^2 + ||a||_H1^2 + ||u_dot||_L2^2
    f_over_H_max: float

    @property
    def ratio(self) -> float:
        return self.X / self.comparator if self.comparator > 0 else math.nan


def lyapunov_X(
    state: FlowState, params: PhysicalParams, constants: LyapunovConstants
) -> LyapunovResult:
    """X(t) = A1 ||rho^(1/4) u||_L4^4
            + A2 (mu ||grad u||^2 + (lam+mu) ||div u||^2 - (frak_a, div u) + int f)
            + A3 ||frak_a||_L6^2 + A4 (int H + ||sqrt(rho) u||^2)
            + A5 ||sqrt(rho) u_dot||^2 + A6 ||grad frak_a||^2,
    together with its comparison quantity."""
    grid = state.grid
    cell = _cell(grid)
    rho = state.rho_phys
    mu, lam, g = params.mu, params.lam, params.gamma

    u2 = sum(_pdata(c) ** 2 for c in state.u.components)
    h = entropy_density(rho, g)
    f_vals = pressure_cross_density(rho, g, lam, mu)

    div_u = divergence(state.u)
    frak = state.frak_a
    cross = float(np.sum(_pdata(frak) * _pdata(div_u)) * cell)

    udot = state.u_dot
    udot2 = sum(_pdata(c) ** 2 for c in udot.components)

    x = (
        constants.A1 * float(np.sum(rho * u2 * u2) * cell)
        + constants.A2 * (dissipation_rate(state, params) - cross + float(np.sum(f_vals) * cell))
        + constants.A3 * lebesgue_norm(frak, 6) ** 2
        + constants.A4 * (float(np.sum(h) * cell) + float(np.sum(rho * u2) * cell))
        + constants.A5 * float(np.sum(rho * udot2) * cell)
        + constants.A6 * sobolev_norm(frak, 1.0, homogeneous=True) ** 2
    )
    comparator = (
        sobolev_norm(state.u, 1.0) ** 2
        + sobolev_norm(state.a, 1.0) ** 2
        + sum(lebesgue_norm(c, 2) ** 2 for c in udot.components)
    )
    hmax = float(np.max(h))
    if hmax > 0:
        sig = h > 1e-3 * hmax
        f_ratio = float(np.max(np.abs(f_vals[sig]) / h[sig])) if np.any(sig) else 0.0
    else:
        f_ratio = 0.0
    return LyapunovResult(X=x, comparator=comparator, f_over_H_max=f_ratio)


# ---------------------------------------------------------------------------
# low-frequency machinery

def low_freq_mass(state: FlowState, t: float, c_split: float = 1.0) -> float:
    """Spectral mass sum over |k| <= c_split (1+t)^(-1/2) of
    gamma |a_hat|^2 + |(rho u)_hat|^2, with continuum-normalized coefficients
    (box integral transforms) and lattice measure (2 pi / L)^dim."""
    grid = state.grid
    radius = c_split * (1.0 + t) ** -0.5
    mask = grid.kmag <= radius
    if not np.any(mask):
        return 0.0
    vol = grid.volume
    gamma = state.params.gamma
    a_hat = vol * _sdata(state.a)
    total = gamma * np.abs(a_hat[mask]) ** 2
    for c in state.momentum().components:
        total = total + np.abs(vol * _sdata(c)[mask]) ** 2
    weight = np.broadcast_to(grid.w, mask.shape)[mask]  # Hermitian weights of the half
    return float(np.sum(weight * total) * (2.0 * np.pi / grid.length) ** grid.dim)


def beta(p0: float) -> float:
    """Decay exponent 3/4 (2/p0 - 1) for data with L^p0 integrability."""
    if not 1.0 <= p0 <= 2.0:
        raise ValueError(f"p0 must lie in [1, 2], got {p0:g}")
    return 0.75 * (2.0 / p0 - 1.0)


def conlf_rhs(series: "DiagnosticSeries", t: float, p0: float, params: PhysicalParams) -> float:
    """Right-hand side of the low-frequency mass bound, without the
    non-constructive constant:
    (||a0||_Lp0^2 + ||rho0 u0||_Lp0^2)(1+t)^(-2 beta)
    + (1+t)^(-3/2) int_0^t (||u||_L2^4 + ||a||_L2^4) ds."""
    times = np.asarray(series.times)
    if t > times[-1] + 1e-12:
        raise ValueError(f"t={t:g} beyond recorded horizon {times[-1]:g}")
    init = series.metadata.get("initial_lp_norms", {}).get(_p0_key(p0))
    if init is None:
        raise ValueError(f"series lacks initial L^{p0:g} norms")
    head = (init["a"] ** 2 + init["rho_u"] ** 2) * (1.0 + t) ** (-2.0 * beta(p0))
    sel = times <= t + 1e-12
    tt = times[sel]
    integrand = series.column("l2_u")[sel] ** 4 + series.column("l2_a")[sel] ** 4
    tail = (1.0 + t) ** -1.5 * (np.trapezoid(integrand, tt) if len(tt) > 1 else 0.0)
    return float(head + tail)


def conlf_constant(series: "DiagnosticSeries", p0: float, params: PhysicalParams) -> float:
    """Fitted constant C_hat of the low-frequency mass bound: the largest
    mlow(t)/conlf_rhs(t) over the snapshots where the right-hand side is
    positive, 0 when it is positive at none."""
    rhs = np.asarray([conlf_rhs(series, t, p0, params) for t in series.times])
    ok = rhs > 0
    return float(np.max(series.column("mlow")[ok] / rhs[ok], initial=0.0))


def _p0_key(p0: float) -> str:
    return f"{float(p0):g}"


# ---------------------------------------------------------------------------
# decay fits

@dataclass
class DecayFit:
    norm_key: str
    window: tuple[float, float]
    beta_hat: float
    residual: float
    n_samples: int
    target: float | None = None

    #: residual above this marks the series as not power-law in the window
    POWER_LAW_RESIDUAL = 0.05

    @property
    def power_law(self) -> bool:
        return self.residual <= self.POWER_LAW_RESIDUAL

    def report(self) -> dict:
        """The fit as the JSON fields of a run summary and of `cnslab analyze`."""
        return {
            "beta_hat": self.beta_hat,
            "residual": self.residual,
            "window": list(self.window),
            "n_samples": self.n_samples,
            "target": self.target,
            "power_law": self.power_law,
        }


def fit_decay(series, norm_key: str, window: tuple[float, float],
              target: float | None = None) -> DecayFit:
    """Least-squares slope of log(norm) against log(1+t) inside the window."""
    ta, tb = window
    if not (tb > ta > 0):
        raise ValueError("window must satisfy tb > ta > 0")
    times = np.asarray(series.times)
    vals = series.column(norm_key)
    sel = (times >= ta) & (times <= tb)
    if np.count_nonzero(sel) < 8:
        raise ValueError(
            f"need at least 8 samples in window [{ta:g}, {tb:g}], got {np.count_nonzero(sel)}"
        )
    v = vals[sel]
    if np.any(v <= 0):
        raise ValueError("decay fit needs positive norm values in the window")
    x = np.log1p(times[sel])
    y = np.log(v)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return DecayFit(
        norm_key=norm_key,
        window=(float(ta), float(tb)),
        beta_hat=float(-coef[0]),
        residual=resid,
        n_samples=int(np.count_nonzero(sel)),
        target=target,
    )


def default_fit_window(grid) -> tuple[float, float]:
    """[5, min(50, 0.5 (L/2pi)^2)]: inside the torus algebraic-decay transient."""
    return 5.0, min(50.0, 0.5 * (grid.length / (2.0 * np.pi)) ** 2)


class _LipschitzIntegral:
    """Running trapezoidal integrals of ||grad u||_Linf and its square."""

    def __init__(self):
        self.lin = self.quad = 0.0
        self._prev = None

    def add(self, t: float, linf: float) -> tuple[float, float]:
        if self._prev is not None:
            t0, f0 = self._prev
            self.lin += 0.5 * (t - t0) * (f0 + linf)
            self.quad += 0.5 * (t - t0) * (f0**2 + linf**2)
        self._prev = (t, linf)
        return self.lin, self.quad


def holder_norm(f: Field, alpha: float, radius: int = 4) -> float:
    """C^alpha estimate: L-inf norm plus the seminorm sampled over all lattice
    offsets with |m| <= radius (periodic wrap, views of the samples padded once);
    smooth spectral fields attain the quotient at short range."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha:g}")
    vals = _pdata(f)
    grid = f.grid
    padded = np.pad(vals, radius, mode="wrap")
    diff = np.empty_like(vals)
    best = 0.0
    rngs = range(-radius, radius + 1)
    seen = set()
    for offset in itertools.product(*([rngs] * grid.dim)):
        if offset == (0,) * grid.dim or offset in seen:
            continue
        seen.add(offset)
        seen.add(tuple(-o for o in offset))  # pair (x, x+m) duplicates (y, y-m)
        dist2 = sum(o * o for o in offset)
        if dist2 > radius * radius:
            continue
        # shifted[x] = vals[x - offset], as np.roll(vals, offset) gives
        shifted = padded[tuple(slice(radius - o, radius - o + grid.n) for o in offset)]
        np.abs(np.subtract(shifted, vals, out=diff), out=diff)
        quot = np.max(diff) / (math.sqrt(dist2) * grid.dx) ** alpha
        best = max(best, float(quot))
    return best + float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# series container and observer

class DiagnosticSeries:
    """Time-indexed record of every tracked functional; the first appended
    record fixes the column schema."""

    def __init__(self, metadata: dict | None = None):
        self.times: list[float] = []
        self.columns: dict[str, list[float]] = {}
        self.metadata: dict = metadata or {}
        self.fault: dict | None = None

    def append(self, t: float, record: dict):
        if self.times and t <= self.times[-1]:
            raise ValueError(f"snapshot times must increase (got {t} after {self.times[-1]})")
        if not self.columns:
            self.columns = {k: [] for k in record}
        elif set(record) != set(self.columns):
            raise ValueError("record columns changed mid-series")
        self.times.append(float(t))
        for k, v in record.items():
            self.columns[k].append(float(v))

    def column(self, key: str) -> np.ndarray:
        if key == "t":
            return np.asarray(self.times)
        return np.asarray(self.columns[key])

    @property
    def header(self) -> list[str]:
        return ["t", *self.columns.keys()]

    def __len__(self):
        return len(self.times)


_SELECTORS = ("a", "u", "Pu", "Qu", "Pu3", "PuH", "d", "frak_a")


def select_field(state: FlowState, name: str):
    if name == "a":
        return state.a
    if name == "u":
        return state.u
    if name == "Pu":
        return state.split.P
    if name == "Qu":
        return state.split.Q
    if name == "Pu3":
        return state.split.P.vertical
    if name == "PuH":
        return VectorField(list(state.split.P.horizontal) + [Field.zeros(state.grid)])
    if name == "d":
        return state.split.d
    if name == "frak_a":
        return state.frak_a
    raise ValueError(f"unknown field selector {name!r}; choose from {_SELECTORS}")


def norm_column_name(selector: str, spec: NormSpec) -> str:
    return f"{selector}:{format_norm_key(spec)}"


def parse_norms(raw: str) -> list:
    """'<selector>:<norm key>; ...' entries as (selector, NormSpec) pairs;
    a ValueError names every bad entry."""
    norms, errors = [], []
    for entry in filter(None, (e.strip() for e in raw.split(";"))):
        selector, _, key = entry.partition(":")
        try:
            if selector not in _SELECTORS:
                raise ValueError(f"norm entry {entry!r}: unknown field selector {selector!r}")
            norms.append((selector, parse_norm_key(key)))
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ValueError("; ".join(errors))
    return norms


def echo_norms(norms) -> str:
    """The entries in parse_norms' grammar, each its CSV column name."""
    return "; ".join(norm_column_name(selector, spec) for selector, spec in norms)


def parse_lyapunov(raw: str):
    """'calibrate', or the six constants A1..A6 comma-separated."""
    if raw == "calibrate":
        return raw
    vals = [float(x) for x in raw.split(",") if x.strip()]
    if len(vals) != 6:
        raise ValueError("need 6 comma-separated constants or 'calibrate'")
    return LyapunovConstants(*vals)


def echo_lyapunov(value):
    return value if isinstance(value, str) else list(value.as_dict().values())


@dataclass
class DiagnosticsConfig:
    """The [diagnostics] section; field metadata as in RunConfig."""

    norms: list = dc_field(  # (selector, NormSpec) pairs
        default_factory=list, metadata={"parse": parse_norms, "echo": echo_norms}
    )
    p_list: list[float] = dc_field(default_factory=lambda: [2.0])
    p0_list: list[float] = dc_field(default_factory=lambda: [1.0])
    c_split: float = dc_field(default=1.0, metadata={"key": "C_split"})
    R0: float = 1.0
    lyapunov: LyapunovConstants | str = dc_field(
        default="calibrate", metadata={"parse": parse_lyapunov, "echo": echo_lyapunov}
    )
    holder_alpha: float | None = None
    holder_every: int = 1
    holder_radius: int = 4

    def __post_init__(self):
        if not all(p >= 1 for p in self.p_list):
            raise ValueError(f"p_list entries must be >= 1, got {self.p_list}")
        if not all(1.0 <= p0 <= 2.0 for p0 in self.p0_list):
            raise ValueError(f"p0_list entries must lie in [1, 2], got {self.p0_list}")
        if self.holder_alpha is not None and not 0.0 < self.holder_alpha < 1.0:
            raise ValueError(f"holder_alpha must lie in (0, 1), got {self.holder_alpha:g}")
        if self.holder_radius < 1:
            raise ValueError(f"holder_radius must be >= 1, got {self.holder_radius}")
        if self.holder_every < 1:
            raise ValueError(f"holder_every must be >= 1, got {self.holder_every}")


def make_observer(params: PhysicalParams, cfg: DiagnosticsConfig, series: DiagnosticSeries,
                  twin: tuple[float, float] | None = None):
    """Build the per-snapshot observer closure. The first call calibrates the
    Lyapunov constants (when requested) and records the initial L^p0 norms
    used by the low-frequency bound.

    With `twin` = (p, R0) the observer receives a twin pair (reference,
    perturbed): its row is the reference's, followed by the summands of
    `stability_difference_norm` of their difference at p, R0 as
    `twin_diff_rho`, `twin_diff_P`, `twin_diff_Q` and `twin_diff_total`."""
    state_holder = {"constants": None, "snapshots": 0}
    lipschitz = _LipschitzIntegral()

    def measure(state: FlowState, extras: dict) -> dict:
        if state_holder["constants"] is None:
            if cfg.lyapunov == "calibrate":
                state_holder["constants"] = calibrate_lyapunov(state, params)
            else:
                state_holder["constants"] = cfg.lyapunov
            series.metadata["lyapunov_constants"] = state_holder["constants"].as_dict()
            rho_u = state.momentum()
            series.metadata["initial_lp_norms"] = {
                _p0_key(p0): {
                    "a": lebesgue_norm(state.a, p0),
                    "rho_u": lebesgue_norm(rho_u, p0),
                }
                for p0 in cfg.p0_list
            }
        constants = state_holder["constants"]

        e, d = basic_energy(state, params)
        lyap = lyapunov_X(state, params, constants)

        grad_mag2 = np.zeros(state.grid.shape)
        for c in state.u.components:
            for comp in gradient(c).components:
                grad_mag2 += _pdata(comp) ** 2
        linf = float(np.sqrt(np.max(grad_mag2)))
        t = state.t
        lip, lip_sq = lipschitz.add(t, linf)

        flux = effective_flux(state.u, state.frak_a, params.lam, params.mu)
        a_abs = np.abs(_pdata(state.a))
        frak_abs = np.abs(_pdata(state.frak_a))
        sig = a_abs > 1e-3 * (np.max(a_abs) or 1.0)
        if np.any(sig):
            ratios = frak_abs[sig] / a_abs[sig]
            afrak_lo, afrak_hi = float(np.min(ratios)), float(np.max(ratios))
        else:
            afrak_lo = afrak_hi = params.gamma

        l2_a, l2_u = lebesgue_norm(state.a, 2), lebesgue_norm(state.u, 2)
        record = {
            "E": e,
            "D": d,
            "diss_cum": extras.get("diss_cum", 0.0),
            "l4_energy": l4_energy(state),
            "X": lyap.X,
            "X_comparator": lyap.comparator,
            "f_over_H_max": lyap.f_over_H_max,
            "rho_min": state.rho_min,
            "rho_max": state.rho_max,
            "mean_a": state.mean_a,
            "l2_a": l2_a,
            "l2_u": l2_u,
            "l2_au": math.hypot(l2_a, l2_u),
            "h1_a": sobolev_norm(state.a, 1.0),
            "h2_a": sobolev_norm(state.a, 2.0),
            "h1_u": sobolev_norm(state.u, 1.0),
            "h2_u": sobolev_norm(state.u, 2.0),
            "grad_u_linf": linf,
            "grad_u_linf_int": lip,
            "grad_u_linf_sq_int": lip_sq,
            "eflux_l2": lebesgue_norm(flux, 2),
            "eflux_h1dot": sobolev_norm(flux, 1.0, homogeneous=True),
            "mlow": low_freq_mass(state, t, cfg.c_split),
            "afrak_ratio_min": afrak_lo,
            "afrak_ratio_max": afrak_hi,
        }
        for p in cfg.p_list:
            record[f"lp{p:g}_a"] = lebesgue_norm(state.a, p)
            record[f"lp{p:g}_u"] = lebesgue_norm(state.u, p)
        for selector, spec in cfg.norms:
            fld = select_field(state, selector)
            if spec.hybrid:
                val = hybrid_norm(fld, spec.s, spec.t, spec.r_low, spec.p, spec.R0)
            else:
                val = besov_norm(fld, spec.s, spec.p, spec.r)
            record[norm_column_name(selector, spec)] = val
        if cfg.holder_alpha is not None:
            if state_holder["snapshots"] % cfg.holder_every == 0:
                rho_field = Field.from_physical(state.grid, state.rho_phys)
                state_holder["holder_last"] = holder_norm(
                    rho_field, cfg.holder_alpha, cfg.holder_radius
                )
            record["holder_rho"] = state_holder.get("holder_last", 0.0)
        state_holder["snapshots"] += 1
        return record

    def observe(observed, extras: dict) -> dict:
        state = observed[0] if twin else observed
        record = measure(state, extras)
        if twin:  # after `measure` frees its arrays; formed earlier, a twin run took 1-2% longer
            other = observed[1]
            diff = stability_difference_norm(other.a - state.a, other.u - state.u, *twin)
            record.update((f"twin_diff_{name}", val) for name, val in diff.items())
        series.append(state.t, record)
        return record

    return observe


def energy_balance_residual(series: DiagnosticSeries) -> dict:
    """r(t) = E(t) + int_0^t D - E(0); max |r|/E(0), absolute when E(0)=0."""
    e = series.column("E")
    diss = series.column("diss_cum")
    r = e + diss - e[0]
    rel = np.max(np.abs(r)) / e[0] if e[0] > 0 else float(np.max(np.abs(r)))
    return {
        "max_abs": float(np.max(np.abs(r))),
        "max_rel": float(rel),
        "normalized": bool(e[0] > 0),
    }


def lyapunov_nonincreasing(series: DiagnosticSeries, tol: float = 1e-6) -> bool:
    """Whether X never grows between snapshots by more than tol * X(0)."""
    x = series.column("X")
    return bool(np.all(np.diff(x) <= tol * x[0]))
