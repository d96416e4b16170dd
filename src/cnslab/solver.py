"""Time integration of the barotropic compressible Navier-Stokes system in
velocity form on the periodic box.

The constant-coefficient viscous operator mu*Lap u + (lambda+mu)*grad div u is
integrated exactly per Fourier mode (it splits into mu |k|^2 on the
divergence-free part and (lambda+2mu)|k|^2 on the gradient part); transport,
pressure and the variable-density correction are explicit. The one scheme is
the integrating-factor Heun step, `imex2`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectral import (
    Field,
    VectorField,
    PositivityFault,
    _forward_half,
    _inverse_real,
    _pdata,
    _sdata,
    dealias,
    transform_count,
)

__all__ = [
    "PhysicalParams",
    "SolverConfig",
    "FlowState",
    "CFLError",
    "rhs",
    "admissible_ut",
    "step",
    "integrate",
    "dissipation_rate",
    "snapshot_steps",
]


class CFLError(RuntimeError):
    """Fixed-step mode rejected a step exceeding the CFL bound."""


@dataclass(frozen=True)
class PhysicalParams:
    """Constant viscosities and adiabatic exponent; pressure is rho^gamma."""

    mu: float = 1.0
    lam: float = dc_field(default=0.0, metadata={"key": "lambda"})
    gamma: float = 1.4

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu:g}")
        if not self.lam + 2.0 * self.mu > 0:
            raise ValueError(f"need lambda + 2 mu > 0, got {self.lam + 2 * self.mu:g}")
        if not self.gamma >= 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma:g}")

    def validate_strict(self):
        """Extra hypothesis for the L^4 energy / Lyapunov machinery."""
        if not self.mu > 0.5 * self.lam:
            raise ValueError(
                f"strict mode requires mu > lambda/2 (mu={self.mu:g}, lambda={self.lam:g})"
            )


def _uniform_interval(cadence: str) -> float | None:
    """Snapshot interval of a 'uniform:<dt_snap>' cadence, None for
    'geometric'; any other cadence is a ValueError."""
    if cadence == "geometric":
        return None
    kind, _, value = cadence.partition(":")
    try:
        dt_snap = float(value) if kind == "uniform" else math.nan
    except ValueError:
        dt_snap = math.nan
    if not (math.isfinite(dt_snap) and dt_snap > 0):
        raise ValueError(
            f"cadence must be 'geometric' or 'uniform:<positive interval>', got {cadence!r}"
        )
    return dt_snap


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 0.01
    cfl_target: float = dc_field(default=0.4, metadata={"key": "cfl"})
    scheme: str = "imex2"
    T: float = 1.0
    cadence: str = "geometric"  # or "uniform:<dt_snap>"
    adaptive: bool = True
    strict_mode: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.scheme != "imex2":
            raise ValueError(f"unknown scheme {self.scheme!r}; the one scheme is imex2")
        if not 0 < self.cfl_target <= 0.5:
            raise ValueError("cfl_target must lie in (0, 0.5]")
        if self.T < 0:
            raise ValueError("horizon T must be nonnegative")
        _uniform_interval(self.cadence)


@dataclass
class RhsResult:
    da: Field
    n: list  # half spectra of the explicit part N_i; du_i/dt = V_i + N_i
    g: list  # samples of (P_i - a V_i)/rho; V + F[g] truncated is u_dot


class FlowState:
    """(a, u) = (rho - 1, velocity) at one instant, with derived fields cached.

    Every state lies in the 2/3 ball: construction zeroes each mode of a and
    u outside `grid.dealias_mask`, so the RHS, the CFL check, positivity and
    the observer read one set of memoized samples. Construction also checks
    density positivity on those samples; a violation raises PositivityFault
    carrying the time and the minimum sample.
    """

    __slots__ = ("t", "a", "u", "params", "_cache")

    def __init__(self, t: float, a: Field, u: VectorField, params: PhysicalParams):
        self.t = float(t)
        self.a = dealias(a)
        self.u = VectorField([dealias(c) for c in u.components])
        self.params = params
        self._cache = {}
        if self.rho_min <= 0.0:
            raise PositivityFault(
                f"density lost positivity at t={self.t:g} (min rho = {self.rho_min:.6g})",
                min_value=self.rho_min,
                time=self.t,
            )

    @property
    def grid(self):
        return self.a.grid

    @property
    def rho_phys(self) -> np.ndarray:
        """Density samples 1 + a: one addition per read, so not held."""
        return 1.0 + _pdata(self.a)

    @property
    def rho_min(self) -> float:
        return float(np.min(self.rho_phys))

    @property
    def rho_max(self) -> float:
        return float(np.max(self.rho_phys))

    @property
    def frak_a(self) -> Field:
        """rho^gamma - 1, evaluated pointwise and truncated."""
        if "frak_a" not in self._cache:
            self._cache["frak_a"] = dealias(
                Field.from_physical(self.grid, _pressure_excess(_pdata(self.a), self.params.gamma))
            )
        return self._cache["frak_a"]

    @property
    def split(self):
        if "split" not in self._cache:
            from .helmholtz import project

            self._cache["split"] = project(self.u)
        return self._cache["split"]

    @property
    def rhs(self) -> RhsResult:
        if "rhs" not in self._cache:
            self._cache["rhs"] = rhs_full(self, self.params)
        return self._cache["rhs"]

    @property
    def u_t(self) -> VectorField:
        return _plus_viscous(self, self.params, self.rhs.n)

    @property
    def u_dot(self) -> VectorField:
        """Material derivative u_t + (u . grad) u."""
        if "u_dot" not in self._cache:
            parts = [_forward_half(g) * self.grid.dealias_mask for g in self.rhs.g]
            self._cache["u_dot"] = _plus_viscous(self, self.params, parts)
        return self._cache["u_dot"]

    def drop_derived(self):
        """Free the cached derived fields and the memoized samples of a and u;
        they are rebuilt on demand. `_advance` calls it on the state it steps
        once it has read the state's RHS, so a stepped state keeps only its
        spectra; a second step from it re-forms the samples."""
        self._cache.clear()
        for f in (self.a, *self.u.components):
            f._alt = None

    def momentum(self) -> VectorField:
        """The dealiased momentum rho u, formed from the memoized samples."""
        rho = self.rho_phys
        return VectorField(
            [dealias(Field.from_physical(self.grid, rho * _pdata(c))) for c in self.u.components]
        )

    @property
    def mean_a(self) -> float:
        return float(np.real(_sdata(self.a)[(0,) * self.grid.dim]))

    def sound_speed_max(self) -> float:
        g = self.params.gamma
        return math.sqrt(g) * self.rho_max ** ((g - 1.0) / 2.0)


def _pressure_excess(a: np.ndarray, gamma: float) -> np.ndarray:
    """(1 + a)^gamma - 1 from samples of a = rho - 1, accurate to round-off
    in a itself when |a| is tiny (the difference rho^gamma - 1 would keep
    only the digits of a that survive the addition 1 + a)."""
    return np.expm1(gamma * np.log1p(a))


def rhs_full(state: FlowState, params: PhysicalParams) -> RhsResult:
    """Nonconservative-form right-hand side with dealiased products:

    da/dt = -div((1+a) u)
    du/dt = V + N,  N = (P - a V)/rho - (u.grad)u

    V = mu Lap u + (lambda+mu) grad div u is the viscous image the step
    integrates exactly, P = -grad(rho^gamma - 1). N is returned as formed,
    not as du/dt less an O(1) V, so a tiny N keeps its digits.

    The state's spectra lie in the 2/3 ball, so the RHS reads its memoized
    samples (shared with the CFL check and the observer) and truncates only
    products.
    """
    grid = state.grid
    mask, ik = grid.dealias_mask, grid.ik

    u_hat = [_sdata(c) for c in state.u.components]
    u_p = [_pdata(c) for c in state.u.components]
    a_p = _pdata(state.a)

    # mass equation: -div(u + a u). u enters spectrally, so the product keeps
    # the digits of a tiny a riding on an O(1) u; ik is zero at k = 0, so
    # the mean of a is conserved exactly
    da_hat = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for ax in range(grid.dim):
        da_hat -= ik[ax] * (u_hat[ax] + _forward_half(a_p * u_p[ax]))
    da_hat *= mask

    # V and P each get their own inverse; one forward transform per component
    visc_hat = _linear_viscous_hat(grid, params, u_hat)
    frak_hat = _sdata(state.frak_a)
    inv_rho = 1.0 / state.rho_phys
    n, g = [], []
    for i in range(grid.dim):
        g_i = _inverse_real(grid, -ik[i] * frak_hat)  # the pressure force P_i
        g_i -= a_p * _inverse_real(grid, visc_hat[i])
        g_i *= inv_rho
        g.append(g_i)
        visc_hat[i] = None  # each image is read once: free it before the next
        conv = sum(u_p[j] * _inverse_real(grid, ik[j] * u_hat[i]) for j in range(grid.dim))
        n.append(_forward_half(np.subtract(g_i, conv, out=conv)) * mask)
        del conv
    return RhsResult(da=Field(grid, da_hat, "spectral"), n=n, g=g)


def _plus_viscous(state: FlowState, params: PhysicalParams, parts) -> VectorField:
    """The fields V + part_i, with V the viscous image of the state's u."""
    visc_hat = _linear_viscous_hat(state.grid, params, [_sdata(c) for c in state.u.components])
    return VectorField([Field(state.grid, v + p, "spectral") for v, p in zip(visc_hat, parts)])


def rhs(state: FlowState, params: PhysicalParams):
    """(da/dt, du/dt) at the given state; du/dt = V + N is formed here."""
    r = rhs_full(state, params)
    return r.da, _plus_viscous(state, params, r.n)


def admissible_ut(a0: Field, u0: VectorField, params: PhysicalParams) -> VectorField:
    """Momentum right-hand side at t=0: the compatibility value of u_t for
    smooth solutions. Identical to rhs(...)[1] by construction."""
    return FlowState(0.0, a0, u0, params).u_t


# ---------------------------------------------------------------------------
# IMEX stepping

def _viscous_exponential(grid, params: PhysicalParams, dt: float):
    """(dec_p, dq): the decay exp(-mu |k|^2 dt) of the divergence-free part,
    and the difference of the gradient part's decay from it over |k|^2."""
    dec_p = np.exp(-params.mu * grid.k2 * dt)
    dec_q = np.exp(-(params.lam + 2.0 * params.mu) * grid.k2 * dt)
    return dec_p, (dec_q - dec_p) * grid.inv_k2


def _viscous_kernel(grid, alpha, beta, u_hats):
    """alpha u + beta k (k.u) per mode, k = grid.k_odd. The viscous image is
    alpha = -mu |k|^2, beta = -(lambda+mu); its exponential over a step is
    (alpha, beta) = (dec_p, dq) from `_viscous_exponential`."""
    k = grid.k_odd
    k_dot_u = sum(k[ax] * u_hats[ax] for ax in range(grid.dim))
    return [alpha * u_hats[ax] + beta * k[ax] * k_dot_u for ax in range(grid.dim)]


def _linear_viscous_hat(grid, params, u_hats):
    """Spectral image of mu Lap u + (lambda+mu) grad div u."""
    return _viscous_kernel(grid, -params.mu * grid.k2, -(params.lam + params.mu), u_hats)


def _advance(state: FlowState, dt: float, factors, params: PhysicalParams):
    """One integrating-factor Heun (imex2) step of size dt, with `factors` the
    viscous exponential over dt. The explicit rates of `rhs_full` lie in the
    2/3 ball, so the step keeps the state there.

    The step holds only what it still reads. Once it has the input's rates
    it drops the input's derived arrays (`FlowState.drop_derived`), and it
    frees the rates once the midpoint is formed. The midpoint keeps the one
    dealiased copy of its spectra, and it is freed, samples and RHS, before
    the new state is built."""
    grid = state.grid
    a_hat = _sdata(state.a)
    u_hats = [_sdata(c) for c in state.u.components]

    da1, nu1 = _sdata(state.rhs.da), state.rhs.n
    state.drop_derived()  # the step reads only the spectra and these rates
    a_star = a_hat + dt * da1
    u_star = _viscous_kernel(
        grid, *factors, [u_hats[ax] + dt * nu1[ax] for ax in range(grid.dim)]
    )
    del da1, nu1
    mid = FlowState(
        state.t + dt,
        Field(grid, a_star, "spectral"),
        VectorField([Field(grid, uh, "spectral") for uh in u_star]),
        params,
    )
    del a_star, u_star  # mid holds their dealiased copies; read those back
    da2, nu2 = _sdata(mid.rhs.da), mid.rhs.n
    a_star, u_star = _sdata(mid.a), [_sdata(c) for c in mid.u.components]
    del mid  # free its samples and RHS before the new state is built: peak memory
    u_n_decayed = _viscous_kernel(grid, *factors, u_hats)
    a_new = 0.5 * a_hat + 0.5 * (a_star + dt * da2)
    u_new = [
        0.5 * u_n_decayed[ax] + 0.5 * (u_star[ax] + dt * nu2[ax])
        for ax in range(grid.dim)
    ]
    del u_n_decayed, a_star, u_star, da2, nu2
    return FlowState(
        state.t + dt,
        Field(grid, a_new, "spectral"),
        VectorField([Field(grid, uh, "spectral") for uh in u_new]),
        params,
    )


def cfl_dt_bound(state: FlowState, config: SolverConfig) -> float:
    umax = float(np.max(np.sqrt(sum(_pdata(c) ** 2 for c in state.u.components))))
    return config.cfl_target * state.grid.dx / (umax + state.sound_speed_max())


def step(state: FlowState, config: SolverConfig, params: PhysicalParams) -> FlowState:
    """Advance by config.dt in equal substeps: one when dt is within the CFL
    bound, ceil(dt/bound) otherwise in adaptive mode; fixed mode raises
    CFLError instead. The viscous exponential is formed once per call."""
    bound = cfl_dt_bound(state, config)
    within = config.dt <= bound * (1.0 + 1e-12)
    if not (within or config.adaptive):
        raise CFLError(
            f"dt={config.dt:g} exceeds CFL bound {bound:.6g} at t={state.t:g}"
        )
    nsub = 1 if within else int(math.ceil(config.dt / bound))
    sub = config.dt / nsub
    factors = _viscous_exponential(state.grid, params, sub)
    for _ in range(nsub):
        state = _advance(state, sub, factors, params)
    return state


def dissipation_rate(state: FlowState, params: PhysicalParams) -> float:
    """D = mu ||grad u||_L2^2 + (lambda+mu) ||div u||_L2^2, spectrally (half
    spectrum, Hermitian weights)."""
    grid = state.grid
    u_hats = [_sdata(c) for c in state.u.components]
    grad_sq = float(np.sum(grid.w * grid.k2 * sum(np.abs(h) ** 2 for h in u_hats)))
    k_dot_u = sum(grid.k[ax] * u_hats[ax] for ax in range(grid.dim))
    div_sq = float(np.sum(grid.w * np.abs(k_dot_u) ** 2))
    return grid.volume * (params.mu * grad_sq + (params.lam + params.mu) * div_sq)


def snapshot_steps(config: SolverConfig) -> list[int]:
    """Step indices at which snapshots are recorded. Geometric cadence places
    targets at t_n = 2^(n/4) - 1 snapped to the dt grid; 'uniform:<dt>' places
    them every round(dt_snap/dt) steps. Step 0 and the final step are always
    included."""
    total = int(round(config.T / config.dt))
    if total == 0:
        return [0]
    picks = {0, total}
    dt_snap = _uniform_interval(config.cadence)
    if dt_snap is None:
        n = 0
        while True:
            t = 2.0 ** (n / 4.0) - 1.0
            if t > config.T:
                break
            picks.add(min(total, int(round(t / config.dt))))
            n += 1
    else:
        stride = max(1, int(round(dt_snap / config.dt)))
        picks.update(range(0, total + 1, stride))
    return sorted(picks)


def _step_or_fault(state: FlowState, config: SolverConfig, params: PhysicalParams):
    """step(state, ...), or the runtime fault it raised."""
    try:
        return step(state, config, params)
    except (PositivityFault, CFLError) as exc:
        return exc


def integrate(
    state0,
    config: SolverConfig,
    params: PhysicalParams,
    observe=None,
    on_snapshot=None,
    counters: dict | None = None,
):
    """March to the horizon, invoking `observe(state, extras)` at the snapshot
    cadence. Returns (records, final_state, fault); on a runtime fault the
    partial records are returned with the fault descriptor, whose time is
    that of the last state reached, before the failing step.

    state0 may be a tuple of states (a twin pair): the members step in
    lockstep, `observe` and `on_snapshot` receive the tuple, and the final
    states come back as a tuple. The dissipation integral follows the first
    member. The members must be distinct states: between snapshots they are
    independent, and member 0 steps
    on the calling thread while the others step on worker threads (numpy's
    large-array ufuncs and scipy's transforms release the GIL); each step
    writes only its own state. A single state takes no thread. When several
    members fault in one step, the fault recorded is that of the first, as
    in a serial loop.

    Stepping starts at step index round(t0/dt) of the horizon's step grid, so
    a continued state lands on the snapshots of an uninterrupted run. After
    step k the time is set to t_origin + k*dt, with t_origin = t0 - k0*dt
    (zero for a state on the grid), not summed over substeps. extras carries
    the accumulated dissipation integral (trapezoidal at step boundaries), so
    energy-balance residuals refine at the scheme's order.

    A `counters` dict receives the deterministic counts of the run: steps
    taken, snapshots taken, and the real transforms made while stepping and
    while observing (`spectral.transform_count`). The counts are exact with
    concurrent members (the transform count is locked), so a pair counts the
    sum of its members' single runs; a step that faults counts every
    member's attempt. At a snapshot the first member's RHS, which the
    observer reads through `u_dot` and the next step reuses, is formed before
    the observer runs and counts as stepping. The other members form theirs
    in their own step, so the observer's peak does not hold them.
    """
    if config.strict_mode:
        params.validate_strict()
    batch = isinstance(state0, tuple)
    states = state0 if batch else (state0,)
    if len(set(map(id, states))) < len(states):
        raise ValueError("the members of a pair must be distinct states")
    dt = config.dt
    start = int(round(states[0].t / dt))
    origin = states[0].t - start * dt
    last = int(round(config.T / dt))
    snaps = set(snapshot_steps(config))
    records = []
    fault = None
    diss_cum = 0.0
    d_prev = dissipation_rate(states[0], params)
    counters = {} if counters is None else counters
    counters.update(steps=0, snapshots=0, transforms_stepping=0, transforms_observe=0)

    def take(istep):
        current = states if batch else states[0]
        extras = {"diss_cum": diss_cum, "step": istep, "dt": dt}
        before = transform_count()
        if istep < last:
            states[0].rhs  # memoized on the state for the next step
            counters["transforms_stepping"] += transform_count() - before
            before = transform_count()
        if observe is not None:
            records.append(observe(current, extras))
        if on_snapshot is not None:
            on_snapshot(current, istep)
        counters["snapshots"] += 1
        counters["transforms_observe"] += transform_count() - before

    take(start)
    pool = (concurrent.futures.ThreadPoolExecutor(max_workers=len(states) - 1)
            if len(states) > 1 else contextlib.nullcontext())
    with pool:
        for istep in range(start + 1, last + 1):
            before = transform_count()
            others = [pool.submit(_step_or_fault, s, config, params) for s in states[1:]]
            stepped = [_step_or_fault(states[0], config, params)]
            stepped += [f.result() for f in others]
            counters["transforms_stepping"] += transform_count() - before
            exc = next((r for r in stepped if isinstance(r, Exception)), None)
            if exc is not None:
                fault = {"type": type(exc).__name__, "time": states[0].t, "message": str(exc)}
                break
            counters["steps"] += 1
            states = tuple(stepped)
            for s in states:
                s.t = origin + istep * dt
            d_new = dissipation_rate(states[0], params)
            diss_cum += 0.5 * dt * (d_prev + d_new)
            d_prev = d_new
            if istep in snaps:
                take(istep)
    return records, (states if batch else states[0]), fault
