"""cnslab: a pseudo-spectral laboratory for the 3D barotropic compressible
Navier-Stokes system on a periodic box, with the Littlewood-Paley/Besov
function-space toolkit, Helmholtz splitting, and energy/decay diagnostics."""

from .spectral import (
    Field,
    Grid,
    VectorField,
    GridError,
    GridMismatchError,
    PositivityFault,
    constant_field,
    dealias,
    dealiased_product,
    divergence,
    field_from_function,
    gradient,
    laplacian,
    lebesgue_norm,
    make_grid,
    nonlinear_map,
    random_field,
    sobolev_norm,
    to_physical,
    to_spectral,
)
from .lp import (
    CutoffProfile,
    DyadicDecomposition,
    NormSpec,
    active_scale_range,
    bernstein_witness,
    besov_norm,
    bony_decompose,
    chemin_lerner_norm,
    default_profile,
    dyadic_block,
    heat_estimate_witness,
    hybrid_norm,
    low_pass,
    split_low_high,
    truncated_besov_norm,
)
from .helmholtz import (
    HelmholtzSplit,
    auxiliary_w,
    effective_flux,
    lambda_power,
    material_derivative,
    project,
)
from .solver import (
    CFLError,
    FlowState,
    PhysicalParams,
    SolverConfig,
    admissible_ut,
    integrate,
    rhs,
    step,
)
from .diagnostics import (
    DecayFit,
    DiagnosticSeries,
    DiagnosticsConfig,
    LyapunovConstants,
    beta,
    calibrate_lyapunov,
    conlf_rhs,
    fit_decay,
    l4_energy,
    low_freq_mass,
    lyapunov_X,
    relative_entropy,
)
from .scenarios import (
    ScenarioConfig,
    equilibrium_perturbation,
    large_vertical_data,
    oscillating_data,
    stability_pair,
)
from .config import ConfigError, RunConfig, parse_config
from .run import execute_run, resume_run

__version__ = "0.1.0"
