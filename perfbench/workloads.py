"""Workload definitions: the config text each workload runs, generated from
the workload seed, and the bounds its property checks use.

The workload seed only shifts the scenario seed: `--seed 0` gives the scenario
seed of the matching config in `configs/`, so seed 0 of `vertical48` and
`twins32` draws the same initial data as `large_vertical.txt` and
`stability_twins.txt` (on a shorter horizon and with the extra diagnostics
listed below).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    base_seed: int
    horizon: float
    # bound on the energy-balance residual max_rel: criterion 6 allows 1e-3
    # at dt=0.02; the dt=0.05 workloads carry a larger O(dt^2) residual.
    # Seeds 0-9 reach at most 5.5e-4 (vertical48), 4.8e-3 (twins32) and
    # 5.1e-4 (diag32).
    energy_rel_max: float
    # workload-specific checks, by name in checks.py; the stability path
    # writes no final checkpoint, so twins32 has no "final_row"
    checks: tuple

    def config_text(self, seed: int, horizon: float | None = None) -> str:
        return self.template.format(
            seed=self.base_seed + seed,
            T=self.horizon if horizon is None else horizon,
        )


# Every workload records a Hoelder column, a p=4 Besov column and a hybrid
# norm, so each per-layer time is measured (and nonzero) on every workload.

VERTICAL48 = Workload(
    name="vertical48",
    template="""\
# configs/large_vertical.txt on a shorter horizon, plus one hybrid, one
# p=4 Besov and a Hoelder column every fourth snapshot.
[grid]
n = 48
L = 25.132741228718345
dim = 3

[params]
mu = 1.0
lambda = 0.0
gamma = 1.4

[solver]
dt = 0.05
cfl = 0.4
scheme = imex2
T = {T}
cadence = geometric
adaptive = true
strict_mode = true

[scenario]
kind = large_vertical
epsilon = 0.01
vertical_amplitude = 1.0
p = 2.0
smallness_constant = 1.0
seed = {seed}

[diagnostics]
norms = Pu3:besov:s=0.5,p=2,r=1; a:hybrid:s=0.5,t=1.5,r=2,p=2,R0=1; a:besov:s=0.75,p=4,r=1
p_list = 2
p0_list = 1
holder_alpha = 0.25
holder_every = 4
holder_radius = 2

[output]
directory = out/vertical48
formats = csv,json,checkpoint
""",
    base_seed=13,
    horizon=1.0,
    energy_rel_max=2e-3,
    checks=("final_row", "vertical_bounded"),
)

TWINS32 = Workload(
    name="twins32",
    template="""\
# configs/stability_twins.txt on a shorter horizon, plus one p=4 Besov
# column and a Hoelder column every fourth snapshot.
[grid]
n = 32
L = 25.132741228718345
dim = 3

[params]
mu = 1.0
lambda = 0.0
gamma = 1.4

[solver]
dt = 0.05
cfl = 0.4
scheme = imex2
T = {T}
cadence = geometric
adaptive = true
strict_mode = true

[scenario]
kind = stability_pair
epsilon = 0.01
eps_pert = 0.001
p0 = 1.0
p = 2.0
R0 = 1.0
seed = {seed}

[diagnostics]
norms = a:besov:s=0.75,p=4,r=1
p_list = 2
p0_list = 1
holder_alpha = 0.25
holder_every = 4
holder_radius = 2

[output]
directory = out/twins32
formats = csv,json
""",
    base_seed=5,
    horizon=1.0,
    energy_rel_max=1e-2,
    checks=("twins_stable",),
)

DIAG32 = Workload(
    name="diag32",
    template="""\
# Small equilibrium perturbation observed at every step with every norm
# family: Besov p=2 and p=4, hybrid, Hoelder, Lyapunov, low-frequency mass,
# and p=2, r=2 Besov columns of u, Pu and Qu.
[grid]
n = 32
L = 25.132741228718345
dim = 3

[params]
mu = 1.0
lambda = 0.0
gamma = 1.4

[solver]
dt = 0.02
cfl = 0.4
scheme = imex2
T = {T}
cadence = uniform:0.02
adaptive = true
strict_mode = true

[scenario]
kind = equilibrium_perturbation
epsilon = 0.01
p0 = 1.0
seed = {seed}

[diagnostics]
norms = u:besov:s=0.5,p=2,r=2; Pu:besov:s=0.5,p=2,r=2; Qu:besov:s=0.5,p=2,r=2; a:besov:s=0.5,p=2,r=1; u:besov:s=0.5,p=4,r=1; a:hybrid:s=0.5,t=1.5,r=2,p=2,R0=1
p_list = 2, 4
p0_list = 1, 2
C_split = 1.0
R0 = 1.0
lyapunov = calibrate
holder_alpha = 0.25
holder_every = 1

[output]
directory = out/diag32
formats = csv,json,checkpoint
""",
    base_seed=7,
    horizon=0.5,
    energy_rel_max=1e-3,
    checks=("final_row", "lyapunov_monotone", "helmholtz_pythagoras"),
)

WORKLOADS = {w.name: w for w in (VERTICAL48, TWINS32, DIAG32)}
