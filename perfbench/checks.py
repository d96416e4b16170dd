"""Property checks on the outputs of one run. Each check returns a list of
failure messages (empty when the property holds). None of them compares
against a stored copy of earlier output: they test properties the method
must have, and recompute the final row from the checkpoint with numpy alone.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

_CKPT_HEADER = struct.Struct("<8sIIII5d64s")


def read_series(path) -> tuple[dict, dict | None]:
    """(columns, fault) of a series CSV; columns map name -> float array."""
    fault = None
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(line)
            elif line.startswith("# fault="):
                fault = json.loads(line[len("# fault="):])
    table = list(csv.reader(rows))
    header, body = table[0], table[1:]
    cols = {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}
    return cols, fault


def read_checkpoint(path) -> dict:
    """Time, physical samples of a and u, gamma and the cell volume, parsed
    from the checkpoint bytes."""
    raw = Path(path).read_bytes()
    magic, _version, n, dim, _strict, length, t, _mu, _lam, gamma, _hash = _CKPT_HEADER.unpack(
        raw[: _CKPT_HEADER.size]
    )
    if magic != b"CNSLABCK":
        raise ValueError(f"{path}: not a checkpoint")
    count = n**dim
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_CKPT_HEADER.size).reshape(1 + dim, *(n,) * dim)
    samples = np.real(np.fft.ifftn(coeffs, axes=tuple(range(1, dim + 1)))) * count
    return {"t": t, "a": samples[0], "u": samples[1:], "gamma": gamma,
            "cell": (length / n) ** dim}


def final_state_values(ckpt: dict) -> dict:
    """Energy E = int H(rho|1) + rho|u|^2/2 and l2_au = |(||a||_2, ||u||_2)|."""
    a, u, g, cell = ckpt["a"], ckpt["u"], ckpt["gamma"], ckpt["cell"]
    rho = 1.0 + a
    u2 = np.sum(u**2, axis=0)
    if g == 1.0:
        h = rho * np.log(rho) - rho + 1.0
    else:
        h = (rho**g - 1.0 - g * (rho - 1.0)) / (g - 1.0)
    energy = float(np.sum(h + 0.5 * rho * u2) * cell)
    l2_au = float(np.hypot(np.sqrt(np.sum(a**2) * cell), np.sqrt(np.sum(u2) * cell)))
    return {"E": energy, "l2_au": l2_au}


def no_fault(cols, fault, summary) -> list[str]:
    out = []
    if fault is not None or summary.get("fault") is not None:
        out.append(f"fault recorded: {fault or summary.get('fault')}")
    if not np.all(cols["rho_min"] > 0):
        out.append(f"rho_min <= 0 at t={cols['t'][np.argmin(cols['rho_min'])]:g}")
    return out


def mean_conserved(cols, tol: float = 1e-15) -> list[str]:
    drift = float(np.max(np.abs(cols["mean_a"] - cols["mean_a"][0])))
    return [] if drift <= tol else [f"mean_a drifts by {drift:.3g} (> {tol:g})"]


def energy_balance(cols, bound: float) -> list[str]:
    """max |E(t) + int_0^t D - E(0)| / E(0) below the workload's bound."""
    e, diss = cols["E"], cols["diss_cum"]
    rel = float(np.max(np.abs(e + diss - e[0])) / e[0])
    return [] if rel < bound else [f"energy residual max_rel {rel:.3g} >= {bound:g}"]


def final_row_matches(cols, ckpt: dict, rtol: float = 1e-9) -> list[str]:
    out = []
    if abs(ckpt["t"] - cols["t"][-1]) > 1e-12:
        out.append(f"checkpoint time {ckpt['t']!r} != last row {cols['t'][-1]!r}")
    for key, want in final_state_values(ckpt).items():
        got = cols[key][-1]
        if not abs(got - want) <= rtol * abs(want):
            out.append(f"last-row {key} = {got!r}, checkpoint gives {want!r}")
    return out


def vertical_bounded(cols, key: str = "Pu3:besov:s=0.5,p=2,r=1") -> list[str]:
    """Criterion 11: the critical norm of Pu3 stays within twice its start."""
    col = cols[key]
    return [] if np.all(col <= 2.0 * col[0]) else [
        f"{key} reaches {col.max():.6g} > 2 x {col[0]:.6g}"]


def twins_stable(cols, eps_pert: float) -> list[str]:
    """Criterion 10: the twin difference stays within 10 eps_pert and ends
    below its largest value."""
    diff = cols["twin_diff_total"]
    out = []
    if not diff.max() <= 10.0 * eps_pert:
        out.append(f"twin difference {diff.max():.3g} > 10 eps_pert = {10 * eps_pert:g}")
    if not diff[-1] < diff.max():
        out.append(f"final twin difference {diff[-1]:.6g} is its maximum")
    return out


def lyapunov_monotone(cols, rel: float = 1e-6) -> list[str]:
    """Criterion 7: X is nonincreasing to within rel * X(0)."""
    x = cols["X"]
    rise = float(np.max(np.diff(x))) if len(x) > 1 else 0.0
    return [] if rise <= rel * x[0] else [f"X rises by {rise:.3g} (> {rel:g} X(0))"]


def helmholtz_pythagoras(cols, spec: str = "besov:s=0.5,p=2,r=2", rtol: float = 1e-12) -> list[str]:
    """P and Q commute with the radial block multipliers and are orthogonal
    per mode, so B(u)^2 = B(Pu)^2 + B(Qu)^2 for p = r = 2."""
    u, pu, qu = (cols[f"{f}:{spec}"] for f in ("u", "Pu", "Qu"))
    err = float(np.max(np.abs(u**2 - pu**2 - qu**2) / u**2))
    return [] if err <= rtol else [f"B(u)^2 - B(Pu)^2 - B(Qu)^2 relative error {err:.3g}"]


def check_outputs(workload, outdir) -> list[str]:
    """Every property check that applies to the workload's outputs: the
    common ones, then those the workload names in `checks`."""
    outdir = Path(outdir)
    cols, fault = read_series(outdir / "series.csv")
    summary = json.loads((outdir / "summary.json").read_text())
    problems = no_fault(cols, fault, summary)
    problems += mean_conserved(cols)
    problems += energy_balance(cols, workload.energy_rel_max)
    named = {
        "final_row": lambda: final_row_matches(cols, read_checkpoint(outdir / "final.ckpt")),
        "vertical_bounded": lambda: vertical_bounded(cols),
        "twins_stable": lambda: twins_stable(cols, summary["eps_pert"]),
        "lyapunov_monotone": lambda: lyapunov_monotone(cols),
        "helmholtz_pythagoras": lambda: helmholtz_pythagoras(cols),
    }
    for name in workload.checks:
        problems += named[name]()
    return problems
