"""Persistence: CSV time series, JSON summaries, binary checkpoints, and
gnuplot-ready two-column data files. All writers are deterministic; every file
embeds the config hash."""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticSeries
from .solver import FlowState, PhysicalParams
from .spectral import Field, VectorField, make_grid, _sdata

__all__ = [
    "CheckpointError",
    "write_series",
    "read_series",
    "write_summary",
    "write_checkpoint",
    "read_checkpoint",
    "write_plot_data",
]

_MAGIC = b"CNSLABCK"
_VERSION = 1
_HEADER = struct.Struct("<8sIIII5d64s")  # magic, version, n, dim, strict, L t mu lam gamma, hash


class CheckpointError(RuntimeError):
    """Malformed or truncated checkpoint file."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_series(path, series: DiagnosticSeries, config_hash: str = "") -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        if series.fault is not None:
            fh.write(f"# fault={json.dumps(series.fault, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(series.header)
        cols = list(series.columns.keys())
        for i, t in enumerate(series.times):
            writer.writerow([_fmt(t)] + [_fmt(series.columns[c][i]) for c in cols])


def read_series(path) -> DiagnosticSeries:
    path = Path(path)
    series = DiagnosticSeries()
    with path.open("r", newline="") as fh:
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            if key.strip() == "config_hash":
                series.metadata["config_hash"] = val
            elif key.strip() == "fault":
                series.fault = json.loads(val)
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t":
            raise ValueError(f"{path}: malformed series CSV (missing 't' column)")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row width {len(row)} != header width {len(header)}")
            series.append(float(row[0]), dict(zip(header[1:], map(float, row[1:]))))
    return series


def write_summary(path, summary: dict) -> None:
    Path(path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def write_plot_data(path, xs, ys, label: str = "", config_hash: str = "") -> None:
    """Two-column whitespace data ready for gnuplot."""
    lines = [f"# config_hash={config_hash}"]
    if label:
        lines.append(f"# {label}")
    lines += [f"{_fmt(float(x))} {_fmt(float(y))}" for x, y in zip(xs, ys)]
    Path(path).write_text("\n".join(lines) + "\n")


def _full_spectrum(grid, half: np.ndarray) -> np.ndarray:
    """The full spectrum whose first n//2+1 modes on the last axis are `half`,
    the rest filled in by Hermitian symmetry: full[m0, .., m] for m > n//2 is
    conj(half[-m0, .., n - m]), indices mod n."""
    n, h = grid.n, half.shape[-1]
    neg = (-np.arange(n)) % n
    rows = np.ix_(*([neg] * (grid.dim - 1) + [n - np.arange(h, n)]))
    full = np.empty(grid.shape, dtype=np.complex128)
    full[..., :h] = half
    full[..., h:] = np.conj(half[rows])
    return full


def write_checkpoint(path, state: FlowState, config_hash: str = "") -> None:
    """Fixed header (magic, version, grid dims, box length, time, params)
    followed by the full spectral coefficients (all n^dim modes) of a and the
    velocity components as little-endian complex128 in declared index order."""
    grid = state.grid
    p = state.params
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        grid.n,
        grid.dim,
        0,
        grid.length,
        state.t,
        p.mu,
        p.lam,
        p.gamma,
        config_hash.encode().ljust(64, b"\0")[:64],
    )
    arrays = [state.a] + list(state.u.components)
    with Path(path).open("wb") as fh:
        fh.write(header)
        for f in arrays:
            fh.write(_full_spectrum(grid, _sdata(f)).astype("<c16").tobytes())


def read_checkpoint(path) -> tuple[FlowState, str]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise CheckpointError(
            f"{path}: truncated header ({len(raw)} bytes, need {_HEADER.size})"
        )
    magic, version, n, dim, _strict, length, t, mu, lam, gamma, hash_raw = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    count = n**dim
    expected = _HEADER.size + (1 + dim) * count * 16
    if len(raw) != expected:
        raise CheckpointError(
            f"{path}: expected {expected} bytes for n={n}, dim={dim}, got {len(raw)}"
        )
    grid = make_grid(n, length, dim)
    params = PhysicalParams(mu=mu, lam=lam, gamma=gamma)
    shape = grid.shape
    fields = []
    off = _HEADER.size
    for _ in range(1 + dim):
        arr = np.frombuffer(raw, dtype="<c16", count=count, offset=off).reshape(shape)
        fields.append(Field(grid, arr.astype(np.complex128), "spectral"))  # folds to the half
        off += count * 16
    state = FlowState(t, fields[0], VectorField(fields[1:]), params)
    return state, hash_raw.rstrip(b"\0").decode()
