"""Plain-text run configuration: [section] headers with key = value lines,
'#' comments, validated whole before any allocation. Each key is declared
once, on the dataclass field that holds it; parsing, defaults and the summary
echo derive from the fields. Field metadata may give the file "key", on
RunConfig the "section" (its dataclass-valued fields are whole sections named
after the field), and a "parse"/"echo" pair for a grammar other than the
field type's."""

from __future__ import annotations

import hashlib
import math
from copy import copy
from dataclasses import dataclass, field as dc_field, fields, is_dataclass

from .diagnostics import DiagnosticsConfig
from .scenarios import ScenarioConfig
from .solver import PhysicalParams, SolverConfig
from .spectral import check_grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "config_hash", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """One or more invalid configuration entries; exit code 2 at the CLI."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _as_float_list(raw: str) -> list:
    return [float(x) for x in raw.split(",") if x.strip()]


def _as_optional_float(raw: str):
    return None if raw in ("", "none") else float(raw)


# converters of the field types; a value echoes as a copy of itself
_CONVERT = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _as_bool,
    "list[float]": _as_float_list,
    "float | None": _as_optional_float,
}


def _parse_fit_window(raw: str):
    """'none' or empty for the default window, else two times."""
    if raw in ("", "none"):
        return None
    vals = _as_float_list(raw)
    if len(vals) != 2:
        raise ValueError("fit_window needs exactly two times")
    return (vals[0], vals[1])


def _echo_fit_window(window):
    return None if window is None else list(window)


def _parse_formats(raw: str) -> tuple:
    formats = tuple(x.strip() for x in raw.split(",") if x.strip())
    for f in formats:
        if f not in ("csv", "json", "checkpoint", "plots"):
            raise ValueError(f"unknown format {f!r}")
    return formats


_echo_formats = list


@dataclass
class RunConfig:
    grid_n: int = dc_field(default=32, metadata={"section": "grid", "key": "n"})
    grid_L: float = dc_field(default=8.0 * math.pi, metadata={"section": "grid", "key": "L"})
    grid_dim: int = dc_field(default=3, metadata={"section": "grid", "key": "dim"})
    params: PhysicalParams = dc_field(default_factory=PhysicalParams)
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    scenario: ScenarioConfig = dc_field(default_factory=ScenarioConfig)
    diagnostics: DiagnosticsConfig = dc_field(default_factory=DiagnosticsConfig)
    fit_norm: str = dc_field(default="l2_au", metadata={"section": "diagnostics"})
    fit_window: tuple | None = dc_field(default=None, metadata={
        "section": "diagnostics", "parse": _parse_fit_window, "echo": _echo_fit_window})
    out_directory: str = dc_field(
        default="out", metadata={"section": "output", "key": "directory"})
    out_formats: tuple = dc_field(default=("csv", "json", "checkpoint"), metadata={
        "section": "output", "key": "formats", "parse": _parse_formats, "echo": _echo_formats})
    # 0: final checkpoint only
    checkpoint_every: int = dc_field(default=0, metadata={"section": "output"})
    raw_text: str = ""

    def echo(self) -> dict:
        """Every key of the grammar with its value, by section."""
        return {
            section: {
                key: echo(getattr(getattr(self, owner) if owner else self, f.name))
                for key, (owner, f, _, echo) in keys.items()
            }
            for section, keys in _KEYS.items()
        }


_SECTIONS = [  # (RunConfig attribute, section dataclass)
    (f.name, f.default_factory) for f in fields(RunConfig) if is_dataclass(f.default_factory)
]


def _build_keys() -> dict:
    """{section: {file key: (owner, field, parse, echo)}}; owner is the RunConfig
    attribute holding the section's dataclass, None for RunConfig's own
    fields. A field type without a converter fails here, at import."""
    keys: dict = {}

    def add(section, owner, f):
        key = f.metadata.get("key", f.name)
        parse = f.metadata.get("parse") or _CONVERT[f.type]
        keys.setdefault(section, {})[key] = (owner, f, parse, f.metadata.get("echo", copy))

    for section, cls in _SECTIONS:
        for f in fields(cls):
            add(section, section, f)
    for f in fields(RunConfig):
        if "section" in f.metadata:
            add(f.metadata["section"], None, f)
    return keys


_KEYS = _build_keys()


def _config_lines(text: str):
    """(line number, line) for each line the grammar reads: comments cut at
    '#', whitespace stripped, blank lines dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_sections(text: str):
    problems = []
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, line in _config_lines(text):
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in _KEYS:
                sections.setdefault(current, {})
            else:
                problems.append(f"line {lineno}: unknown section [{current}]")
                current = None
        elif not eq:
            problems.append(f"line {lineno}: expected key = value, got {line!r}")
        elif current is None:
            problems.append(f"line {lineno}: key outside any valid section")
        elif key not in _KEYS[current]:
            problems.append(f"line {lineno}: unknown key {key!r} in section [{current}]")
        elif key in sections[current]:
            problems.append(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        else:
            sections[current][key] = val
    return sections, problems


def parse_config(text: str) -> RunConfig:
    sections, problems = _parse_sections(text)

    def collect(section, check, *args, **kwargs):
        try:
            return check(*args, **kwargs)
        except ValueError as exc:
            problems.append(f"[{section}] {exc}")

    # keyword arguments by owner (None: RunConfig); absent keys keep defaults
    kwargs: dict = {}
    for section, given in sections.items():
        for key, raw in given.items():
            owner, f, parse, _ = _KEYS[section][key]
            try:
                kwargs.setdefault(owner, {})[f.name] = parse(raw)
            except (ValueError, TypeError) as exc:
                problems.append(f"[{section}] {key} = {raw!r}: {exc}")
    top = kwargs.get(None, {})
    for section, cls in _SECTIONS:
        top[section] = collect(section, cls, **kwargs.get(section, {})) or cls()
    cfg = RunConfig(**top, raw_text=text)
    if cfg.solver.strict_mode:
        collect("params", cfg.params.validate_strict)
    collect("grid", check_grid, cfg.grid_n, cfg.grid_L, cfg.grid_dim)
    if cfg.checkpoint_every < 0:
        problems.append(f"[output] checkpoint_every must be >= 0, got {cfg.checkpoint_every}")
    if problems:
        raise ConfigError(problems)
    return cfg


def config_hash(text: str) -> str:
    """SHA-256 of the lines the grammar reads, so comment and blank-line
    edits keep the hash."""
    normal = "\n".join(line for _, line in _config_lines(text))
    return hashlib.sha256(normal.encode()).hexdigest()


DEFAULT_CONFIG = """\
[grid]
n = 32
L = 25.132741228718345   # 8*pi
dim = 3

[params]
mu = 1.0
lambda = 0.0
gamma = 1.4

[solver]
dt = 0.02
cfl = 0.4
scheme = imex2
T = 2.0
cadence = geometric
adaptive = true
strict_mode = true

[scenario]
kind = equilibrium_perturbation
epsilon = 0.01
p0 = 1.0
seed = 7

[diagnostics]
norms = a:besov:s=0.5,p=2,r=1; u:besov:s=0.5,p=2,r=1
p_list = 2
p0_list = 1, 2
C_split = 1.0
R0 = 1.0
lyapunov = calibrate

[output]
directory = out
formats = csv,json,checkpoint
"""
