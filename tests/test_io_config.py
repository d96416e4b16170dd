"""Round trips for CSV/JSON/checkpoint files and the config grammar."""

import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from cnslab.config import ConfigError, DEFAULT_CONFIG, RunConfig, config_hash, parse_config
from cnslab.diagnostics import DiagnosticSeries
from cnslab.io import (
    CheckpointError,
    read_checkpoint,
    read_series,
    write_checkpoint,
    write_plot_data,
    write_series,
    write_summary,
)
from cnslab.solver import FlowState, PhysicalParams
from cnslab.spectral import GridError, VectorField, _pdata, make_grid, random_field

PARAMS = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)
ROOT = Path(__file__).parent.parent
CONFIG_TEXTS = {p.name: p.read_text() for p in sorted((ROOT / "configs").glob("*.txt"))}
CONFIG_TEXTS["DEFAULT_CONFIG"] = DEFAULT_CONFIG


def _random_series(seed=0, n=7):
    rng = np.random.default_rng(seed)
    series = DiagnosticSeries()
    for i in range(n):
        series.append(
            float(i) * 0.5,
            {"E": rng.uniform(), "l2_a": rng.uniform(), "a:besov:s=0.5,p=2,r=1": rng.uniform()},
        )
    return series


class TestSeriesCsv:
    def test_round_trip_exact(self, tmp_path):
        series = _random_series()
        path = tmp_path / "series.csv"
        write_series(path, series, "abc123")
        back = read_series(path)
        assert back.times == series.times
        assert back.metadata["config_hash"] == "abc123"
        for key in series.columns:
            assert back.columns[key] == series.columns[key]

    def test_norm_key_columns_with_commas_survive(self, tmp_path):
        series = _random_series()
        path = tmp_path / "series.csv"
        write_series(path, series)
        header = read_series(path).header
        assert "a:besov:s=0.5,p=2,r=1" in header

    def test_fault_annotation_round_trip(self, tmp_path):
        series = _random_series()
        series.fault = {"type": "PositivityFault", "time": 1.5, "message": "boom"}
        path = tmp_path / "series.csv"
        write_series(path, series)
        back = read_series(path)
        assert back.fault == series.fault

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense,header\n1,2\n")
        with pytest.raises(ValueError):
            read_series(path)


class TestSummaryAndPlots:
    def test_summary_is_sorted_deterministic_json(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(path, {"b": 1, "a": {"z": 2.5, "y": None}})
        text = path.read_text()
        assert text == json.dumps({"a": {"y": None, "z": 2.5}, "b": 1},
                                  sort_keys=True, indent=2) + "\n"

    def test_plot_data_two_columns(self, tmp_path):
        path = tmp_path / "plot.dat"
        write_plot_data(path, [0.0, 1.0], [2.0, 3.0], label="t y", config_hash="ff")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=ff"
        assert lines[-1].split() == ["1", "3"]


class TestCheckpoint:
    def _state(self, seed=0):
        grid = make_grid(8, 2.0 * np.pi, 3)
        a = 0.05 * random_field(grid, seed=seed, band=(0.5, 2.0))
        u = VectorField([0.05 * random_field(grid, seed=seed + 1 + i, band=(0.5, 2.0))
                         for i in range(3)])
        return FlowState(0.75, a, u, PARAMS)

    def test_round_trip_bit_exact(self, tmp_path):
        state = self._state()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, "cafe01")
        back, chash = read_checkpoint(path)
        assert chash == "cafe01"
        assert back.t == state.t
        assert back.params == PARAMS
        assert np.array_equal(back.a.data, state.a.data)
        for x, y in zip(back.u, state.u):
            assert np.array_equal(x.data, y.data)

    def test_reads_a_v1_file_of_full_spectra(self, tmp_path):
        # v1 files hold all n^dim modes of each field; the state keeps the half,
        # truncated to the 2/3 ball as every state is
        n, dim, length = 8, 3, 2.0 * np.pi
        rng = np.random.default_rng(11)
        samples = 0.05 * rng.standard_normal((1 + dim,) + (n,) * dim)
        header = struct.pack("<8sIIII5d64s", b"CNSLABCK", 1, n, dim, 0, length, 0.5,
                             PARAMS.mu, PARAMS.lam, PARAMS.gamma, b"beef".ljust(64, b"\0"))
        coeffs = np.fft.fftn(samples, axes=tuple(range(1, dim + 1))) / n**dim
        path = tmp_path / "v1.ckpt"
        path.write_bytes(header + coeffs.astype("<c16").tobytes())
        state, chash = read_checkpoint(path)
        assert chash == "beef" and state.t == 0.5
        grid = state.grid
        for f, raw in zip((state.a, *state.u), samples):
            assert f.data.shape == grid.spectral_shape
            assert np.all(f.data[~grid.dealias_mask] == 0)
            ref = np.fft.irfftn(np.fft.rfftn(raw) * grid.dealias_mask, s=grid.shape,
                                 axes=range(dim))
            assert np.max(np.abs(_pdata(f) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_writes_the_full_spectrum(self, tmp_path):
        state = self._state(seed=3)
        grid = state.grid
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state)
        body = np.frombuffer(path.read_bytes()[struct.calcsize("<8sIIII5d64s"):], dtype="<c16")
        coeffs = body.reshape((1 + grid.dim,) + grid.shape)
        for got, f in zip(coeffs, (state.a, *state.u)):
            ref = np.fft.fftn(_pdata(f)) / grid.n**grid.dim
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_truncated_file_names_expected_bytes(self, tmp_path):
        state = self._state(seed=5)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match=str(len(raw))):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 200)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)


class TestConfigGrammar:
    def test_default_config_parses(self):
        cfg = parse_config(DEFAULT_CONFIG)
        assert cfg.grid_n == 32
        assert cfg.params.gamma == 1.4
        assert cfg.scenario.kind == "equilibrium_perturbation"
        assert cfg.diagnostics.p0_list == [1.0, 2.0]
        assert len(cfg.diagnostics.norms) == 2

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[grid]\nn = 16\nresolution = 8\n")

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[mesh]\nn = 16\n")

    def test_all_problems_reported_at_once(self):
        bad = "[grid]\nn = 10\n[params]\nmu = -1\n[solver]\nscheme = rk9\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.problems) >= 3

    def test_strict_mode_viscosity_check(self):
        text = "[params]\nmu = 1.0\nlambda = 3.0\n[solver]\nstrict_mode = true\n"
        with pytest.raises(ConfigError, match="mu > lambda/2"):
            parse_config(text)

    def test_hash_stable(self):
        assert config_hash("x = 1\n") == config_hash("x = 1\n")
        assert config_hash("x = 1\n") != config_hash("x = 2\n")

    def test_lyapunov_constants_literal(self):
        text = "[diagnostics]\nlyapunov = 1, 2, 3, 4, 5, 6\n"
        cfg = parse_config(text)
        assert cfg.diagnostics.lyapunov.A4 == 4.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n[grid]\nn = 16  # points\n"
        assert parse_config(text).grid_n == 16

    def test_hash_ignores_comments_and_blank_lines(self):
        text = "[grid]\nn = 16\n"
        assert config_hash(text) == config_hash("# header\n\n[grid]  \n  n = 16  # points\n\n")
        assert config_hash(text) != config_hash("[grid]\nn = 24\n")

    @pytest.mark.parametrize("n", [7, 8, 10, 12, 18, 20])
    def test_grid_rule_same_as_grid(self, n):
        text = f"[grid]\nn = {n}\ndim = 2\n"
        try:
            make_grid(n, 8.0 * np.pi, 2)
        except GridError as exc:
            with pytest.raises(ConfigError, match=re.escape(f"[grid] {exc}")):
                parse_config(text)
        else:
            assert parse_config(text).grid_n == n


def _render(echo: dict) -> str:
    """The echo back in the file grammar."""

    def value(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "none"
        if isinstance(v, list):
            return ", ".join(value(x) for x in v)
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value(v)}\n" for key, v in keys.items())
        for section, keys in echo.items()
    )


class TestConfigEcho:
    @pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
    def test_echo_round_trips(self, name):
        cfg = parse_config(CONFIG_TEXTS[name])
        back = parse_config(_render(cfg.echo()))
        assert dataclasses.replace(back, raw_text="") == dataclasses.replace(cfg, raw_text="")

    def test_echo_holds_every_key(self):
        echo = parse_config(CONFIG_TEXTS["large_vertical.txt"]).echo()
        assert echo["diagnostics"]["norms"] == "Pu3:besov:s=0.5,p=2,r=1"
        for key in ("lyapunov", "holder_every", "holder_radius"):
            assert key in echo["diagnostics"]

    def test_echo_keeps_norm_indices_exact(self):
        cfg = parse_config("[diagnostics]\nnorms = a:besov:s=0.3333333,p=2,r=1\n")
        assert parse_config(_render(cfg.echo())).diagnostics == cfg.diagnostics

    def test_readme_grammar_names_the_schema(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Configuration grammar", 1)[1].split("```")[1]
        listed = {}
        for section, body in re.findall(r"^\[(\w+)\]([^\[]*)", block, flags=re.M):
            body = re.sub(r"\([^)]*\)", "", body)
            listed[section] = {k.strip() for k in body.split(",") if k.strip()}
        schema = {section: set(keys) for section, keys in RunConfig().echo().items()}
        assert listed == schema
