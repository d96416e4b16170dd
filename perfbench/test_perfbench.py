"""Tests of the benchmark itself: its property checks catch a series altered
in one row, the twin loop agrees with the single-run loop, and the traced run
reaches every layer it reports.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import csv
import importlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import DIAG32, TWINS32, VERTICAL48, WORKLOADS  # noqa: E402

bench_run = importlib.import_module("run")
cnslab_run = importlib.import_module("cnslab.run")
from cnslab.config import parse_config  # noqa: E402
from cnslab.diagnostics import DiagnosticSeries, make_observer  # noqa: E402
from cnslab.scenarios import build_scenario  # noqa: E402
from cnslab.solver import integrate  # noqa: E402
from cnslab.spectral import make_grid  # noqa: E402

# short horizons that still leave several snapshots
SHORT = {"vertical48": 0.25, "twins32": 0.5, "diag32": 0.1}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of a short run of every workload, written once."""
    dirs = {}
    for name, workload in WORKLOADS.items():
        out = tmp_path_factory.mktemp(name)
        cfg = parse_config(workload.config_text(0, horizon=SHORT[name]))
        cnslab_run.execute_run(cfg, outdir=out)
        dirs[name] = out
    return dirs


def _altered(src: Path, dst: Path, column: str, row: int, change) -> Path:
    """Copy of the run outputs with one cell of series.csv changed."""
    shutil.copytree(src, dst)
    path = dst / "series.csv"
    lines = path.read_text().splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    col = table[0].index(column)
    body = table[1:]
    body[row][col] = repr(change(float(body[row][col])))
    with path.open("w", newline="") as fh:
        fh.writelines(comments)
        csv.writer(fh).writerows([table[0], *body])
    return dst


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_unaltered_outputs(outputs, name):
    assert checks.check_outputs(WORKLOADS[name], outputs[name]) == []


# (workload, column, row, change, words expected in the failure)
ALTERATIONS = [
    ("diag32", "rho_min", 2, lambda v: -v, "rho_min"),
    ("diag32", "mean_a", 3, lambda v: v + 1e-12, "mean_a"),
    ("vertical48", "E", 2, lambda v: v * (1 + 0.01), "energy residual"),
    ("twins32", "E", 1, lambda v: v * (1 + 0.05), "energy residual"),
    ("vertical48", "E", -1, lambda v: v * (1 + 1e-6), "last-row E"),
    ("diag32", "l2_au", -1, lambda v: v * (1 + 1e-6), "last-row l2_au"),
    ("vertical48", "Pu3:besov:s=0.5,p=2,r=1", 2, lambda v: 3 * v, "Pu3"),
    ("twins32", "twin_diff_total", 2, lambda v: 0.02, "10 eps_pert"),
    ("twins32", "twin_diff_total", -1, lambda v: 0.005, "is its maximum"),
    ("diag32", "X", 3, lambda v: 2 * v, "X rises"),
    ("diag32", "Pu:besov:s=0.5,p=2,r=2", 2, lambda v: v * (1 + 1e-9), "B(u)^2"),
]


@pytest.mark.parametrize("name,column,row,change,words", ALTERATIONS)
def test_each_check_fails_on_one_altered_row(outputs, tmp_path, name, column, row, change, words):
    altered = _altered(outputs[name], tmp_path / "out", column, row, change)
    problems = checks.check_outputs(WORKLOADS[name], altered)
    assert any(words in p for p in problems), problems


def test_fault_line_fails_the_check(outputs, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(outputs["diag32"], dst)
    series = dst / "series.csv"
    lines = series.read_text().splitlines()
    lines.insert(1, '# fault={"type": "PositivityFault", "time": 0.04}')
    series.write_text("\n".join(lines) + "\n")
    problems = checks.check_outputs(DIAG32, dst)
    assert any("fault recorded" in p for p in problems), problems


def test_twin_reference_equals_single_run():
    """run_pair and integrate are separate loops; the reference columns of
    the pair must equal a single integrate run of the same initial state."""
    cfg = parse_config(TWINS32.config_text(0, horizon=1.0))
    pair, _ = cnslab_run.execute_run(cfg)
    grid = make_grid(cfg.grid_n, cfg.grid_L, cfg.grid_dim)
    base, _, _ = build_scenario(cfg.scenario, grid, cfg.params)
    single = DiagnosticSeries()
    observe = make_observer(cfg.params, cfg.diagnostics, single)
    _, _, fault = integrate(base.state, cfg.solver, cfg.params, observe=observe)
    assert fault is None
    assert pair.times == single.times
    for key in single.columns:
        np.testing.assert_allclose(pair.column(key), single.column(key), rtol=1e-12, atol=0,
                                   err_msg=key)


# vertical48 seed whose vertical field has ||(Pu0)^3|| = 23.1, past the
# smallness budget eps*exp(-(1+||w||)) >= 1e-12 that large_vertical_data needs
REFUSED_SEED = 124


def test_refused_initial_data_is_reported(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    result = bench_run.run_round(VERTICAL48.config_text(REFUSED_SEED), tmp_path, trace=0)
    assert "smallness budget infeasible" in result.get("refused", ""), result


def test_run_takes_the_next_seed_after_a_refused_one(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = bench_run.main(["--workload", "vertical48", "--seed", str(REFUSED_SEED),
                           "--seconds", "1", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert f"seed {REFUSED_SEED} refused" in err
    last = json.loads(out.strip().splitlines()[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (True, 1, 0), last


def _traced(name: str, tmp_path: Path) -> dict:
    text = WORKLOADS[name].config_text(0, horizon=SHORT[name])
    result = bench_run.run_round(text, tmp_path, trace=1)
    assert "error" not in result, result
    spans = json.loads((tmp_path / "out" / "spans.json").read_text())
    return layer_metrics(spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_layer(monkeypatch, tmp_path, name):
    monkeypatch.chdir(ROOT)
    metrics = _traced(name, tmp_path / "a")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {m["name"] for m in spec["per_layer"]} - {"trace.run_s"}
    assert reported == set(metrics)
    zero = [k for k, v in metrics.items() if not v > 0]
    assert zero == [], f"{name}: layers never reached: {zero}"


def test_traced_counts_repeat(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    first, second = (_traced("diag32", tmp_path / d) for d in ("a", "b"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
