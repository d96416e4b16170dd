"""Reference-series gate: each config under `tests/reference/<name>/` is rerun
in-process, and its `series.csv` and `summary.json` are compared with the
committed ones. The configs are the benchmark workloads `vertical48`,
`twins32` and `diag32` at seed 0 and T = 0.3.

Headers, row counts, comment lines, and every string, integer and boolean of
the summary (`counters` among them) must match exactly. Every other float
must agree to RTOL relative to the largest magnitude in its column (a summary
float is a column of its own). Bytes are not compared: numpy picks its SIMD
exp/log code by CPU, so the last digits may differ between machines.

A change that moves a column past the tolerance regenerates the reference,
from the repository root, with

    PYTHONPATH=src python tests/test_reference.py

and lists each moved column and the size of its move in CHANGES.md.
"""

import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cnslab.config import parse_config
from cnslab.run import execute_run

REFERENCE = Path(__file__).resolve().parent / "reference"
NAMES = ("vertical48", "twins32", "diag32")
COMPARED = ("series.csv", "summary.json")
RTOL = 1e-12
# mean_a is the k = 0 mode of a: zero in the initial data, and the mass
# equation's ik vanishes at k = 0, so it holds round-off only (1.7e-30,
# 3.9e-21 and 0.0 on the three runs) and a relative bound would compare noise
ABS_BOUND = {"mean_a": 1e-15}


def _rerun(name: str, outdir: Path) -> None:
    execute_run(parse_config((REFERENCE / name / "config.txt").read_text()), outdir=outdir)


def _read_csv(path: Path):
    """(comment lines, header, rows) of a series CSV."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    return comments, header, rows


def _compare_summary(got, ref, where="summary"):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), where
        for key in ref:
            _compare_summary(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_summary(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert isinstance(got, float), where
        assert math.isclose(got, ref, rel_tol=RTOL, abs_tol=0.0), (where, got, ref)
    else:  # str, int, bool, None: exact
        assert type(got) is type(ref) and got == ref, (where, got, ref)


@pytest.fixture(scope="module", params=NAMES)
def rerun(request, tmp_path_factory):
    outdir = tmp_path_factory.mktemp(request.param)
    _rerun(request.param, outdir)
    return REFERENCE / request.param, outdir


def test_series_matches_reference(rerun):
    ref_dir, outdir = rerun
    ref_comments, ref_header, ref_rows = _read_csv(ref_dir / "series.csv")
    comments, header, rows = _read_csv(outdir / "series.csv")
    assert comments == ref_comments
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    got = np.array(rows, dtype=float)
    ref = np.array(ref_rows, dtype=float)
    for j, col in enumerate(header):
        bound = ABS_BOUND.get(col, RTOL * np.max(np.abs(ref[:, j])))
        err = np.max(np.abs(got[:, j] - ref[:, j]))
        assert err <= bound, f"column {col}: {err:.3g} > {bound:.3g}"


def test_summary_matches_reference(rerun):
    ref_dir, outdir = rerun
    ref = json.loads((ref_dir / "summary.json").read_text())
    got = json.loads((outdir / "summary.json").read_text())
    assert got["counters"] == ref["counters"]
    _compare_summary(got, ref)


if __name__ == "__main__":
    for name in NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            _rerun(name, Path(tmp))
            for fname in COMPARED:
                shutil.copyfile(Path(tmp) / fname, REFERENCE / name / fname)
        print(f"regenerated {REFERENCE / name}")
