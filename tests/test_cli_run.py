"""End-to-end orchestration: execute_run outputs, resume, determinism of the
emitted files, and the CLI surface with its exit codes."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cnslab.spectral as spectral
from cnslab import verify
from cnslab.cli import main
from cnslab.config import parse_config
from cnslab.io import read_checkpoint, read_series
from cnslab.run import execute_run, resume_run, run_pair
from cnslab.scenarios import build_scenario
from cnslab.spectral import make_grid

SMALL_CONFIG = """\
[grid]
n = 16
L = 25.132741228718345
dim = 3

[params]
mu = 1.0
lambda = 0.0
gamma = 1.4

[solver]
dt = 0.05
T = 0.5
scheme = imex2
cadence = uniform:0.1
strict_mode = true

[scenario]
kind = equilibrium_perturbation
epsilon = 0.01
p0 = 1.0
seed = 3

[diagnostics]
norms = a:besov:s=0.5,p=2,r=1
p0_list = 1
lyapunov = calibrate

[output]
directory = out
formats = csv,json,checkpoint
"""


@pytest.fixture()
def small_cfg():
    return parse_config(SMALL_CONFIG)


class TestExecuteRun:
    def test_outputs_written(self, tmp_path, small_cfg):
        series, summary = execute_run(small_cfg, outdir=tmp_path)
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "config.txt").read_text() == SMALL_CONFIG
        assert summary["fault"] is None
        assert len(series) == 6

    def test_summary_embeds_config_hash_and_echo(self, tmp_path, small_cfg):
        _, summary = execute_run(small_cfg, outdir=tmp_path)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["config_hash"] == summary["config_hash"]
        assert on_disk["config"]["grid"]["n"] == 16
        assert on_disk["lyapunov_constants"]["A4"] >= 1.0

    def test_byte_identical_reruns(self, tmp_path, small_cfg):
        execute_run(small_cfg, outdir=tmp_path / "a")
        execute_run(small_cfg, outdir=tmp_path / "b")
        for name in ("series.csv", "summary.json", "final.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summary_counters(self, tmp_path, small_cfg):
        _, summary = execute_run(small_cfg, outdir=tmp_path)
        counters = json.loads((tmp_path / "summary.json").read_text())["counters"]
        assert counters == summary["counters"]
        assert set(counters) == {"steps", "snapshots", "transforms_stepping", "transforms_observe"}
        assert counters["steps"] == 10 and counters["snapshots"] == 6
        assert counters["transforms_stepping"] > 0 and counters["transforms_observe"] > 0

    def test_run_grows_no_module_container(self, small_cfg):
        import cnslab.lp as lp
        import cnslab.solver as solver
        import cnslab.spectral as spectral

        def containers():
            return {
                (mod.__name__, name): list(val.keys()) if isinstance(val, dict) else len(val)
                for mod in (spectral, lp, solver)
                for name, val in vars(mod).items()
                if isinstance(val, (dict, list, set)) and not name.startswith("__")
            }

        before = containers()
        execute_run(small_cfg)
        # adaptive steps split past the CFL bound, each into substeps of a new dt
        grid = spectral.make_grid(16, 2 * np.pi, 3)
        a = 0.01 * spectral.random_field(grid, seed=0, band=(0.5, 3.0))
        u = spectral.VectorField([0.01 * spectral.random_field(grid, seed=1 + i, band=(0.5, 3.0))
                                  for i in range(3)])
        state = solver.FlowState(0.0, a, u, solver.PhysicalParams())
        bound = solver.cfl_dt_bound(state, solver.SolverConfig())
        for i in range(20):
            dt = (1.5 + 0.01 * i) * bound
            state = solver.step(state, solver.SolverConfig(dt=dt, T=dt), solver.PhysicalParams())
        assert containers() == before

    def test_one_core_run_starts_no_thread(self, tmp_path, small_cfg, monkeypatch):
        execute_run(small_cfg, outdir=tmp_path / "two")
        # a process that may use one core makes its pool afresh, with no thread
        monkeypatch.setattr(spectral, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        started = []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        execute_run(small_cfg, outdir=tmp_path / "one")
        assert started == [] and spectral._pool is False
        for name in ("series.csv", "summary.json", "final.ckpt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        half_text = SMALL_CONFIG.replace("T = 0.5", "T = 0.25")
        half_cfg = parse_config(half_text)
        full_cfg = parse_config(SMALL_CONFIG)
        execute_run(half_cfg, outdir=tmp_path / "half")
        execute_run(full_cfg, outdir=tmp_path / "full")
        series, summary = resume_run(full_cfg, tmp_path / "half" / "final.ckpt",
                                     outdir=tmp_path / "cont")
        assert summary["final_time"] == pytest.approx(0.5)
        fin_full, _ = read_checkpoint(tmp_path / "full" / "final.ckpt")
        fin_cont, _ = read_checkpoint(tmp_path / "cont" / "final.ckpt")
        assert np.max(np.abs(fin_full.a.data - fin_cont.a.data)) <= 1e-12
        for x, y in zip(fin_full.u, fin_cont.u):
            assert np.max(np.abs(x.data - y.data)) <= 1e-12
        # the continued rows fall on the uninterrupted snapshot times
        full = read_series(tmp_path / "full" / "series.csv")
        cont = read_series(tmp_path / "cont" / "series.csv")
        assert cont.times[0] == 0.25
        later = [i for i, t in enumerate(full.times) if t > 0.25]
        assert cont.times[1:] == [full.times[i] for i in later]
        # columns of the state alone agree; accumulated history (diss_cum,
        # grad_u_linf_int, X through A4) needs the loop state in the checkpoint
        for key in ("E", "l2_au", "rho_min", "mean_a", "h1_u"):
            np.testing.assert_allclose(cont.column(key)[1:], full.column(key)[later],
                                       rtol=1e-12, atol=0, err_msg=key)
        on_disk = json.loads((tmp_path / "cont" / "summary.json").read_text())
        assert on_disk["resumed_from"] == 0.25
        assert "energy_balance" in on_disk and "fits" in on_disk

    def test_last_row_at_horizon(self, small_cfg):
        series, summary = execute_run(small_cfg)
        assert series.times[-1] == 0.5
        assert summary["final_time"] == 0.5

    def test_checkpoint_cadence(self, tmp_path):
        text = SMALL_CONFIG + "checkpoint_every = 2\n"
        cfg = parse_config(text)
        execute_run(cfg, outdir=tmp_path)
        mids = sorted(tmp_path.glob("step_*.ckpt"))
        assert len(mids) >= 2
        state, chash = read_checkpoint(mids[0])
        assert state.t > 0.0
        assert chash  # every output embeds the config hash

    def test_stability_pair_records_difference_columns(self, tmp_path):
        text = SMALL_CONFIG.replace("kind = equilibrium_perturbation",
                                    "kind = stability_pair\neps_pert = 0.001")
        cfg = parse_config(text)
        series, summary = execute_run(cfg, outdir=tmp_path)
        assert "twin_diff_total" in series.columns
        assert summary["twin_diff_max"] is not None
        back = read_series(tmp_path / "series.csv")
        assert "twin_diff_total" in back.columns


TWIN_CONFIG = SMALL_CONFIG.replace("kind = equilibrium_perturbation",
                                   "kind = stability_pair\neps_pert = 0.001")
TWIN_COLUMNS = ["twin_diff_rho", "twin_diff_P", "twin_diff_Q", "twin_diff_total"]


@pytest.fixture(scope="module")
def twin_and_single():
    """A twin run and the single run of its reference state: the same
    [scenario] with kind = equilibrium_perturbation."""
    return execute_run(parse_config(TWIN_CONFIG)), execute_run(parse_config(SMALL_CONFIG))


class TestTwinRun:
    def test_reference_columns_are_the_single_run(self, twin_and_single):
        (twin, _), (single, _) = twin_and_single
        assert twin.header[-4:] == TWIN_COLUMNS
        assert twin.header[:-4] == single.header
        assert twin.times == single.times
        for key in single.columns:
            assert np.array_equal(twin.column(key), single.column(key)), key

    def test_summary_is_the_single_summary_plus_twin_keys(self, twin_and_single):
        (twin, summary), (_, single) = twin_and_single
        assert set(summary) == set(single) | {"eps_pert", "twin_diff_max", "twin_diff_final"}
        for key in ("fault", "final_time", "energy_balance", "fits", "conlf_witness",
                    "lyapunov_constants"):
            assert summary[key] == single[key], key
        assert summary["twin_diff_max"] == max(twin.columns["twin_diff_total"])
        assert summary["twin_diff_final"] == twin.columns["twin_diff_total"][-1]
        # the merged records keep the reference's seed
        assert summary["scenario_records"]["seed"] == 3
        assert summary["scenario_records"]["pert_seed"] == 4

    def test_run_pair_is_the_twin_run(self, twin_and_single):
        (twin, _), _ = twin_and_single
        cfg = parse_config(TWIN_CONFIG)
        grid = make_grid(cfg.grid_n, cfg.grid_L, cfg.grid_dim)
        base, pert, _ = build_scenario(cfg.scenario, grid, cfg.params)
        series = run_pair(cfg, base.state, pert.state)
        assert series.times == twin.times and series.columns == twin.columns

    def test_pair_run_on_a_thread_finishes(self, tmp_path):
        # the pair's member 1 holds the worker while member 0's RHS tasks run
        # inline; a run that deadlocked would never join
        import test_reference as reference

        errors = []

        def run():
            try:
                reference._rerun("twins32", tmp_path)
            except BaseException as exc:  # reported below, on the test's thread
                errors.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=300)
        assert not runner.is_alive(), "the twin run did not finish"
        assert errors == []
        ref_dir = reference.REFERENCE / "twins32"
        reference.test_series_matches_reference((ref_dir, tmp_path))
        reference.test_summary_matches_reference((ref_dir, tmp_path))

    def test_summary_holds_json_values_only(self, twin_and_single):
        for _, summary in twin_and_single:
            assert json.loads(json.dumps(summary)) == summary

    def test_resume_refuses_a_twin_config(self, tmp_path, capsys):
        first = tmp_path / "first.cfg"
        first.write_text(SMALL_CONFIG.replace("T = 0.5", "T = 0.25"))
        assert main(["run", str(first), "--out", str(tmp_path / "leg1")]) == 0
        twin = tmp_path / "twin.cfg"
        twin.write_text(TWIN_CONFIG)
        capsys.readouterr()
        assert main(["resume", str(tmp_path / "leg1" / "final.ckpt"), "--config", str(twin),
                     "--out", str(tmp_path / "leg2")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "stability_pair" in err
        assert not (tmp_path / "leg2").exists()


class TestFitSummary:
    def test_default_window_after_horizon_records_no_fit(self):
        demo = (Path(__file__).parent.parent / "configs" / "smalldata_demo.txt").read_text()
        cfg = parse_config(demo.replace("T = 5.0", "T = 0.5"))
        _, summary = execute_run(cfg)
        assert summary["fits"] == {}

    def test_explicit_window_reports_its_error(self):
        cfg = parse_config(SMALL_CONFIG.replace("lyapunov = calibrate",
                                                "lyapunov = calibrate\nfit_window = 5, 8"))
        _, summary = execute_run(cfg)
        assert "need at least" in summary["fits"]["l2_au"]["error"]


class TestCli:
    def test_run_and_analyze(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        # analyze the stored series on a wide window of the short run
        code = main(["analyze", str(out / "series.csv"), "--fit", "l2_au",
                     "--window", "0.05", "0.45"])
        assert code == 2  # too few samples in this tiny run is a usage error
        code = main(["analyze", str(out / "series.csv"), "--fit", "nope",
                     "--window", "0.0", "1.0"])
        assert code == 2
        assert main(["analyze", str(out / "series.csv"), "--fit", "l2_au", "--p0", "3"]) == 2
        assert main(["analyze", str(tmp_path / "missing.csv"), "--fit", "l2_au"]) == 2
        assert capsys.readouterr().err.count("config error") == 4

    def test_analyze_power_law_fixture(self, tmp_path, capsys):
        from cnslab.diagnostics import DiagnosticSeries
        from cnslab.io import write_series

        series = DiagnosticSeries()
        for t in np.linspace(0.0, 60.0, 121):
            series.append(t, {"l2_au": (1.0 + t) ** -0.75})
        path = tmp_path / "fixture.csv"
        write_series(path, series)
        assert main(["analyze", str(path), "--fit", "l2_au", "--p0", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["beta_hat"] == pytest.approx(0.75, abs=1e-10)
        assert report["target"] == pytest.approx(0.75)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[params]\nmu = 1.0\nlambda = 3.0\n[solver]\nstrict_mode = true\n")
        assert main(["run", str(bad)]) == 2
        assert "mu > lambda/2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        ("cadence = uniform:0.1", "cadence = bogus"),
        ("cadence = uniform:0.1", "cadence = uniform:-0.1"),
        ("p0_list = 1", "p0_list = 1\np_list = 0.5"),
        ("p0_list = 1", "p0_list = 0.5"),
        ("p0_list = 1", "p0_list = 3"),
        ("p0_list = 1", "p0_list = 1\nholder_every = 0"),
        ("p0_list = 1", "p0_list = 1\nholder_alpha = 1.5"),
        ("p0_list = 1", "p0_list = 1\nholder_alpha = 0.5\nholder_radius = 0"),
        ("formats = csv,json,checkpoint", "formats = csv,json,checkpoint\ncheckpoint_every = -2"),
        ("scheme = imex2", "scheme = imex1"),
    ])
    def test_invalid_value_exits_before_the_run(self, tmp_path, capsys, edit):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace(*edit))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_refused_initial_data_is_a_config_error(self, tmp_path, capsys):
        # scenario seed 137 gives ||(Pu0)^3|| = 23.1, over the smallness budget
        text = (Path(__file__).parent.parent / "configs" / "large_vertical.txt").read_text()
        assert "seed = 13\n" in text
        bad = tmp_path / "refused.cfg"
        bad.write_text(text.replace("seed = 13\n", "seed = 137\n"))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: [scenario] smallness budget infeasible" in err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_runtime_fault_exit_code(self, tmp_path, capsys):
        # drive the density to vacuum: strong compressive data on a tiny grid
        text = SMALL_CONFIG.replace("epsilon = 0.01", "epsilon = 0.97")
        text = text.replace("T = 0.5", "T = 40.0").replace("dt = 0.05", "dt = 0.1")
        cfg_path = tmp_path / "crash.cfg"
        cfg_path.write_text(text)
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code in (0, 3)  # fault expected, but a completed run is not an error
        if code == 3:
            assert "fault" in capsys.readouterr().err.lower()

    def test_verify_suites(self, capsys):
        assert main(["verify", "--suite", "lp"]) == 0
        assert main(["verify", "--suite", "helmholtz"]) == 0
        assert main(["verify", "--suite", "decay"]) == 0
        assert main(["verify", "--suite", "energy"]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out

    def test_verify_failing_check_exits_4(self, capsys, monkeypatch):
        defects = {"div": 1.0, "idempotency": 0.0, "pythagoras": 0.0, "qu_d": 0.0}
        monkeypatch.setattr(verify, "helmholtz_defects", lambda *args, **kw: defects)
        assert main(["verify", "--suite", "helmholtz"]) == 4
        out = capsys.readouterr().out
        assert "[FAIL] div(Pu) = 0" in out
        assert "[ok] P idempotent" in out
        assert "verification FAILED" in out

    def test_verify_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("equilibrium_perturbation", "oscillating", "large_vertical",
                     "stability_pair"):
            assert kind in out

    def test_python_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-m", "cnslab", "scenario", "list"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        for kind in ("equilibrium_perturbation", "oscillating", "large_vertical",
                     "stability_pair"):
            assert kind in done.stdout

    def test_resume_cli(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CONFIG.replace("T = 0.5", "T = 0.25"))
        out1 = tmp_path / "leg1"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(SMALL_CONFIG)
        out2 = tmp_path / "leg2"
        assert main(["resume", str(out1 / "final.ckpt"), "--config", str(cfg2),
                     "--out", str(out2)]) == 0
        assert (out2 / "series.csv").exists()

    def test_resume_refuses_a_checkpoint_of_another_grid(self, tmp_path, capsys):
        first = tmp_path / "first.cfg"
        first.write_text(SMALL_CONFIG.replace("T = 0.5", "T = 0.25"))
        assert main(["run", str(first), "--out", str(tmp_path / "leg1")]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CONFIG.replace("n = 16", "n = 24"))
        capsys.readouterr()
        assert main(["resume", str(tmp_path / "leg1" / "final.ckpt"), "--config", str(other),
                     "--out", str(tmp_path / "leg2")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n 16 (config 24)" in err
        assert not (tmp_path / "leg2").exists()

    def test_resume_refuses_a_checkpoint_of_other_params(self, tmp_path):
        execute_run(parse_config(SMALL_CONFIG.replace("T = 0.5", "T = 0.25")), outdir=tmp_path)
        other = parse_config(SMALL_CONFIG.replace("mu = 1.0", "mu = 2.0")
                             .replace("lambda = 0.0", "lambda = 0.5"))
        named = r"mu 1\.0 \(config 2\.0\), lambda 0\.0 \(config 0\.5\)"
        with pytest.raises(ValueError, match=named):
            resume_run(other, tmp_path / "final.ckpt")

    def test_import_binds_the_module(self):
        import types

        import cnslab.run as run_module

        assert isinstance(run_module, types.ModuleType)
        assert run_module.execute_run is execute_run

    def test_resume_without_config_errors(self, tmp_path):
        ck = tmp_path / "orphan.ckpt"
        ck.write_bytes(b"junk")
        assert main(["resume", str(ck)]) == 2

    def test_unreadable_config_is_reported(self, tmp_path, capsys):
        ck = tmp_path / "orphan.ckpt"
        ck.write_bytes(b"junk")
        assert main(["run", str(tmp_path)]) == 2
        assert main(["resume", str(ck), "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2
