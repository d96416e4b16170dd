"""Command-line surface.

Exit codes: 0 success, 2 configuration error, 3 runtime fault
(positivity/CFL), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .diagnostics import beta, fit_decay
from .io import CheckpointError, read_series
from .run import execute_run, resume_run
from .scenarios import SCENARIO_KINDS
from .verify import SUITES, run_suite

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cnslab",
        description="Pseudo-spectral compressible-flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured scenario")
    p_run.add_argument("config", help="path to the run configuration file")
    p_run.add_argument("--out", help="output directory (default from config)")

    p_an = sub.add_parser("analyze", help="recompute decay fits from a stored series")
    p_an.add_argument("series", help="path to a series CSV")
    p_an.add_argument("--fit", required=True, help="column/norm key to fit")
    p_an.add_argument("--p0", type=float, default=None, help="target exponent via p0")
    p_an.add_argument("--window", type=float, nargs=2, default=(5.0, 50.0),
                      metavar=("TA", "TB"))
    p_an.add_argument("--out", help="write the fit report as JSON here")

    p_ver = sub.add_parser("verify", help="run the property self-check suites")
    p_ver.add_argument("--suite", default="all", choices=["all", *SUITES])

    p_sc = sub.add_parser("scenario", help="scenario utilities")
    p_sc.add_argument("action", choices=["list"])

    p_res = sub.add_parser("resume", help="continue from a checkpoint")
    p_res.add_argument("checkpoint", help="path to a checkpoint file")
    p_res.add_argument("--config", help="run config (default: config.txt next to it)")
    p_res.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "resume":
            return _cmd_resume(args)
    except BrokenPipeError:
        return 0
    return 2


def _config_errors(exc) -> int:
    for problem in exc.problems:
        print(f"config error: {problem}", file=sys.stderr)
    return 2


def _load_config(path):
    try:
        return parse_config(Path(path).read_text())
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise
    except ConfigError as exc:
        _config_errors(exc)
        raise


def _cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
    except (ConfigError, OSError):
        return 2
    outdir = args.out or cfg.out_directory
    try:
        series, summary = execute_run(cfg, outdir=outdir)
    except ConfigError as exc:
        return _config_errors(exc)
    fault = summary.get("fault")
    if fault:
        print(f"runtime fault: {fault['type']} at t={fault['time']:g}: {fault['message']}",
              file=sys.stderr)
        return 3
    print(f"run complete: {len(series)} snapshots, outputs in {outdir}")
    return 0


def _cmd_analyze(args) -> int:
    # an unreadable series, a p0 outside [1, 2], an unknown column or a window
    # with too few samples is an input error
    try:
        series = read_series(args.series)
        target = None if args.p0 is None else beta(args.p0)
        fit = fit_decay(series, args.fit, tuple(args.window), target=target)
    except (OSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = {"norm_key": fit.norm_key, **fit.report()}
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    ok = run_suite(args.suite)
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 4


def _cmd_scenario(args) -> int:
    for kind, description in SCENARIO_KINDS.items():
        print(f"{kind:26s} {description}")
    return 0


def _cmd_resume(args) -> int:
    cfg_path = args.config or (Path(args.checkpoint).parent / "config.txt")
    if not Path(cfg_path).exists():
        print(f"config error: no config at {cfg_path}; pass --config", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(cfg_path)
    except (ConfigError, OSError):
        return 2
    outdir = args.out or cfg.out_directory
    try:
        series, summary = resume_run(cfg, args.checkpoint, outdir=outdir)
    except CheckpointError as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if summary.get("fault"):
        f = summary["fault"]
        print(f"runtime fault: {f['type']}: {f['message']}", file=sys.stderr)
        return 3
    print(f"resume complete: {len(series)} snapshots, outputs in {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
