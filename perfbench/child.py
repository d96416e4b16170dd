"""One benchmark round in a fresh process: set up and run one config the way
`cnslab run` does, and write the round's timings (and, traced, its spans).

    python3 perfbench/child.py CONFIG OUTDIR SPAWNED_AT TRACE

SPAWNED_AT is the wall-clock time at which the parent started this process,
so set-up time counts interpreter start-up and every import. When the
program refuses to build the initial data (`build_scenario` raises
ValueError, as `large_vertical_data` does when the smallness budget is
infeasible), the round writes `{"refused": message}` instead of timings.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path


class Refused(Exception):
    """The program refused the initial data of this config."""


def main(argv) -> int:
    config_path, outdir, spawned_at, trace = argv
    outdir = Path(outdir)
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import cnslab

    if Path(cnslab.__file__).resolve().parent != (src / "cnslab").resolve():
        print(f"imported cnslab from {cnslab.__file__}, not from {src}", file=sys.stderr)
        return 2
    run_mod = importlib.import_module("cnslab.run")
    config_mod = importlib.import_module("cnslab.config")
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # the initial state is ready when build_scenario returns inside execute_run
    marks = {}
    build = run_mod.build_scenario

    def marked_build(*args, **kwargs):
        try:
            built = build(*args, **kwargs)
        except ValueError as exc:
            raise Refused(str(exc)) from exc
        marks["wall"], marks["clock"] = time.time(), time.perf_counter()
        return built

    run_mod.build_scenario = marked_build
    cfg = config_mod.parse_config(Path(config_path).read_text())
    try:
        _, summary = run_mod.execute_run(cfg, outdir=outdir)
    except Refused as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "round.json").write_text(json.dumps({"refused": str(exc)}))
        return 0
    end = time.perf_counter()

    result = {
        "setup_s": marks["wall"] - float(spawned_at),
        "run_s": end - marks["clock"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fault": summary.get("fault"),
    }
    if tracer is not None:
        tracer.write(outdir / "spans.json")
    (outdir / "round.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
