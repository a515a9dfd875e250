"""One workload process: import seiard, resolve the workload's configs, then
run whole rounds of CLI invocations until the time is up.

    python3 bench/child.py --workload NAME --seed N --seconds S \
        --run-dir DIR [--trace] [--setup-only]

With --setup-only it stops after the configs are resolved.  It writes
DIR/result.json (or DIR/setup.json): the wall-clock stamp at which set-up
ended, per-step timings and exit codes, peak resident memory and, with
--trace, the per-layer metrics.  bench/run.py starts it and reads the file.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import seiard.cli

    if not Path(seiard.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"seiard imported from {seiard.cli.__file__}, "
                          f"not from {SRC}")
    return seiard.cli


def _resolve(cli, argv: list[str]) -> dict:
    """The resolved config of one invocation, as `seiard` builds it."""
    from seiard import runconfig

    args = cli.build_parser().parse_args(argv + ["--out", "unused"])
    config = runconfig.load_config(args.config)
    for assignment in args.overrides:
        runconfig.apply_set(config, assignment)
    if args.threads is not None:
        config["threads"] = args.threads
    runconfig.validate(config)
    return runconfig.resolve_config(config)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args()

    cli = _import_cli()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, round_seed

    workload = WORKLOADS[opts.workload]
    for _, argv in workload(round_seed(opts.seed, 0)):
        _resolve(cli, argv)
    setup_stamp = time.time()
    if opts.setup_only:
        (opts.run_dir / "setup.json").write_text(
            json.dumps({"setup_stamp": setup_stamp}))
        return 0

    tracer = None
    if opts.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < opts.seconds:
        index = len(rounds)
        steps = []
        for label, argv in workload(round_seed(opts.seed, index)):
            out = opts.run_dir / f"round{index}" / label
            start = time.perf_counter()
            try:
                code = cli.main(argv + ["--out", str(out)])
            except Exception:  # a failing step is counted, not fatal to the run
                traceback.print_exc()
                code = -1
            steps.append({"label": label, "command": argv[0],
                          "seconds": time.perf_counter() - start,
                          "code": code, "out": str(out)})
        rounds.append(steps)

    result = {
        "setup_stamp": setup_stamp,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(rounds))
        tracer.write(opts.run_dir / "trace.jsonl.gz")
    (opts.run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
