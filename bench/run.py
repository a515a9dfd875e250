"""Benchmark of the seiard identifiability pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run measures set-up time in
fresh interpreters, then starts one workload process (bench/child.py) that
repeats whole rounds of CLI invocations for S seconds, checks every
invocation's artifacts (bench/checks.py) and prints one JSON object as its
last line: whether the outputs were correct, the invocations attempted and
failed, and the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1).  Workloads are defined in bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
CHILD = HERE / "child.py"

SETUP_PROBES = 4          # plus the workload process itself
SETUP_TIMEOUT_S = 20
CHILD_GRACE_S = 60        # beyond --seconds, for the last round to finish

COMMAND_METRICS = {       # per-layer wall time of each subcommand
    "simulate": "cli.simulate.wall_s",
    "fit": "cli.fit.wall_s",
    "profile": "cli.profile.wall_s",
    "mcmc": "cli.mcmc.wall_s",
    "report": "cli.report.wall_s",
    "forecast-eval": "cli.forecast_eval.wall_s",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def spawn(args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    start = time.time()
    done = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                          timeout=timeout, stdout=subprocess.DEVNULL)
    return start, done


def check_artifacts(rounds: list[list[dict]]) -> tuple[bool, int, int]:
    """Runs the checks of every step; returns (correct, attempted, failed)."""
    sys.path.insert(0, str(ROOT / "src"))
    from seiard.defaults import SEARCH_BOUNDS

    import checks

    ctx = checks.Context(SEARCH_BOUNDS)
    correct, attempted, failed = True, 0, 0
    for steps in rounds:
        for step in steps:
            attempted += 1
            if step["code"] != 0:
                failed += 1
                print(f"bench: {step['label']} exited {step['code']}",
                      file=sys.stderr)
                continue
            try:
                checks.CHECKS[step["command"]](Path(step["out"]), ctx)
            except (checks.CheckFailed, OSError, KeyError, ValueError) as error:
                correct = False
                print(f"bench: check of {step['label']} failed: {error!r}",
                      file=sys.stderr)
    return correct, attempted, failed


def end_to_end(rounds: list[list[dict]], setups: list[float],
               rss_mb: float) -> dict:
    def median_over_rounds(command=None):
        return statistics.median(
            sum(s["seconds"] for s in steps
                if command is None or s["command"] == command)
            for steps in rounds)

    return {"setup_s": statistics.median(setups),
            "wall_s": median_over_rounds(),
            "profile_s": median_over_rounds("profile"),
            "peak_rss_mb": rss_mb}


def per_layer(result: dict) -> dict:
    """The traced run's layer metrics, the subcommand wall times, sampler
    ESS and artifact bytes, each per round."""
    import checks
    from ess import ess_bulk, ess_tail

    rounds = result["rounds"]
    metrics = dict(result["layers"])
    sums = defaultdict(float)
    bulk, tail, ess_rate = [], [], []
    for steps in rounds:
        for step in steps:
            sums[COMMAND_METRICS[step["command"]]] += step["seconds"]
            out = Path(step["out"])
            sums["cli.artifact_bytes"] += sum(
                p.stat().st_size for p in out.iterdir() if p.is_file())
            if step["command"] == "mcmc":
                config = checks.read_json(out / "manifest.json")["config"]
                header, chains = checks.read_chains(
                    out, int(config["mcmc"]["n_chains"]))
                params = range(len(header) - 2)
                bulk.append(min(ess_bulk(chains[:, :, j]) for j in params))
                tail.append(min(ess_tail(chains[:, :, j]) for j in params))
                ess_rate.append(bulk[-1] / step["seconds"])
    for name in [*COMMAND_METRICS.values(), "cli.artifact_bytes"]:
        metrics[name] = sums[name] / len(rounds)
    metrics["mcmc.ess_bulk_min"] = statistics.fmean(bulk) if bulk else 0.0
    metrics["mcmc.ess_tail_min"] = statistics.fmean(tail) if tail else 0.0
    metrics["mcmc.min_ess_per_s"] = statistics.fmean(ess_rate) if ess_rate else 0.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if opts.workload not in WORKLOADS:
        return fail(f"unknown workload {opts.workload!r}; "
                    f"expected one of {sorted(WORKLOADS)}")
    if opts.seed < 0 or opts.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "seiard" / "cli.py").is_file():
        return fail(f"no seiard sources under {ROOT / 'src'}; "
                    f"run from a source checkout")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if opts.trace else "end_to_end"]}
    run_dir = RUNS / f"{opts.workload}-seed{opts.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds), "--run-dir", str(run_dir)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            start, done = spawn(common + ["--setup-only"], SETUP_TIMEOUT_S)
            if done.returncode != 0:
                return fail(f"set-up probe exited {done.returncode}")
            stamp = json.loads((run_dir / "setup.json").read_text())
            setups.append(stamp["setup_stamp"] - start)
        start, done = spawn(common + (["--trace"] if opts.trace else []),
                            opts.seconds + CHILD_GRACE_S)
        if done.returncode != 0:
            return fail(f"workload process exited {done.returncode}")
        result = json.loads((run_dir / "result.json").read_text())
        setups.append(result["setup_stamp"] - start)
        correct, attempted, failed = check_artifacts(result["rounds"])
        if opts.trace:
            metrics = per_layer(result)
            RUNS.joinpath("traces").mkdir(exist_ok=True)
            shutil.move(run_dir / "trace.jsonl.gz", RUNS / "traces" /
                        f"{opts.workload}-seed{opts.seed}.jsonl.gz")
        else:
            metrics = end_to_end(result["rounds"], setups,
                                 result["peak_rss_mb"])
    except subprocess.TimeoutExpired as error:
        return fail(f"timed out: {error}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(metrics) != set(declared):
        return fail(f"metrics {sorted(set(metrics) ^ set(declared))} are "
                    f"computed or declared but not both")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
