"""Print the sha256 of every artifact of the six seiard subcommands.

    python3 tools/artifact_hashes.py [--src DIR] > hashes.txt
    python3 tools/artifact_hashes.py --expect hashes.txt

Each run below starts `python -m seiard.cli` with DIR (default: this
checkout's src/) first on PYTHONPATH, inside a fresh temporary directory and
with the same relative `--out`, so the `out_dir` recorded in manifest.json is
the same from one checkout to the next.  Run it on one checkout to write the
hashes, then on another with --expect to compare: it lists on stderr every
artifact whose hash differs, is missing or is new, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OUT = "out"

NOISY = ("--set", "dataset.sigma_noise=0.05")
SMALL_PROFILE = ("--set", "profile.grid_points=7",
                 "--set", "profile.inner_budget=40")
SMALL_MCMC = ("--set", "mcmc.n_samples=600", "--set", "mcmc.n_burn=100",
              "--set", "mcmc.thin=5", "--set", "mcmc.n_chains=2")
# every scenario field away from its default, so a solve that drops one shows
SCENARIO = ("--set", "dataset.a0_fatal_fraction=0.5", "--set", "dataset.dt=0.25",
            "--set", "dataset.population_n=2000000")

# (label, argv after `seiard`); every subcommand at a small fixed config
RUNS = (
    ("simulate", ("simulate", *NOISY)),
    ("fit", ("fit", *NOISY, "--set", "fit.budget=150")),
    # the one run whose Nelder-Mead descent reaches the convergence test
    # (after about 1 000 evaluations) and restarts on the leftover budget
    ("fit-converge", ("fit", *NOISY, "--set", "fit.budget=2500")),
    ("fit-112d", ("fit", *NOISY, "--set", "window=[0,112]",
                  "--set", "fit.budget=120")),
    ("fit-original-tpe", ("fit", *NOISY, "--set", "variant=original",
                          "--set", "fit.method=tpe", "--set", "fit.budget=80")),
    ("profile-chi2", ("profile", *NOISY, *SMALL_PROFILE,
                      "--set", 'profile.params=["beta","p_fatal"]')),
    ("profile-windows", ("profile", *NOISY, *SMALL_PROFILE,
                         "--set", "profile.windows=[14,28]")),
    ("profile-posterior", ("profile", *NOISY, *SMALL_PROFILE, *SMALL_MCMC,
                           "--set", "profile.threshold=posterior",
                           "--set", 'profile.params=["beta","p_fatal"]')),
    # 2 200 pooled draws: the threshold subsamples them to max_draws=2000
    ("profile-posterior-many", ("profile", *NOISY, *SMALL_PROFILE,
                                "--set", "mcmc.n_samples=1200",
                                "--set", "mcmc.n_burn=100", "--set", "mcmc.thin=1",
                                "--set", "mcmc.n_chains=2",
                                "--set", "profile.threshold=posterior")),
    # every solve runs 225 days
    ("profile-long", ("profile", *NOISY, *SMALL_PROFILE,
                      "--set", "profile.windows=[224]")),
    ("profile-threads", ("profile", *NOISY, *SMALL_PROFILE, "--threads", "2")),
    ("profile-cold-threads", ("profile", *NOISY, *SMALL_PROFILE,
                              "--set", "profile.warm_start=false",
                              "--threads", "2")),
    ("mcmc", ("mcmc", *NOISY, *SMALL_MCMC)),
    ("mcmc-original", ("mcmc", *NOISY, *SMALL_MCMC, "--set", "variant=original")),
    ("report", ("report",)),
    ("report-original", ("report", "--set", "variant=original")),
    ("report-original-threads", ("report", "--set", "variant=original",
                                 "--threads", "2")),
    ("report-scenario", ("report", *SCENARIO)),
    ("fit-scenario", ("fit", *NOISY, *SCENARIO, "--set", "fit.budget=80")),
    ("forecast-eval", ("forecast-eval", *NOISY,
                       "--set", "forecast.horizons=[42,100]",
                       "--set", "forecast.seeds=[1,2]",
                       "--set", "forecast.budget=60")),
)


def run(src: Path, label: str, argv: tuple[str, ...]) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-m", "seiard.cli", *argv,
                               "--out", OUT], cwd=tmp, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{label} exited {done.returncode}: {done.stderr}")
        out = Path(tmp) / OUT
        return [f"{label}/{path.name} "
                f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
                for path in sorted(out.iterdir())]


def differences(expected: list[str], got: list[str]) -> list[str]:
    """One line per artifact whose `name hash` line is not in both lists."""
    want = dict(line.split() for line in expected if line.strip())
    have = dict(line.split() for line in got)
    report = []
    for name in sorted(want.keys() | have.keys()):
        if name not in have:
            report.append(f"{name}: missing")
        elif name not in want:
            report.append(f"{name}: new")
        elif want[name] != have[name]:
            report.append(f"{name}: differs")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the seiard package")
    parser.add_argument("--expect", type=Path,
                        help="hashes printed by an earlier run to compare with")
    args = parser.parse_args()
    got = []
    for label, argv in RUNS:
        for line in run(args.src.resolve(), label, argv):
            print(line, flush=True)
            got.append(line)
    if args.expect is None:
        return 0
    differing = differences(args.expect.read_text().splitlines(), got)
    for entry in differing:
        print(entry, file=sys.stderr)
    if differing:
        return 1
    print(f"all {len(got)} artifacts as expected", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
