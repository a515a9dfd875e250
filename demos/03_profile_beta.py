"""Profile the fit loss along the transmission rate on a short noisy window.

At each grid value of beta the remaining free parameters are re-optimized,
so the curve shows the best loss attainable when beta is held fixed. A
clean single minimum near the generating value is the identifiable case.
"""

import argparse

import numpy as np

from seiard import (
    FitWindow,
    SearchSpace,
    chi2_threshold,
    pl_interval,
    profile_likelihood,
)
from seiard.defaults import DEFAULT_WINDOW, REPARAM_PINS, SEARCH_BOUNDS, TRUE_PARAMS
from seiard.profile import unimodality_verdict
from seiard.synthdata import NoiseSpec, default_config, generate

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--points", type=int, default=15)
parser.add_argument("--inner-budget", type=int, default=150)
parser.add_argument("--sigma", type=float, default=0.05)
parser.add_argument("--seed", type=int, default=4)
args = parser.parse_args()

dataset = generate(default_config(noise=NoiseSpec(args.sigma), seed=args.seed))
space = SearchSpace(bounds=SEARCH_BOUNDS, pinned=REPARAM_PINS)
grid = np.linspace(0.05, 0.6, args.points)

curve = profile_likelihood(dataset, "beta", grid=grid, space=space,
                           window=FitWindow(*DEFAULT_WINDOW),
                           inner_budget=args.inner_budget, seed=0)

threshold = chi2_threshold(curve, alpha=0.95)
interval = pl_interval(curve, threshold)

print("beta      profiled loss")
for theta, value in zip(curve.grid, curve.profiled_loss):
    bar = "#" * min(60, int(value * 2))
    print(f"{theta:<9.4f} {value:<9.3f} {bar}")

best = float(curve.grid[np.argmin(curve.profiled_loss)])
print(f"\ntrue beta {TRUE_PARAMS.beta}, curve minimum at {best:.4f}")
print(f"shape verdict: {unimodality_verdict(curve)}")
print(f"95% sub-level set at threshold {threshold:.3f}: "
      f"{[[round(lo, 4), round(hi, 4)] for lo, hi in interval.segments]}"
      f" (width {interval.width:.4f})")
if interval.censored_left or interval.censored_right:
    print("interval touches the grid edge, widen the grid to decensor")
