"""Out-of-window forecast error of the reduced fit against the full fit.

Both variants are fit to the same noisy 28-day window, then judged on the
total-case curve out to longer horizons. The full eight-parameter fit can
match the window slightly better yet wander badly outside it; pinning the
three timescales trades a little in-sample fit for forecasts that hold up.
"""

import argparse

import numpy as np

from seiard import FitWindow, SearchSpace, fit_objective, minimize
from seiard.defaults import DEFAULT_WINDOW, REPARAM_PINS, SEARCH_BOUNDS
from seiard.dynamics import ModelParams, simulate_observed
from seiard.loss import mape
from seiard.synthdata import NoiseSpec, default_config, generate

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
parser.add_argument("--horizons", type=int, nargs="+", default=[53, 100, 200])
parser.add_argument("--budget", type=int, default=500)
args = parser.parse_args()

window = FitWindow(*DEFAULT_WINDOW)
variants = {"reparam": REPARAM_PINS, "original": {}}
scores = {name: {h: [] for h in args.horizons} for name in variants}

for seed in args.seeds:
    dataset = generate(default_config(noise=NoiseSpec(0.05), seed=seed))
    observed_total = dataset.observed.series("total")
    for name, pins in variants.items():
        space = SearchSpace(bounds=SEARCH_BOUNDS, pinned=pins)
        result = minimize(fit_objective(dataset, window), space,
                          budget=args.budget, seed=seed)
        params = ModelParams.from_dict(result.best_params)
        predicted = simulate_observed(params, dataset.config,
                                      dataset.config.horizon)
        total = predicted.series("total")
        for h in args.horizons:
            span = slice(window.t_begin, h + 1)
            scores[name][h].append(mape(observed_total[span], total[span]))

print(f"median total-series MAPE over {len(args.seeds)} seeds, "
      f"window {window.t_begin}..{window.t_end}")
print("horizon   reparam     original")
for h in args.horizons:
    row = [float(np.median(scores[name][h])) for name in ("reparam", "original")]
    print(f"{h:<9d} {row[0]:<11.2f} {row[1]:<11.2f}")
