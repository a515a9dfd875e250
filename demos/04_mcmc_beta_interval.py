"""Sample the reduced-model posterior on a noisy window and report the
credible interval for the transmission rate.

The sampler works on log-increments of the case series with an inverse
gamma prior on the observation variance, so the variance never has to be
tuned by hand. Four chains from dispersed uniform starts give the
Gelman-Rubin check teeth.
"""

import sys

import numpy as np

from seiard import SearchSpace
from seiard.defaults import (
    DEFAULT_WINDOW,
    PROPOSAL_VARIANCES,
    REPARAM_PINS,
    SEARCH_BOUNDS,
    TRUE_PARAMS,
)
from seiard.loss import FitWindow
from seiard.mcmc import McmcConfig, gelman_rubin, pooled_param, run_chains
from seiard.posterior import hpdi
from seiard.synthdata import NoiseSpec, default_config, generate

n_samples = int(sys.argv[1]) if len(sys.argv) > 1 else 8000

dataset = generate(default_config(noise=NoiseSpec(0.05), seed=4))
config = McmcConfig(window=FitWindow(*DEFAULT_WINDOW),
                    space=SearchSpace(SEARCH_BOUNDS, pinned=REPARAM_PINS),
                    proposal_variances=PROPOSAL_VARIANCES,
                    n_samples=n_samples, n_burn=n_samples // 4, n_chains=4,
                    thin=5, seed=0)
chains = run_chains(dataset, config)

kept = sum(len(c) for c in chains)
rates = ", ".join(f"{c.accept_rate:.3f}" for c in chains)
print(f"kept {kept} draws across {len(chains)} chains, accept rates {rates}")

rhat = gelman_rubin(chains)
truth = TRUE_PARAMS.as_dict()
print("\nparam     posterior mean   95% HPDI                 R-hat")
for name in chains[0].param_names:
    draws = pooled_param(chains, name)
    box = hpdi(draws, 0.95)
    interval = f"[{box.lo:.5f}, {box.hi:.5f}]"
    print(f"{name:<9s} {draws.mean():<16.5f} {interval:<24s} {rhat[name]:.4f}")
print(f"\ntruth: " + ", ".join(f"{k}={truth[k]}" for k in chains[0].param_names))

beta = pooled_param(chains, "beta")
box = hpdi(beta, 0.95)
inside = box.lo <= truth["beta"] <= box.hi
print(f"true beta {'inside' if inside else 'OUTSIDE'} the interval, "
      f"width {box.width:.4f}, posterior sd {np.std(beta):.4f}")
