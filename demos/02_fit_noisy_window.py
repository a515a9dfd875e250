"""Fit the reduced model to a noisy 28-day window and compare the recovered
parameters with the generating truth.

Only beta, t_recov, p_fatal and the two seed counts are free; the three
pinned timescales play the role of values taken from prior studies.
"""

from seiard import FitWindow, SearchSpace, fit_objective, generate, minimize
from seiard.defaults import (
    DEFAULT_WINDOW,
    FIT_BUDGET_REPARAM,
    REPARAM_PINS,
    SEARCH_BOUNDS,
    TRUE_PARAMS,
)
from seiard.dynamics import ModelParams
from seiard.loss import fit_loss
from seiard.synthdata import NoiseSpec, default_config


def main():
    dataset = generate(default_config(noise=NoiseSpec(0.05), seed=4))
    window = FitWindow(*DEFAULT_WINDOW)
    space = SearchSpace(bounds=SEARCH_BOUNDS, pinned=REPARAM_PINS)

    objective = fit_objective(dataset, window)
    result = minimize(objective, space, budget=FIT_BUDGET_REPARAM, seed=1)
    print(f"evaluations: {result.budget_used}, best loss {result.best_loss:.3f} "
          "(mean per-series MAPE, percent)")
    print()

    truth = TRUE_PARAMS.as_dict()
    print("param     fitted      true        rel err")
    for name in space.free_names:
        fitted = result.best_params[name]
        err = abs(fitted - truth[name]) / truth[name]
        print(f"{name:<9s} {fitted:<11.5f} {truth[name]:<11.5f} {err:.2%}")
    in_sample = fit_loss(dataset, ModelParams.from_dict(result.best_params), window)
    print(f"\nrefit check: {in_sample:.6f} == {result.best_loss:.6f}")


if __name__ == "__main__":
    main()
