"""Fit loss: mean absolute percentage error between reported and simulated
case series over a training window."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DivergenceError, ModelParams, simulate_observed
from .synthdata import Dataset

# Denominator guard: counts below one person are treated as one person so a
# near-empty series cannot blow the percentage error up.
EPSILON_PERSONS = 1.0

LOSS_SERIES = ("active", "recovered", "deceased", "total")


@dataclass(frozen=True)
class FitWindow:
    """Inclusive integer day range [t_begin, t_end] used for fitting."""

    t_begin: int
    t_end: int

    def __post_init__(self):
        if not (0 <= self.t_begin < self.t_end):
            raise ValueError(
                f"need 0 <= t_begin < t_end, got [{self.t_begin}, {self.t_end}]")

    @property
    def n_days(self) -> int:
        return self.t_end - self.t_begin + 1


def mape(truth, predicted) -> float:
    """Mean absolute percentage error with the denominator floored at
    EPSILON_PERSONS."""
    truth = np.asarray(truth, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if truth.shape != predicted.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {predicted.shape}")
    if truth.size == 0:
        raise ValueError("mape needs at least one point")
    denom = np.maximum(truth, EPSILON_PERSONS)
    return float(100.0 * np.mean(np.abs(truth - predicted) / denom))


def fit_loss(dataset: Dataset, params: ModelParams, window: FitWindow,
             dt: float = 0.1) -> float:
    """Average MAPE of the three reported series plus their total over the
    window, for a candidate parameter vector.

    Simulation always starts at day 0 with the dataset's observed initial
    counts and the candidate's e0/i0, so the window only selects which days
    are scored.  Returns +inf when the candidate makes the solver diverge.
    """
    if window.t_end > dataset.config.horizon:
        raise ValueError(
            f"window end {window.t_end} exceeds dataset horizon {dataset.config.horizon}")
    config = dataset.config
    try:
        simulated = simulate_observed(params, config.population_n,
                                      config.init_observed,
                                      config.a0_fatal_fraction, window.t_end, dt)
    except DivergenceError:
        return math.inf
    predicted = simulated.window(window.t_begin, window.t_end)
    reported = dataset.observed.window(window.t_begin, window.t_end)
    return float(np.mean([
        mape(reported.series(name), predicted.series(name)) for name in LOSS_SERIES
    ]))
