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
    truth = truth.reshape(1, -1)
    floor = np.maximum(truth, EPSILON_PERSONS)
    return _mape_rows(truth, floor, predicted.reshape(1, -1))[0]


def _mape_rows(truth: np.ndarray, floor: np.ndarray, predicted: np.ndarray) -> list:
    """mape of each row of 2-D arrays, as floats, given floor =
    np.maximum(truth, EPSILON_PERSONS).

    Each row is summed along the contiguous last axis, as np.mean sums a 1-D
    array, so a row's value is bit-equal to mape of that row alone.
    """
    errors = np.abs(truth - predicted)
    errors /= floor
    return [100.0 * (total / truth.shape[1])
            for total in np.add.reduce(errors, axis=1).tolist()]


class FitObjective:
    """The fit loss over the window, as the objective optimize.minimize
    takes: a callable mapping one candidate {name: value} dict to one loss.

    Simulation always starts at day 0 in the dataset's scenario (its observed
    initial counts, population and step) with the candidate's e0/i0, so the
    window only selects which days are scored.  The loss is the average MAPE
    of the three reported series plus their total, or +inf where the solve
    diverges.  The window's reported rows and their floored denominators are
    taken once, here.  A custom loss_fn(dataset, params, window) -> float
    replaces the fit loss.  The class is module level so that it pickles
    into worker processes.
    """

    def __init__(self, dataset: Dataset, window: FitWindow, loss_fn=None):
        if window.t_end > dataset.config.horizon:
            raise ValueError(f"window end {window.t_end} exceeds dataset "
                             f"horizon {dataset.config.horizon}")
        self.dataset = dataset
        self.window = window
        self.loss_fn = loss_fn
        self.reported = dataset.observed.window(window.t_begin, window.t_end).values
        self.floor = np.maximum(self.reported, EPSILON_PERSONS)

    def __call__(self, candidate) -> float:
        return self.score(ModelParams.from_dict(candidate))

    def score(self, params: ModelParams) -> float:
        """The loss of one parameter vector."""
        if self.loss_fn is not None:
            return self.loss_fn(self.dataset, params, self.window)
        try:
            observed = simulate_observed(params, self.dataset.config, self.window.t_end)
        except DivergenceError:
            return math.inf
        # the four means added one at a time from the first, as np.mean adds
        # four values
        first, second, third, fourth = _mape_rows(
            self.reported, self.floor,
            observed.values[:, self.window.t_begin:])
        return (first + second + third + fourth) / 4


def fit_loss(dataset: Dataset, params: ModelParams, window: FitWindow) -> float:
    """The fit loss of one candidate parameter vector over the window."""
    return FitObjective(dataset, window).score(params)


def fit_objective(dataset: Dataset, window: FitWindow, loss_fn=None) -> FitObjective:
    """The FitObjective for the dataset and window."""
    return FitObjective(dataset, window, loss_fn)
