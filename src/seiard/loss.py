"""Fit loss: mean absolute percentage error between reported and simulated
case series over a training window."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, simulate_observed_batch
from .synthdata import Dataset

# Denominator guard: counts below one person are treated as one person so a
# near-empty series cannot blow the percentage error up.
EPSILON_PERSONS = 1.0

# At most this many vectors, and this many solved day-columns (vectors times
# horizon + 1), per simulate_observed_batch call, which bounds its
# (vectors, 4, horizon + 1) array.
BATCH_COLUMNS = 256
BATCH_DAY_COLUMNS = 20_000


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
    return float(_mape_rows(truth.ravel(), predicted.ravel()))


def _mape_rows(truth: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """mape along the last axis of arrays that broadcast together.

    Each row is summed along the contiguous last axis, as np.mean sums a 1-D
    array, so a row's value is bit-equal to mape of that row alone.
    """
    errors = np.abs(truth - predicted) / np.maximum(truth, EPSILON_PERSONS)
    return 100.0 * (np.add.reduce(np.ascontiguousarray(errors), axis=-1)
                    / truth.shape[-1])


def _check_window(dataset: Dataset, window: FitWindow) -> None:
    if window.t_end > dataset.config.horizon:
        raise ValueError(
            f"window end {window.t_end} exceeds dataset horizon {dataset.config.horizon}")


def _mean_mape(reported: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Mean over OBSERVED_SERIES of mape(reported row, predicted row).

    reported has shape (4, n) and predicted (..., 4, n).  The four values are
    added one at a time from the first, as np.mean adds four values, so the
    result equals np.mean([mape(r, p) for r, p in zip(reported, predicted)])
    bit for bit; a reduction along axis 0 would add them in another order.
    """
    first, second, third, fourth = _mape_rows(reported, predicted).T
    return (first + second + third + fourth) / 4


def fit_loss(dataset: Dataset, params: ModelParams, window: FitWindow) -> float:
    """Average MAPE of the three reported series plus their total over the
    window, for one candidate parameter vector: fit_loss_batch of one."""
    return float(fit_loss_batch(dataset, [params], window)[0])


def fit_loss_batch(dataset: Dataset, params, window: FitWindow) -> np.ndarray:
    """The fit loss for each of a sequence of parameter vectors, as an array.

    Simulation always starts at day 0 in the dataset's scenario (its observed
    initial counts, population and step) with the candidate's e0/i0, so the
    window only selects which days are scored.  An entry is +inf where its
    solve diverges.  The vectors go to simulate_observed_batch in chunks whose
    sizes differ by at most one, each within BATCH_COLUMNS vectors and
    BATCH_DAY_COLUMNS day-columns.
    """
    params = list(params)
    _check_window(dataset, window)
    reported = dataset.observed.window(window.t_begin, window.t_end).values
    losses = np.empty(len(params))
    width = max(1, min(BATCH_COLUMNS, BATCH_DAY_COLUMNS // (window.t_end + 1)))
    count = -(-len(params) // width)
    for k in range(count):
        start, stop = len(params) * k // count, len(params) * (k + 1) // count
        observed, diverged = simulate_observed_batch(
            params[start:stop], dataset.config, window.t_end)
        values = _mean_mape(reported, observed[:, :, window.t_begin:])
        values[diverged] = math.inf
        losses[start:stop] = values
    return losses


class FitObjective:
    """The objective optimize.minimize takes to fit the dataset over the
    window: a callable mapping a list of candidate {name: value} dicts to one
    loss per candidate.

    It gives fit_loss_batch over the candidates, or applies a custom
    loss_fn(dataset, params, window) -> float to each candidate in turn.
    The class is module level so that it pickles into worker processes.
    """

    def __init__(self, dataset: Dataset, window: FitWindow, loss_fn=None):
        self.dataset = dataset
        self.window = window
        self.loss_fn = loss_fn

    def __call__(self, candidates):
        params = [ModelParams.from_dict(c) for c in candidates]
        if self.loss_fn is None:
            return fit_loss_batch(self.dataset, params, self.window)
        return [self.loss_fn(self.dataset, p, self.window) for p in params]


def fit_objective(dataset: Dataset, window: FitWindow, loss_fn=None) -> FitObjective:
    """The FitObjective for the dataset and window."""
    return FitObjective(dataset, window, loss_fn)
