"""Profile likelihood: per-parameter curves of the fit loss with all other
parameters minimized out, shape-based identifiability verdicts, and
sub-level-set confidence intervals.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from . import defaults
from .artifacts import write_csv, write_json
from .loss import FitWindow, fit_objective
from .optimize import NoFeasiblePointError, SearchSpace, minimize
from .posterior import loss_quantile
from .synthdata import Dataset

LOG_SPACED_PARAMS = ("t_inc", "t_inf", "t_recov", "t_fatal")
GRID_POINTS = 25
# the fewest grid points unimodality_verdict can classify
MIN_GRID_POINTS = 5
PLATEAU_SPAN_LIMIT = 0.2

VERDICT_IDENTIFIABLE = "identifiable"
VERDICT_NON_IDENTIFIABLE = "non-identifiable"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PlCurve:
    """Profile of the fit loss along one parameter.

    argmins[j] holds the complementary parameter dict that attained
    profiled_loss[j]; failed[j] marks grid points whose inner optimization
    found no feasible point (their loss is +inf, never silently dropped).
    """

    param_name: str
    grid: np.ndarray
    profiled_loss: np.ndarray
    argmins: tuple[dict[str, float], ...]
    failed: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not (len(self.grid) == len(self.profiled_loss)
                == len(self.argmins) == len(self.failed)):
            raise ValueError("curve arrays must share one length")

    @property
    def min_loss(self) -> float:
        return float(np.min(self.profiled_loss))

    def write_csv(self, path) -> None:
        write_csv(path, ["theta", "profiled_loss"],
                  zip(self.grid, self.profiled_loss))


@dataclass(frozen=True)
class PlInterval:
    """Sub-level set {theta : profiled loss <= threshold} as grid segments."""

    alpha: float
    threshold: float
    segments: tuple[tuple[float, float], ...]
    censored_left: bool
    censored_right: bool

    @property
    def width(self) -> float:
        return sum(hi - lo for lo, hi in self.segments)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "threshold": self.threshold,
            "segments": [[lo, hi] for lo, hi in self.segments],
            "censored_left": self.censored_left,
            "censored_right": self.censored_right,
        }


def default_grid(param_name: str, bounds: tuple[float, float],
                 n_points: int = GRID_POINTS) -> np.ndarray:
    """Grid over the search interval: log-spaced for the time constants,
    linear for rates, fractions and initial counts."""
    lo, hi = bounds
    if param_name in LOG_SPACED_PARAMS:
        if lo <= 0:
            raise ValueError(f"log grid needs lo > 0, got {lo} for {param_name}")
        return np.geomspace(lo, hi, n_points)
    return np.linspace(lo, hi, n_points)


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _profile_point(objective, param_name: str, value: float,
                   space: SearchSpace, inner_budget: int, seed: int,
                   method: str, init_points) -> tuple[float, dict, bool]:
    try:
        result = minimize(objective, space.pin(param_name, value),
                          budget=inner_budget, seed=seed, method=method,
                          init_points=init_points)
    except NoFeasiblePointError:
        return math.inf, {}, True
    complementary = {k: v for k, v in result.best_params.items() if k != param_name}
    return result.best_loss, complementary, False


def _strip_to_free(params: dict[str, float], space: SearchSpace,
                   drop: str) -> list[float] | None:
    free = [name for name in space.free_names if name != drop]
    try:
        return [params[name] for name in free]
    except KeyError:
        return None


def _sweep(objective, param_name: str, grid: np.ndarray, indices,
           start: list[float] | None, space: SearchSpace, inner_budget: int,
           seed: int, method: str) -> list[tuple[int, float, dict, bool]]:
    """Profile grid[j] for j in indices, in order; each inner fit also starts
    from the previous feasible argmin, the first from `start` (or none)."""
    results = []
    previous = start
    for j in indices:
        init = [previous] if previous is not None else None
        loss, argmin, failed = _profile_point(
            objective, param_name, float(grid[j]), space, inner_budget,
            _point_seed(seed, j), method, init)
        results.append((j, loss, argmin, failed))
        if not failed:
            previous = _strip_to_free({**argmin, param_name: grid[j]},
                                      space, param_name)
    return results


def _sweep_star(job):
    return _sweep(*job)


def profile_likelihood(dataset: Dataset, param_name: str, grid=None,
                       space: SearchSpace | None = None,
                       window: FitWindow = None,
                       inner_budget: int = 300, seed: int = 0,
                       method: str = "random+nm", warm_start: bool = True,
                       center: dict[str, float] | None = None,
                       n_jobs: int = 1, loss_fn=None) -> PlCurve:
    """Profile the fit loss along one free parameter.

    The grid is covered by sweeps, ordered runs in which each inner fit also
    starts from the previous point's argmin.  With warm_start two sweeps run
    outward from the global fit, which suppresses spurious bumps caused by
    inner optimizer failures; without it every grid point is its own sweep.
    Each grid point has its own seed, so the curve is the same for any n_jobs.

    Args:
        dataset: observations to fit against.
        param_name: the profiled parameter; must be free in the space.
        grid: strictly increasing values; defaults to the standard 25-point
            grid over the parameter's search interval.
        space: search box (with any pinned parameters); defaults to the full
            standard box.
        window: fit window, defaulting to the standard training window.
        inner_budget: objective evaluations per grid point.
        seed: base seed; each grid point derives its own stream from it.
        method: inner optimizer method.
        center: optional known global-fit parameter dict; when absent and
            warm-starting, a global fit is run first.
        n_jobs: above 1, the sweeps run in up to this many processes.
        loss_fn: loss as (dataset, params, window) -> float, applied to
            one candidate at a time; defaults to the standard fit loss.
            Must be picklable when n_jobs > 1.

    Returns:
        PlCurve over the grid.
    """
    if space is None:
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS))
    if param_name not in space.free_names:
        raise ValueError(f"{param_name} is not free in the search space")
    if window is None:
        window = FitWindow(*defaults.DEFAULT_WINDOW)
    if grid is None:
        grid = default_grid(param_name, space.bounds[param_name])
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    n = grid.size

    objective = fit_objective(dataset, window, loss_fn)
    if warm_start:
        if center is None:
            # the global fit gets the seed slot one past the grid indices
            fit = minimize(objective, space, budget=inner_budget,
                           seed=_point_seed(seed, n), method=method)
            center = fit.best_params
        k = int(np.argmin(np.abs(grid - center[param_name])))
        from_center = _strip_to_free(center, space, param_name)
        sweeps = [(range(k, n), from_center),
                  (range(k - 1, -1, -1), from_center)]
    else:
        sweeps = [((j,), None) for j in range(n)]
    jobs = [(objective, param_name, grid, indices, start, space, inner_budget,
             seed, method) for indices, start in sweeps]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs))) as pool:
            outputs = list(pool.map(_sweep_star, jobs))
    else:
        outputs = map(_sweep_star, jobs)
    # the sweeps cover every grid index once
    _, losses, argmins, failed = zip(*sorted(
        point for results in outputs for point in results))
    return PlCurve(param_name, grid, np.array(losses), argmins, np.array(failed))


def _merged_runs(values: np.ndarray, tol: float) -> list[str]:
    """Collapse the discrete slope sequence into runs of 'down', 'flat', 'up'."""
    kinds = []
    for step in np.diff(values):
        if abs(step) <= tol:
            kind = "flat"
        else:
            kind = "up" if step > 0 else "down"
        if not kinds or kinds[-1] != kind:
            kinds.append(kind)
    return kinds


def unimodality_verdict(curve: PlCurve, rel_tol: float = 0.05) -> str:
    """Classify the curve shape for statistical identifiability.

    A single tolerance-smoothed descent/ascent pair is `identifiable`; two
    or more separated basins, or a global-minimum plateau wider than 20% of
    the grid span, is `non-identifiable`; anything else (monotone curves,
    minima pinned at an edge) is `inconclusive`.
    """
    if len(curve.grid) < MIN_GRID_POINTS:
        raise ValueError(f"verdict needs at least {MIN_GRID_POINTS} grid points")
    finite = curve.profiled_loss[np.isfinite(curve.profiled_loss)]
    if finite.size < 5:
        return VERDICT_INCONCLUSIVE
    values = curve.profiled_loss
    value_range = float(finite.max() - finite.min())
    tol = rel_tol * value_range

    if value_range == 0.0:
        return VERDICT_NON_IDENTIFIABLE

    # width of the global-minimum band, as a fraction of the grid span
    band = np.isfinite(values) & (values <= finite.min() + tol)
    band_indices = np.nonzero(band)[0]
    span = curve.grid[-1] - curve.grid[0]
    plateau = (curve.grid[band_indices[-1]] - curve.grid[band_indices[0]]) / span

    runs = _merged_runs(np.where(np.isfinite(values), values, finite.max()), tol)
    directional = [r for r in runs if r != "flat"]
    valleys = sum(1 for a, b in zip(directional, directional[1:])
                  if (a, b) == ("down", "up"))

    if valleys >= 2 or plateau > PLATEAU_SPAN_LIMIT:
        return VERDICT_NON_IDENTIFIABLE
    if valleys == 1:
        return VERDICT_IDENTIFIABLE
    return VERDICT_INCONCLUSIVE


def pl_interval(curve: PlCurve, threshold: float, alpha: float = 0.95) -> PlInterval:
    """Sub-level set of the profiled loss at the given threshold.

    Crossing points are linearly interpolated between grid neighbors; the
    censoring flags record whether the level set touches a grid end, meaning
    the true interval extends beyond the searched range.
    """
    values = curve.profiled_loss
    if not threshold >= curve.min_loss:
        raise ValueError(f"threshold {threshold} is not at or above the curve "
                         f"minimum {curve.min_loss}")
    inside = np.isfinite(values) & (values <= threshold)
    segments = []
    j = 0
    n = len(values)
    while j < n:
        if not inside[j]:
            j += 1
            continue
        k = j
        while k + 1 < n and inside[k + 1]:
            k += 1
        lo = curve.grid[j]
        if j > 0 and np.isfinite(values[j - 1]):
            frac = (threshold - values[j]) / (values[j - 1] - values[j])
            lo = curve.grid[j] + frac * (curve.grid[j - 1] - curve.grid[j])
        hi = curve.grid[k]
        if k + 1 < n and np.isfinite(values[k + 1]):
            frac = (threshold - values[k]) / (values[k + 1] - values[k])
            hi = curve.grid[k] + frac * (curve.grid[k + 1] - curve.grid[k])
        segments.append((float(lo), float(hi)))
        j = k + 1
    return PlInterval(
        alpha=alpha,
        threshold=float(threshold),
        segments=tuple(segments),
        censored_left=bool(inside[0]),
        censored_right=bool(inside[-1]),
    )


def chi2_threshold(curve: PlCurve, alpha: float = 0.95) -> float:
    """Alternate threshold mode: curve minimum plus the chi-square(1)
    quantile, for the squared-loss special case.

    The quantile is 2 * gammaincinv(1/2, alpha), the formula behind
    scipy.stats.chi2.ppf(alpha, df=1) and equal to it bit for bit; importing
    scipy.stats would add about half a second to every start-up.
    """
    return curve.min_loss + float(2.0 * gammaincinv(0.5, alpha))


def posterior_loss_threshold(dataset: Dataset, chains, window: FitWindow,
                             alpha: float = 0.95, max_draws: int = 2000,
                             seed: int = 0) -> tuple[float, np.ndarray]:
    """Default threshold mode: empirical alpha-quantile of the fit loss
    evaluated at posterior draws (subsampled without replacement when the
    pooled chains exceed max_draws)."""
    draws = []
    for chain in chains:
        draws.extend(chain.iter_draws())
    if len(draws) > max_draws:
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(len(draws), size=max_draws, replace=False))
        draws = [draws[k] for k in keep]
    objective = fit_objective(dataset, window)
    losses = np.array([objective.score(params) for params, _, _ in draws])
    return loss_quantile(losses, alpha), losses


def write_pl_json(path, curve: PlCurve, interval: PlInterval | None = None,
                  verdict: str | None = None,
                  warm_start: bool | None = None) -> None:
    payload = {
        "param": curve.param_name,
        "grid": [float(v) for v in curve.grid],
        "profiled_loss": [float(v) for v in curve.profiled_loss],
        "failed_points": [int(j) for j in np.nonzero(curve.failed)[0]],
    }
    if interval is not None:
        payload["interval"] = interval.to_dict()
    if verdict is not None:
        payload["verdict"] = verdict
    if warm_start is not None:
        payload["warm_start"] = warm_start
    write_json(path, payload)
