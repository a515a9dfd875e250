"""Zeroth-order bounded minimization for model fitting and the
profile-likelihood inner loop.

Two methods, both deterministic for a fixed seed:

``tpe``
    Sequential model-based optimization with a Tree-structured Parzen
    Estimator: after an initial batch of uniform draws, the observed
    evaluations are split at the gamma-quantile of loss, the good and bad
    subsets are modeled with per-dimension truncated-Gaussian kernel
    mixtures, and the next point maximizes the good/bad density ratio over a
    batch of candidate draws.

``random+nm``
    Uniform random search followed by Nelder-Mead restricted to the box
    (candidate points clipped to the bounds), ported from scipy's bounded
    Nelder-Mead and bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .artifacts import write_csv

METHODS = ("tpe", "random+nm")

TPE_N_INIT = 20
TPE_GAMMA = 0.25
TPE_N_CANDIDATES = 24


class NoFeasiblePointError(RuntimeError):
    """Every evaluation in the run returned +inf or NaN."""


@dataclass(frozen=True)
class SearchSpace:
    """Closed per-parameter intervals plus an optional pinned-value mask.

    Pinned parameters keep an interval (their value must sit inside it) but
    are excluded from the search; every candidate carries the pinned value
    exactly.
    """

    bounds: dict[str, tuple[float, float]]
    pinned: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, (lo, hi) in self.bounds.items():
            if name in self.pinned:
                if not (lo <= self.pinned[name] <= hi):
                    raise ValueError(
                        f"pinned {name}={self.pinned[name]} outside [{lo}, {hi}]")
            elif not lo < hi:
                raise ValueError(f"{name}: need lo < hi, got [{lo}, {hi}]")
        for name in self.pinned:
            if name not in self.bounds:
                raise ValueError(f"pinned {name} has no interval")

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(name for name in self.bounds if name not in self.pinned)

    def free_bounds(self) -> np.ndarray:
        return np.array([self.bounds[name] for name in self.free_names])

    def pin(self, name: str, value: float) -> "SearchSpace":
        """A copy with one more parameter pinned."""
        return SearchSpace(bounds=dict(self.bounds), pinned={**self.pinned, name: value})

    def assemble(self, free_values) -> dict[str, float]:
        # bounds declaration order, not pinned-dict insertion order, so the
        # result is stable however the pinned mapping was built
        values = {**dict(zip(self.free_names, free_values)), **self.pinned}
        return {name: float(values[name]) for name in self.bounds if name in values}

    def extract_free(self, params: dict[str, float]) -> np.ndarray:
        return np.array([params[name] for name in self.free_names])

    def clip_free(self, free_values) -> np.ndarray:
        b = self.free_bounds()
        return np.clip(np.asarray(free_values, dtype=float), b[:, 0], b[:, 1])


@dataclass(frozen=True)
class OptResult:
    best_params: dict[str, float]
    best_loss: float
    evaluations: list  # (params dict, loss) in evaluation order
    budget_used: int

    def write_trace_csv(self, path) -> None:
        names = list(self.evaluations[0][0])
        write_csv(path, ["eval", "loss", *names],
                  ([k, value, *(params[n] for n in names)]
                   for k, (params, value) in enumerate(self.evaluations)))


class _Recorder:
    """Evaluation bookkeeping shared by both methods."""

    def __init__(self, objective, space: SearchSpace, budget: int):
        self.objective = objective
        self.space = space
        self.budget = budget
        self.evaluations: list[tuple[dict, float]] = []
        self.free_points: list[np.ndarray] = []
        self.losses: list[float] = []

    @property
    def exhausted(self) -> bool:
        return len(self.evaluations) >= self.budget

    def evaluate(self, free_values: np.ndarray) -> float:
        """Score one point and record it."""
        params = self.space.assemble(free_values)
        value = float(self.objective(params))
        if math.isnan(value):
            value = math.inf
        self.evaluations.append((params, value))
        self.free_points.append(np.asarray(free_values, dtype=float))
        self.losses.append(value)
        return value

    def result(self) -> OptResult:
        finite = [k for k, v in enumerate(self.losses) if math.isfinite(v)]
        if not finite:
            raise NoFeasiblePointError(
                f"all {len(self.losses)} evaluations returned +inf/NaN")
        best = min(finite, key=lambda k: self.losses[k])
        return OptResult(
            best_params=self.evaluations[best][0],
            best_loss=self.losses[best],
            evaluations=self.evaluations,
            budget_used=len(self.evaluations),
        )


def truncated_normal(centers, sd, lo, hi, u):
    """Inverse-CDF draws from Normal(centers, sd) truncated to [lo, hi].

    All arguments broadcast; u holds one uniform variate in [0, 1) per draw.
    rng.uniform(a, b) is a + (b - a) * rng.random() bit for bit, so variates
    from rng.random() give the draws a per-draw rng.uniform(a, b) gave.

    Returns (draws, mass_at_centers): the draws, clipped into [lo, hi]
    against rounding, and the mass each kernel keeps inside [lo, hi].
    """
    a = ndtr((lo - centers) / sd)
    b = ndtr((hi - centers) / sd)
    mass = b - a
    return np.clip(centers + sd * ndtri(a + mass * u), lo, hi), mass


def _truncated_normal_logpdf(x, centers, bandwidth, lo, hi):
    """Log-density of an equal-weight mixture of truncated Gaussians plus one
    uniform component over [lo, hi], for each of D dimensions at once.

    x: (D, k) points, centers: (D, m), bandwidth, lo, hi: (D,); returns
    (D, k).  Scalar logarithms go through math.log, and every reduction runs
    along the contiguous last axis, so each dimension's row is what the
    computation for that dimension alone gives.
    """
    bw = bandwidth[:, None]
    z = (x[:, :, None] - centers[:, None, :]) / bw[:, :, None]
    log_bw = np.array([math.log(v) for v in bandwidth])[:, None, None]
    log_phi = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_bw
    mass = ndtr((hi[:, None] - centers) / bw) - ndtr((lo[:, None] - centers) / bw)
    log_kernels = log_phi - np.log(np.maximum(mass, 1e-300))[:, None, :]
    log_uniform = np.array([-math.log(b - a) for a, b in zip(lo, hi)])
    uniform = np.broadcast_to(log_uniform[:, None, None], x.shape + (1,))
    stacked = np.concatenate([log_kernels, uniform], axis=2)
    peak = stacked.max(axis=2, keepdims=True)
    return (peak[:, :, 0] + np.log(np.exp(stacked - peak).sum(axis=2))
            - math.log(stacked.shape[2]))


def _tpe_propose(rng, recorder: _Recorder) -> np.ndarray:
    space = recorder.space
    names = space.free_names
    observed = [(p, l) for p, l in zip(recorder.free_points, recorder.losses)
                if math.isfinite(l)]
    if len(observed) < 2:
        return _uniform_draw(rng, space)
    order = sorted(range(len(observed)), key=lambda k: observed[k][1])
    n_good = math.ceil(TPE_GAMMA * len(observed))
    good = np.array([observed[k][0] for k in order[:n_good]])
    bad = np.array([observed[k][0] for k in order[n_good:]])
    if len(bad) == 0:
        return _uniform_draw(rng, space)

    bounds = space.free_bounds()
    # Each candidate cell picks one of the good points' kernels or, for
    # pick == len(good), the uniform component, then takes one uniform
    # variate.  The draws stay scalar and dimension-major so the stream is
    # what it always was; rng.uniform(a, b) is a + (b - a) * rng.random()
    # bit for bit, so the rest runs on arrays.
    shape = (len(names), TPE_N_CANDIDATES)
    picks = np.empty(shape, dtype=int)
    variates = np.empty(shape)
    for d in range(len(names)):
        for k in range(TPE_N_CANDIDATES):
            picks[d, k] = rng.integers(len(good) + 1)
            variates[d, k] = rng.random()
    lo, hi = bounds[:, 0], bounds[:, 1]
    bw_good = (hi - lo) / math.sqrt(len(good))
    # (D, 1) columns broadcast against the (D, K) cells
    lo_c, hi_c, bw_c = lo[:, None], hi[:, None], bw_good[:, None]
    centers = np.take_along_axis(good.T, np.minimum(picks, len(good) - 1), axis=1)
    kernel, _ = truncated_normal(centers, bw_c, lo_c, hi_c, variates)
    uniform = lo_c + (hi_c - lo_c) * variates
    cells = np.where(picks == len(good), uniform, kernel)

    log_good = _truncated_normal_logpdf(cells, good.T, bw_good, lo, hi)
    log_bad = _truncated_normal_logpdf(
        cells, bad.T, (hi - lo) / math.sqrt(len(bad)), lo, hi)
    score = np.zeros(TPE_N_CANDIDATES)
    for d in range(len(names)):
        score += log_good[d]
        score -= log_bad[d]
    return cells[:, int(np.argmax(score))]


def _uniform_draw(rng, space: SearchSpace) -> np.ndarray:
    b = space.free_bounds()
    return rng.uniform(b[:, 0], b[:, 1])


def _run_tpe(recorder: _Recorder, rng, init_points) -> None:
    for point in init_points:
        if recorder.exhausted:
            return
        recorder.evaluate(recorder.space.clip_free(point))
    while not recorder.exhausted:
        if len(recorder.evaluations) < TPE_N_INIT:
            recorder.evaluate(_uniform_draw(rng, recorder.space))
        else:
            recorder.evaluate(_tpe_propose(rng, recorder))


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(func, x0, lower, upper):
    """Bounded Nelder-Mead (Nelder & Mead 1965) until the convergence test.

    A port of scipy 1.17's ``_minimize_neldermead`` (BSD-3-Clause, Copyright
    (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers) for one
    configuration: non-adaptive coefficients, the default initial simplex,
    and bounds handled by clipping every trial point.  It runs the same numpy
    operations in the same order, so it evaluates the same points bit for
    bit.  There is no evaluation or iteration cap: the descent ends when
    every vertex is within 1e-10 of the best one in each coordinate and
    within 1e-12 of it in value, or when func raises.  func gets a copy of
    each point.

    Returns the best vertex and its value.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    xatol, fatol = 1e-10, 1e-12

    def f(x):
        return func(np.copy(x))

    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim[k + 1] = y
    # a vertex past the upper bound is reflected into the box, then clipped
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full((n + 1,), np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k])

    def by_loss(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # argsort is not stable, so ties may move: sort as often as scipy does,
    # twice after the initial simplex and once after every step
    sim, fsim = by_loss(*by_loss(sim, fsim))
    while not (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
               and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lower, upper)
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lower, upper)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lower, upper)
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lower, upper)
                fsim[j] = f(sim[j])
        sim, fsim = by_loss(sim, fsim)
    return sim[0], fsim[0]


def _run_random_nm(recorder: _Recorder, rng, init_points) -> None:
    space = recorder.space
    batch = 10 * len(space.free_names) + 10
    for point in init_points:
        if recorder.exhausted:
            return
        recorder.evaluate(space.clip_free(point))

    # indices already consumed by a Nelder-Mead descent; restarts pick the
    # best point outside them so leftover budget explores fresh basins
    polished: set[int] = set()
    lower, upper = space.free_bounds().T

    def polish(start_index: int) -> None:
        polished.add(start_index)

        def wrapped(x):  # x is inside the box: _nelder_mead clips every point
            if recorder.exhausted:
                raise _BudgetExhausted
            polished.add(len(recorder.evaluations))
            return recorder.evaluate(x)

        try:
            _nelder_mead(wrapped, recorder.free_points[start_index], lower, upper)
        except _BudgetExhausted:
            pass

    def explore() -> None:
        size = min(recorder.budget - len(recorder.evaluations), batch)
        for point in [_uniform_draw(rng, space) for _ in range(size)]:
            recorder.evaluate(point)

    explore()
    while not recorder.exhausted:
        candidates = [k for k, v in enumerate(recorder.losses)
                      if math.isfinite(v) and k not in polished]
        if candidates:
            polish(min(candidates, key=lambda k: recorder.losses[k]))
        else:
            explore()


def minimize(objective, space: SearchSpace, budget: int, seed: int = 0,
             method: str = "random+nm", init_points=None) -> OptResult:
    """Minimize a black-box objective over the search space.

    Args:
        objective: callable taking one {name: value} dict (pinned values
            included) and returning its real loss; +inf marks
            infeasibility.  It is called once per evaluation, in trace order.
        space: intervals and pinned values.
        budget: exact number of objective evaluations to spend (>= 1).
        seed: RNG seed; runs are reproducible and prefix-stable in budget.
        method: "random+nm" (uniform exploration batch, then Nelder-Mead
            descents from the best unpolished points) or "tpe".
        init_points: optional warm-start free-parameter vectors evaluated
            first (clipped to the box, counted against the budget).

    Returns:
        OptResult with the best evaluation and the full trace.

    Raises:
        NoFeasiblePointError: every evaluation came back +inf/NaN.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if not space.free_names:
        raise ValueError("search space has no free parameters")
    recorder = _Recorder(objective, space, budget)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    init_points = [np.asarray(p, dtype=float) for p in (init_points or [])]
    if method == "tpe":
        _run_tpe(recorder, rng, init_points)
    else:
        _run_random_nm(recorder, rng, init_points)
    return recorder.result()
