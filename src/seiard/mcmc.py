"""Metropolis-within-Gibbs sampler over (theta, s): truncated-Gaussian
random-walk Metropolis on the model parameters, exact inverse-gamma Gibbs
draws of the observation variance s.

The likelihood compares day-over-day log-increments of the reported series:
z[t] = log X[t] - log X[t-1], modeled as Normal(model increment, s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtr

from . import defaults
from .artifacts import write_csv
from .dynamics import DivergenceError, ModelParams, ObservedSeries, simulate_observed
from .loss import EPSILON_PERSONS, FitWindow
from .optimize import SearchSpace, truncated_normal
from .synthdata import Dataset


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings.

    space gives the truncation box and the pinned values; pinned values are
    excluded from sampling entirely and carried through to every draw.
    """

    window: FitWindow
    space: SearchSpace = field(
        default_factory=lambda: SearchSpace(dict(defaults.SEARCH_BOUNDS)))
    proposal_variances: dict[str, float] = field(
        default_factory=lambda: dict(defaults.PROPOSAL_VARIANCES))
    u: float = defaults.VARIANCE_PRIOR_SHAPE
    v: float = defaults.VARIANCE_PRIOR_SCALE
    n_samples: int = 20_000
    n_burn: int = 5_000
    n_chains: int = 4
    thin: int = 5
    seed: int = 0
    hastings_correction: bool = True

    def __post_init__(self):
        if not (self.u > 0 and self.v > 0):
            raise ValueError(f"need u > 0 and v > 0, got u={self.u}, v={self.v}")
        if not 0 <= self.n_burn < self.n_samples:
            raise ValueError(
                f"need 0 <= n_burn < n_samples, got {self.n_burn} vs {self.n_samples}")
        if self.thin < 1 or self.n_chains < 1:
            raise ValueError("thin and n_chains must be >= 1")
        for name in self.space.free_names:
            variance = self.proposal_variances.get(name)
            if variance is None or variance <= 0:
                raise ValueError(f"{name}: proposal variance must be > 0, got {variance}")

    @property
    def prior_mean_s(self) -> float:
        return self.v / (self.u - 1.0) if self.u > 1.0 else self.v


@dataclass(frozen=True)
class ChainSamples:
    """Retained draws of one chain after burn-in and thinning."""

    param_names: tuple[str, ...]
    pinned: dict[str, float]
    thetas: np.ndarray  # (n_kept, len(param_names))
    s: np.ndarray
    log_post: np.ndarray
    accept_rate: float
    chain_id: int

    def __len__(self) -> int:
        return len(self.s)

    def param(self, name: str) -> np.ndarray:
        if name in self.pinned:
            return np.full(len(self), self.pinned[name])
        return self.thetas[:, self.param_names.index(name)]

    def theta_dict(self, k: int) -> dict[str, float]:
        out = dict(self.pinned)
        for j, name in enumerate(self.param_names):
            out[name] = float(self.thetas[k, j])
        return out

    def iter_draws(self):
        """Yield (ModelParams, s, log_post) per retained draw (model runs only)."""
        for k in range(len(self)):
            yield ModelParams.from_dict(self.theta_dict(k)), float(self.s[k]), float(self.log_post[k])

    def write_csv(self, path) -> None:
        write_csv(path, [*self.param_names, "s", "log_post"],
                  ([*theta, s, log_post] for theta, s, log_post
                   in zip(self.thetas, self.s, self.log_post)))


def log_diff(series) -> np.ndarray:
    """Day-over-day log increments along the last axis, with the one-person
    floor shared with the fit loss; that axis shrinks by one."""
    values = np.maximum(np.asarray(series, dtype=float), EPSILON_PERSONS)
    return np.diff(np.log(values))


def _window_log_diffs(observed: ObservedSeries, window: FitWindow) -> np.ndarray:
    """log_diff of active, recovered and deceased over the window, (3, n_days - 1)."""
    return log_diff(observed.window(window.t_begin, window.t_end).values[:3])


def _model_log_diffs(params: ModelParams, dataset: Dataset, window: FitWindow) -> np.ndarray:
    predicted = simulate_observed(params, dataset.config, window.t_end)
    return _window_log_diffs(predicted, window)


def _residual_ss(params: ModelParams, dataset: Dataset, window: FitWindow,
                 data_z: np.ndarray) -> float:
    model_z = _model_log_diffs(params, dataset, window)
    return float(((model_z - data_z) ** 2).sum())


def _gaussian_loglik(residual_ss: float, count: int, s: float) -> float:
    return -0.5 * count * math.log(2.0 * math.pi * s) - residual_ss / (2.0 * s)


def log_likelihood(dataset: Dataset, params: ModelParams, s: float,
                   window: FitWindow) -> float:
    """Gaussian log-likelihood of the reported log-increments under the model.

    Sums over active, recovered and deceased and over t in (t_begin, t_end].
    Returns -inf when the candidate diverges the solver.
    """
    if s <= 0:
        raise ValueError(f"variance s must be > 0, got {s}")
    data_z = _window_log_diffs(dataset.observed, window)
    try:
        residual = _residual_ss(params, dataset, window, data_z)
    except DivergenceError:
        return -math.inf
    return _gaussian_loglik(residual, data_z.size, s)


def concentrated_neg_log_likelihood(dataset: Dataset, params: ModelParams,
                                    window: FitWindow) -> float:
    """Negative log-likelihood with the noise variance maximized out.

    For residual sum R over n log-increment residuals the likelihood peaks at
    s = R/n, giving n/2 * (log(2*pi*R/n) + 1).  Useful as a profiling
    objective in the same units the sampler targets.  Returns +inf when the
    candidate diverges the solver.
    """
    data_z = _window_log_diffs(dataset.observed, window)
    try:
        residual = _residual_ss(params, dataset, window, data_z)
    except DivergenceError:
        return math.inf
    count = data_z.size
    residual = max(residual, np.finfo(float).tiny * count)
    return 0.5 * count * (math.log(2.0 * math.pi * residual / count) + 1.0)


def propose(theta_prev: dict[str, float], config: McmcConfig, rng) -> tuple[dict[str, float], float]:
    """One truncated-Gaussian random-walk proposal.

    Each free coordinate is drawn from Normal(previous value, configured
    variance) truncated to its bounds.  Returns the proposal and the log
    Hastings correction sum(log Z(previous) - log Z(proposed)) where Z(c) is
    the truncation mass of the kernel centered at c; adding it to the
    log-likelihood difference restores detailed balance near the bounds.
    """
    space = config.space
    names = space.free_names
    bounds = space.free_bounds()
    lo, hi = bounds[:, 0], bounds[:, 1]
    centers = space.extract_free(theta_prev)
    for name, center, a, b in zip(names, centers, lo, hi):
        if not a <= center <= b:
            raise ValueError(f"{name}={center} outside bounds [{a}, {b}]")
    sd = np.array([math.sqrt(config.proposal_variances[name]) for name in names])
    draws, mass_prev = truncated_normal(centers, sd, lo, hi, rng.random(len(names)))
    mass_new = ndtr((hi - draws) / sd) - ndtr((lo - draws) / sd)
    theta_new = dict(theta_prev)
    correction = 0.0
    for name, draw, before, after in zip(names, draws.tolist(), mass_prev.tolist(),
                                         mass_new.tolist()):
        theta_new[name] = draw
        correction += math.log(before)
        correction -= math.log(after)
    return theta_new, correction


def variance_posterior(residual_ss: float, window: FitWindow,
                       config: McmcConfig) -> tuple[float, float]:
    """Inverse-gamma posterior hyperparameters (u_k, v_k) for the observation
    variance given the current residual sum of squares."""
    u_k = config.u + 2.0 * (window.t_end - window.t_begin - 1)
    v_k = config.v + residual_ss / 2.0
    return u_k, v_k


def draw_inverse_gamma(u_k: float, v_k: float, rng) -> float:
    """One draw from InvGamma(shape u_k, scale v_k); mean is v_k/(u_k - 1)."""
    return float(v_k / rng.gamma(shape=u_k, scale=1.0))


def _log_s_prior(s: float, config: McmcConfig) -> float:
    u, v = config.u, config.v
    return u * math.log(v) - float(gammaln(u)) - (u + 1.0) * math.log(s) - v / s


def run_chain(dataset: Dataset, config: McmcConfig, chain_id: int = 0,
              log_lik_fn=None) -> ChainSamples:
    """Run one chain from an over-dispersed (uniform-over-bounds) start.

    Args:
        dataset: observed series plus generating config.
        config: sampler settings; chain seed is derived from (config.seed,
            chain_id) so chains are independent and reproducible.
        chain_id: index of this chain.
        log_lik_fn: test hook replacing the model log-likelihood with a
            callable (theta_dict, s) -> real.  Without it s is drawn from
            its conditional each iteration; with it s stays at the prior
            mean.

    Returns:
        ChainSamples with burn-in discarded and thinning applied.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, chain_id)))
    space = config.space
    names = space.free_names
    window = config.window

    use_model = log_lik_fn is None
    if use_model:
        data_z = _window_log_diffs(dataset.observed, window)
        count = data_z.size

        def residual_of(theta: dict) -> float:
            try:
                return _residual_ss(ModelParams.from_dict(theta), dataset, window,
                                    data_z)
            except DivergenceError:
                return math.inf

    bounds = space.free_bounds()
    theta = space.assemble(rng.uniform(bounds[:, 0], bounds[:, 1]))
    s = config.prior_mean_s
    if use_model:
        residual = residual_of(theta)
        current_ll = _gaussian_loglik(residual, count, s) if math.isfinite(residual) else -math.inf
    else:
        current_ll = log_lik_fn(theta, s)

    n_kept = len(range(config.n_burn, config.n_samples, config.thin))
    thetas = np.empty((n_kept, len(names)))
    s_draws = np.empty(n_kept)
    log_posts = np.empty(n_kept)
    kept = 0
    accepted = 0

    for iteration in range(config.n_samples):
        proposal, correction = propose(theta, config, rng)
        if use_model:
            proposal_residual = residual_of(proposal)
            proposal_ll = (_gaussian_loglik(proposal_residual, count, s)
                           if math.isfinite(proposal_residual) else -math.inf)
        else:
            proposal_ll = log_lik_fn(proposal, s)
        # -inf minus -inf is nan; a divergent proposal is always rejected and
        # any finite proposal escapes a divergent state.
        if proposal_ll == -math.inf:
            log_alpha = -math.inf
        elif current_ll == -math.inf:
            log_alpha = math.inf
        else:
            log_alpha = proposal_ll - current_ll
            if config.hastings_correction:
                log_alpha += correction
        if log_alpha >= 0.0 or math.log(rng.uniform()) < log_alpha:
            theta = proposal
            current_ll = proposal_ll
            if use_model:
                residual = proposal_residual
            accepted += 1

        if use_model and math.isfinite(residual):
            u_k, v_k = variance_posterior(residual, window, config)
            s = draw_inverse_gamma(u_k, v_k, rng)
            current_ll = _gaussian_loglik(residual, count, s)

        if iteration >= config.n_burn and (iteration - config.n_burn) % config.thin == 0:
            thetas[kept] = [theta[name] for name in names]
            s_draws[kept] = s
            log_posts[kept] = current_ll + _log_s_prior(s, config)
            kept += 1

    return ChainSamples(
        param_names=names,
        pinned=dict(space.pinned),
        thetas=thetas,
        s=s_draws,
        log_post=log_posts,
        accept_rate=accepted / config.n_samples,
        chain_id=chain_id,
    )


def run_chains(dataset: Dataset, config: McmcConfig, **kwargs) -> list[ChainSamples]:
    """All configured chains, sequentially, with per-chain derived seeds."""
    return [run_chain(dataset, config, chain_id=k, **kwargs)
            for k in range(config.n_chains)]


def pooled_param(chains: list[ChainSamples], name: str) -> np.ndarray:
    """Concatenated retained draws of one parameter across chains."""
    return np.concatenate([chain.param(name) for chain in chains])


def gelman_rubin(chains: list[ChainSamples]) -> dict[str, float]:
    """Potential scale reduction factor per free parameter across chains.

    Uses the classic multi-chain estimate: with m chains of n draws,
    W = mean within-chain variance, B/n = variance of chain means,
    V = (n-1)/n W + (1 + 1/m) B/n, and R-hat = sqrt(V/W).
    """
    if len(chains) < 2:
        raise ValueError("gelman_rubin needs at least two chains")
    n = min(len(chain) for chain in chains)
    if n < 2:
        raise ValueError("chains too short for a variance estimate")
    result = {}
    for name in chains[0].param_names:
        draws = np.stack([chain.param(name)[:n] for chain in chains])
        within = draws.var(axis=1, ddof=1).mean()
        between_over_n = draws.mean(axis=1).var(ddof=1)
        if within == 0.0:
            result[name] = 1.0 if between_over_n == 0.0 else math.inf
            continue
        v_hat = (n - 1) / n * within + (1.0 + 1.0 / len(chains)) * between_over_n
        result[name] = math.sqrt(v_hat / within)
    return result
