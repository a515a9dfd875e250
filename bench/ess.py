"""Rank-normalised bulk and tail effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC" (arXiv:1903.08008): chains are split in half,
draws are replaced by normal scores of their pooled ranks (bulk) or by
indicators of the 5 % and 95 % quantiles (tail), and the autocorrelation sum
is truncated with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of one chain at lags 0..n-1, by FFT."""
    n = x.size
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x - x.mean(), size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n


def ess(chains) -> float:
    """Effective sample size of an (m, n) array of m chains, no splitting or
    rank normalisation.  Returns nan when every draw is the same."""
    chains = np.asarray(chains, dtype=float)
    m, n = chains.shape
    if n < 4:
        raise ValueError(f"need at least 4 draws per chain, got {n}")
    acov = np.stack([_autocovariance(chain) for chain in chains])
    mean_within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_within * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return math.nan

    def rho(lag: int) -> float:
        return 1.0 - (mean_within - acov[:, lag].mean()) / var_plus

    # pair sums rho[2k] + rho[2k+1] while they stay positive
    rho_hat = np.zeros(n)
    rho_hat[0] = 1.0
    rho_hat[1] = rho_odd = rho(1)
    rho_even = 1.0
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even, rho_odd = rho(t + 1), rho(t + 2)
        if rho_even + rho_odd >= 0.0:
            rho_hat[t + 1], rho_hat[t + 2] = rho_even, rho_odd
        t += 2
    last = t - 2
    if rho_even > 0.0:
        rho_hat[last + 1] = rho_even
    # initial monotone sequence: pair sums may not increase
    t = 1
    while t <= last - 2:
        if rho_hat[t + 1] + rho_hat[t + 2] > rho_hat[t - 1] + rho_hat[t]:
            rho_hat[t + 1] = rho_hat[t + 2] = (rho_hat[t - 1] + rho_hat[t]) / 2.0
        t += 2
    draws = m * n
    tau = -1.0 + 2.0 * rho_hat[:last + 1].sum() + rho_hat[last + 1]
    tau = max(tau, 1.0 / math.log10(draws))
    return draws / tau


def split_chains(chains) -> np.ndarray:
    """Each chain cut into a first and second half (a middle draw of an odd
    length is dropped)."""
    chains = np.asarray(chains, dtype=float)
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, -half:]])


def _normal_scores(chains: np.ndarray) -> np.ndarray:
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    return ndtri((ranks - 0.375) / (chains.size + 0.25))


def ess_bulk(chains) -> float:
    """Bulk ESS: ESS of the normal scores of the split chains' pooled ranks."""
    return ess(_normal_scores(split_chains(chains)))


def ess_tail(chains) -> float:
    """Tail ESS: the smaller ESS of the indicators of split-chain draws at
    or below the pooled 5 % and 95 % quantiles."""
    split = split_chains(chains)
    return min(ess((split <= np.quantile(split, prob)).astype(float))
               for prob in (0.05, 0.95))
