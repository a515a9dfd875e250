"""Tests of the benchmark's own reference code.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

The reference solver is checked against the closed-form solution at
beta = 0, the ESS estimators against AR(1) chains, and the seiard fit loss,
log-likelihood and sensitivity columns against the reference at random points
of the search box.  The last probe takes a few minutes.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
from ess import ess_bulk, ess_tail  # noqa: E402

POPULATION_N = 1.0e7
INIT_OBSERVED = (5.0, 0.0, 0.0)
PROBE_POINTS = 300
PROBE_SEED = 20210429
PROBE_WINDOWS = (28, 112)
# agreement of the program's RK4 (dt 0.1) with the reference, relative
FIT_LOSS_RTOL = 6e-7
LOG_LIKELIHOOD_RTOL = 2e-7
SENSITIVITY_RTOL = 2e-7


def _exponential_sum(terms, t):
    return sum(c * np.exp(-rate * t) for c, rate in terms)


def _feed(x0, rate, inflow):
    """x' = -rate x + inflow(t), inflow a sum of c exp(-r t) with r != rate,
    as a sum of exponentials."""
    out = [(c / (rate - r), r) for c, r in inflow]
    return [(x0 - sum(c for c, _ in out), rate)] + out


def _integral(x_terms, scale, y0):
    """y' = scale * x(t), y(0) = y0, for x a sum of exponentials: returns
    (constant, terms)."""
    terms = [(-scale * c / r, r) for c, r in x_terms]
    return y0 - sum(c for c, _ in terms), terms


def test_reference_matches_closed_form_at_beta_zero():
    theta = {"beta": 0.0, "t_inc": 5.1, "t_inf": 6.6, "t_recov": 14.0,
             "t_fatal": 10.0, "p_fatal": 0.03, "e0": 3.0, "i0": 2.0}
    sigma, gamma = 1 / theta["t_inc"], 1 / theta["t_inf"]
    k_r, k_f, p = 1 / theta["t_recov"], 1 / theta["t_fatal"], theta["p_fatal"]
    a0 = INIT_OBSERVED[0]
    e = [(theta["e0"], sigma)]
    i = _feed(theta["i0"], gamma, [(sigma * c, r) for c, r in e])
    a_r = _feed((1 - p) * a0, k_r, [((1 - p) * gamma * c, r) for c, r in i])
    a_f = _feed(p * a0, k_f, [(p * gamma * c, r) for c, r in i])
    r_const, r_terms = _integral(a_r, k_r, 0.0)
    d_const, d_terms = _integral(a_f, k_f, 0.0)

    t = np.arange(201, dtype=float)
    states = ref.solve(theta, 200, POPULATION_N, INIT_OBSERVED)
    s0 = POPULATION_N - theta["e0"] - theta["i0"] - a0
    expected = np.column_stack([
        np.full_like(t, s0), _exponential_sum(e, t), _exponential_sum(i, t),
        _exponential_sum(a_r, t), _exponential_sum(a_f, t),
        r_const + _exponential_sum(r_terms, t),
        d_const + _exponential_sum(d_terms, t)])
    # two orders below the 2e-7 the probes and checks hold the program to
    scale = np.abs(expected).max(axis=0)
    error = (np.abs(states - expected) / scale).max()
    assert error < 1e-8, f"reference off the closed form by {error:.3g}"


def _ar1(rho: float, chains: int, draws: int, seed: int) -> np.ndarray:
    noise = np.random.default_rng(seed).normal(size=(chains, draws))
    noise[:, 0] /= math.sqrt(1.0 - rho * rho)   # start in the stationary law
    return lfilter([1.0], [1.0, -rho], noise, axis=1)


def test_ess_on_ar1_chains():
    """Bulk ESS of AR(1) chains matches n (1 - rho) / (1 + rho); the mean of
    eight replicates has a standard error under 2 % at these lengths."""
    chains, draws, replicates = 4, 10_000, 8
    for rho in (0.0, 0.5, 0.9):
        exact = chains * draws * (1 - rho) / (1 + rho)
        bulk = [ess_bulk(_ar1(rho, chains, draws, seed))
                for seed in range(replicates)]
        assert abs(np.mean(bulk) / exact - 1.0) < 0.07, (rho, np.mean(bulk), exact)
        # the quantile indicators are less autocorrelated than the draws
        tail = ess_tail(_ar1(rho, chains, draws, 99))
        assert 0.8 * exact < tail <= 1.2 * chains * draws, (rho, tail, exact)


def _probe_points(count: int, seed: int) -> list[dict]:
    from seiard.defaults import SEARCH_BOUNDS

    rng = np.random.default_rng(seed)
    return [{name: float(rng.uniform(*SEARCH_BOUNDS[name])) for name in ref.PARAMS}
            for _ in range(count)]


def probe_agreement() -> dict:
    """Worst relative disagreement between seiard and the reference over
    random points of the search box, for each probe and window.

    fit loss: relative to the reference loss.  Log-likelihood: at the
    variance the reference residuals imply (s = RSS / n), relative to the
    sum of the magnitudes of its two terms, which cannot cancel.  Sensitivity:
    each column's 2-norm error relative to the reference matrix's Frobenius
    norm, the scale the rank screen's tolerances use.
    """
    from seiard.dynamics import ModelParams
    from seiard.loss import FitWindow, fit_loss
    from seiard.mcmc import log_likelihood
    from seiard.structural import sensitivity_matrix
    from seiard.synthdata import NoiseSpec, default_config, generate

    dataset = generate(default_config(noise=NoiseSpec(0.05), seed=PROBE_SEED))
    data = {name: dataset.observed.series(name)
            for name in ("active", "recovered", "deceased", "total")}
    worst = {}
    for days in PROBE_WINDOWS:
        window = FitWindow(0, days)
        times = list(range(1, days + 1))
        loss_err = loglik_err = sens_err = 0.0
        for theta in _probe_points(PROBE_POINTS, PROBE_SEED + days):
            params = ModelParams.from_dict(theta)
            model = ref.observed(ref.solve(theta, days, POPULATION_N, INIT_OBSERVED))
            expected = ref.fit_loss(data, model, 0, days)
            loss_err = max(loss_err, abs(fit_loss(dataset, params, window)
                                         - expected) / expected)
            residuals = ref.log_increment_residuals(data, model, 0, days)
            count = residuals.size
            s = float(residuals @ residuals) / count
            expected = ref.log_likelihood(data, model, s, 0, days)
            scale = abs(0.5 * count * math.log(2 * math.pi * s)) + 0.5 * count
            loglik_err = max(loglik_err, abs(
                log_likelihood(dataset, params, s, window) - expected) / scale)
            got = sensitivity_matrix(params, times).matrix
            want = ref.sensitivity_matrix(theta, ref.PARAMS, times, 1e-4,
                                          POPULATION_N, INIT_OBSERVED)
            sens_err = max(sens_err, float(
                np.linalg.norm(got - want, axis=0).max() / np.linalg.norm(want)))
        worst[days] = {"fit_loss": loss_err, "log_likelihood": loglik_err,
                       "sensitivity": sens_err}
    return worst


def test_program_agrees_with_reference_on_random_points():
    worst = probe_agreement()
    tolerance = {"fit_loss": FIT_LOSS_RTOL, "log_likelihood": LOG_LIKELIHOOD_RTOL,
                 "sensitivity": SENSITIVITY_RTOL}
    misses = [(days, probe, error) for days, errors in worst.items()
              for probe, error in errors.items() if error > tolerance[probe]]
    assert not misses, f"over tolerance: {misses}; all: {worst}"


if __name__ == "__main__":
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as error:
                failures += 1
                print(f"FAIL {name}: {error}")
    sys.exit(1 if failures else 0)
