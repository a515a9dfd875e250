"""Reference SEIARD computations for the benchmark's output checks.

Everything here is written from the model equations, not from the seiard
package: the right-hand side is solved with scipy's adaptive DOP853 at tight
tolerances, and the MAPE loss, the log-increment Gaussian likelihood and the
central-difference sensitivity matrix are re-derived from their definitions.
The checks compare the program's artifacts against these values, so they hold
for any workload seed without a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

PARAMS = ("beta", "t_inc", "t_inf", "t_recov", "t_fatal", "p_fatal", "e0", "i0")
RTOL = 1e-12
ATOL = 1e-9  # persons; the population is ~1e7
# Daily values come from the solver's dense-output interpolant, which is
# much less accurate than the steps once steps span several days; keeping
# steps within a day holds the interpolant to the step tolerance.
MAX_STEP = 1.0
PERSON_FLOOR = 1.0  # counts below one person are scored as one person


def initial_state(theta: dict, population_n: float, init_observed,
                  a0_fatal_fraction=None) -> np.ndarray:
    """Day-0 compartments (S, E, I, A_recov, A_fatal, R, D)."""
    a0, r0, d0 = (float(v) for v in init_observed)
    split = theta["p_fatal"] if a0_fatal_fraction is None else a0_fatal_fraction
    s0 = population_n - theta["e0"] - theta["i0"] - a0 - r0 - d0
    return np.array([s0, theta["e0"], theta["i0"], (1.0 - split) * a0,
                     split * a0, r0, d0])


def _rhs(theta: dict, population_n: float):
    beta, pf = theta["beta"], theta["p_fatal"]
    t_inc, t_inf = theta["t_inc"], theta["t_inf"]
    t_recov, t_fatal = theta["t_recov"], theta["t_fatal"]

    def rhs(_t, y):
        s, e, i, ar, af, _r, _d = y
        new_infections = beta * s * i / population_n
        onset = i / t_inf
        return [-new_infections,
                new_infections - e / t_inc,
                e / t_inc - onset,
                (1.0 - pf) * onset - ar / t_recov,
                pf * onset - af / t_fatal,
                ar / t_recov,
                af / t_fatal]
    return rhs


def solve(theta: dict, horizon: int, population_n: float, init_observed,
          a0_fatal_fraction=None) -> np.ndarray:
    """Compartments at days 0..horizon, shape (horizon + 1, 7)."""
    y0 = initial_state(theta, population_n, init_observed, a0_fatal_fraction)
    days = np.arange(horizon + 1, dtype=float)
    sol = solve_ivp(_rhs(theta, float(y0.sum())), (0.0, float(horizon)), y0,
                    method="DOP853", t_eval=days, rtol=RTOL, atol=ATOL,
                    max_step=MAX_STEP)
    if not sol.success:
        raise ArithmeticError(f"reference solve failed: {sol.message}")
    return sol.y.T


def observed(states: np.ndarray) -> dict[str, np.ndarray]:
    """The reportable series: active, recovered, deceased and their total."""
    active = states[:, 3] + states[:, 4]
    return {"active": active, "recovered": states[:, 5],
            "deceased": states[:, 6],
            "total": active + states[:, 5] + states[:, 6]}


def mape(truth, predicted) -> float:
    truth = np.asarray(truth, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    return 100.0 * float(np.mean(np.abs(truth - predicted)
                                 / np.maximum(truth, PERSON_FLOOR)))


def fit_loss(data: dict, model: dict, t_begin: int, t_end: int) -> float:
    """Mean of the four series' MAPEs over days t_begin..t_end."""
    days = slice(t_begin, t_end + 1)
    names = ("active", "recovered", "deceased", "total")
    return float(np.mean([mape(data[n][days], model[n][days]) for n in names]))


def log_increments(series, t_begin: int, t_end: int) -> np.ndarray:
    values = np.maximum(np.asarray(series, dtype=float)[t_begin:t_end + 1],
                        PERSON_FLOOR)
    return np.diff(np.log(values))


def log_increment_residuals(data: dict, model: dict, t_begin: int,
                            t_end: int) -> np.ndarray:
    """Model minus data daily log-increments of active, recovered and
    deceased over days t_begin..t_end."""
    return np.concatenate([
        log_increments(model[n], t_begin, t_end)
        - log_increments(data[n], t_begin, t_end)
        for n in ("active", "recovered", "deceased")])


def log_likelihood(data: dict, model: dict, s: float, t_begin: int,
                   t_end: int) -> float:
    """Gaussian likelihood of the log-increment residuals, each with
    variance s."""
    residuals = log_increment_residuals(data, model, t_begin, t_end)
    count = residuals.size
    return (-0.5 * count * math.log(2.0 * math.pi * s)
            - float(residuals @ residuals) / (2.0 * s))


def log_inverse_gamma(s: float, shape: float, scale: float) -> float:
    return (shape * math.log(scale) - math.lgamma(shape)
            - (shape + 1.0) * math.log(s) - scale / s)


def sensitivity_matrix(theta: dict, names, times, rel_step: float,
                       population_n: float, init_observed,
                       a0_fatal_fraction=None) -> np.ndarray:
    """Rows: active, recovered, deceased at each day of `times`; columns:
    theta_k * d(observation)/d(theta_k) by central differences."""
    times = np.asarray(times, dtype=int)
    horizon = int(times.max())
    columns = []
    for name in names:
        stacks = []
        for sign in (1.0, -1.0):
            shifted = dict(theta)
            shifted[name] = theta[name] + sign * rel_step * theta[name]
            obs = observed(solve(shifted, horizon, population_n, init_observed,
                                 a0_fatal_fraction))
            stacks.append(np.concatenate(
                [obs[n][times] for n in ("active", "recovered", "deceased")]))
        columns.append((stacks[0] - stacks[1]) / (2.0 * rel_step))
    return np.column_stack(columns)


def chi2_1_quantile(alpha: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom:
    the square of the two-sided standard-normal quantile."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(0.5 + alpha / 2.0) ** 2
