"""SEIARD compartmental model: parameters, fixed-step RK4 integration of
its ODEs, and the observation map.

Compartments: Susceptible, Exposed, Infectious, Active-recovering,
Active-fatal, Recovered, Deceased.  Only three case series are reportable:
active = a_recov + a_fatal, recovered = r, deceased = d.  E and I are never
observed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import write_csv

if TYPE_CHECKING:
    from .synthdata import DatasetConfig

COMPARTMENTS = ("s", "e", "i", "a_recov", "a_fatal", "r", "d")
PARAM_NAMES = ("beta", "t_inc", "t_inf", "t_recov", "t_fatal", "p_fatal", "e0", "i0")
OBSERVED_SERIES = ("active", "recovered", "deceased", "total")

# Dips below zero smaller than this (persons) are floating-point noise and get
# clamped; anything larger means the solve actually went bad.
NEGATIVE_CLAMP = 1e-9

# simulate_observed_batch solves fewer vectors than this one by one.  The
# batched kernel costs about 12 ms per 28 days however few columns it has, a
# scalar solve about 0.6 ms; the two break even near 20 vectors at 28 and at
# 112 days alike.
BATCH_MIN = 20


class ParameterDomainError(ValueError):
    """A model parameter lies outside its admissible domain."""


class DivergenceError(ArithmeticError):
    """Integration produced NaN/overflow or a real negative excursion."""


@dataclass(frozen=True)
class ModelParams:
    """The eight fitted quantities: transmission rate, four mean durations,
    the fatality probability, and the unobserved initial counts e0 and i0.

    Durations are in days, beta in 1/day, e0 and i0 in persons.
    """

    beta: float
    t_inc: float
    t_inf: float
    t_recov: float
    t_fatal: float
    p_fatal: float
    e0: float
    i0: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ParameterDomainError(f"beta must be finite and >= 0, got {self.beta}")
        for name in ("t_inc", "t_inf", "t_recov", "t_fatal"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterDomainError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.p_fatal) and 0.0 <= self.p_fatal <= 1.0):
            raise ParameterDomainError(f"p_fatal must be in [0, 1], got {self.p_fatal}")
        for name in ("e0", "i0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterDomainError(f"{name} must be finite and >= 0, got {value}")

    @property
    def sigma(self) -> float:
        """Incubation (E -> I) rate, 1/t_inc."""
        return 1.0 / self.t_inc

    @property
    def gamma(self) -> float:
        """End-of-infectiousness (I -> A) rate, 1/t_inf."""
        return 1.0 / self.t_inf

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, values) -> "ModelParams":
        return cls(**{name: float(values[name]) for name in PARAM_NAMES})

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class Trajectory:
    """Integrator output sampled at integer days.

    states has shape (len(times), 7) with columns in COMPARTMENTS order.
    """

    times: np.ndarray
    states: np.ndarray

    def compartment(self, name: str) -> np.ndarray:
        return self.states[:, COMPARTMENTS.index(name)]


@dataclass(frozen=True)
class ObservedSeries:
    """The reportable daily case series derived from a trajectory.

    values has shape (4, len(times)), one row per OBSERVED_SERIES.
    """

    times: np.ndarray
    values: np.ndarray

    def series(self, name: str) -> np.ndarray:
        if name not in OBSERVED_SERIES:
            raise ValueError(f"unknown series {name!r}, expected one of {OBSERVED_SERIES}")
        return self.values[OBSERVED_SERIES.index(name)]

    def window(self, t_begin: int, t_end: int) -> "ObservedSeries":
        """Restrict to integer days t_begin..t_end inclusive."""
        if t_begin < self.times[0] or t_end > self.times[-1]:
            raise ValueError(
                f"window [{t_begin}, {t_end}] outside observed range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        lo = int(t_begin - self.times[0])
        hi = int(t_end - self.times[0]) + 1
        return ObservedSeries(times=self.times[lo:hi], values=self.values[:, lo:hi])

    def write_csv(self, path) -> None:
        write_csv(path, ["t", *OBSERVED_SERIES], zip(self.times, *self.values))


def _check_day(day: int, values: tuple) -> tuple:
    """Clamp tiny negative excursions, reject NaN/overflow and real dips."""
    out = []
    for name, v in zip(COMPARTMENTS, values):
        if not math.isfinite(v):
            raise DivergenceError(f"non-finite {name}={v} at day {day}")
        if v < 0.0:
            if v > -NEGATIVE_CLAMP:
                v = 0.0
            else:
                raise DivergenceError(f"{name}={v} fell below zero at day {day}")
        out.append(v)
    return tuple(out)


def _steps_per_day(horizon: int, dt: float) -> int:
    """Validate the solve arguments; dt snaps to a whole number of steps a day."""
    if not isinstance(horizon, (int, np.integer)) or horizon <= 0:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    if not (0.0 < dt <= 1.0):
        raise ValueError(f"dt must satisfy 0 < dt <= 1, got {dt}")
    return max(1, round(1.0 / dt))


def _population(init: np.ndarray):
    """Check a (7,) or (7, B) day-0 state and return its total(s), summed in
    COMPARTMENTS order."""
    if (init < 0).any():
        for name, row in zip(COMPARTMENTS, init):
            if (row < 0).any():
                raise ParameterDomainError(f"init.{name} must be >= 0, got {row.min()}")
    s, e, i, ar, af, r, d = init
    population_n = s + e + i + ar + af + r + d
    if (population_n <= 0).any():
        raise ParameterDomainError("initial state has no population")
    return population_n


def integrate(params: ModelParams, init: np.ndarray, horizon: int, dt: float = 0.1) -> Trajectory:
    """Integrate the model with classic fixed-step RK4, sampling integer days.

    The output is bit-stable: every floating-point operation runs in a fixed
    order, so the same inputs give the same bytes on every call.
    tests/test_dynamics.py pins it bit for bit against the closure-based
    reference in tests/rk4_reference.py.

    Args:
        params: model parameters.
        init: (7,) day-0 state in COMPARTMENTS order; the conserved
            population size is its total.
        horizon: last day to report (trajectory covers days 0..horizon).
        dt: nominal step in days, 0 < dt <= 1; snapped to an integer number
            of substeps per day so day boundaries are hit exactly.

    Returns:
        Trajectory with shape (horizon + 1, 7) states.

    Raises:
        DivergenceError: NaN/overflow, or a compartment dropping below zero
            by more than the clamping tolerance.
    """
    steps_per_day = _steps_per_day(horizon, dt)
    init = np.asarray(init, dtype=float)
    # Python floats: the loop below is several times slower on numpy scalars
    population_n = float(_population(init))
    s, e, i, ar, af, r, d = init.tolist()
    h = 1.0 / steps_per_day

    beta_n = params.beta / population_n
    sigma = params.sigma
    gamma = params.gamma
    pf = params.p_fatal
    pr = 1.0 - pf
    inv_tr = 1.0 / params.t_recov
    inv_tf = 1.0 / params.t_fatal

    half = 0.5 * h
    sixth = h / 6.0
    inf = math.inf

    rows = [(s, e, i, ar, af, r, d)]
    substeps = range(steps_per_day)

    # Straight-line RK4 that keeps every floating-point operation of the
    # reference form (one call of the right-hand side per stage) in the same
    # order.  Stage k has flows fk (infection), gk (incubation), ok (onset),
    # uk (recovery) and wk (death), and slopes dek, dik, dak, dbk for e, i,
    # a_recov and a_fatal.  The slope of s is -fk, so s moves by subtraction
    # (x - y equals x + (-y) exactly).  r and d feed no flow, so their stage
    # values are never formed.
    for day in range(1, horizon + 1):
        for _ in substeps:
            f1 = beta_n * i * s
            g1 = sigma * e
            o1 = gamma * i
            u1 = ar * inv_tr
            w1 = af * inv_tf
            de1 = f1 - g1
            di1 = g1 - o1
            da1 = pr * o1 - u1
            db1 = pf * o1 - w1

            i_ = i + half * di1
            ar_ = ar + half * da1
            af_ = af + half * db1
            f2 = beta_n * i_ * (s - half * f1)
            g2 = sigma * (e + half * de1)
            o2 = gamma * i_
            u2 = ar_ * inv_tr
            w2 = af_ * inv_tf
            de2 = f2 - g2
            di2 = g2 - o2
            da2 = pr * o2 - u2
            db2 = pf * o2 - w2

            i_ = i + half * di2
            ar_ = ar + half * da2
            af_ = af + half * db2
            f3 = beta_n * i_ * (s - half * f2)
            g3 = sigma * (e + half * de2)
            o3 = gamma * i_
            u3 = ar_ * inv_tr
            w3 = af_ * inv_tf
            de3 = f3 - g3
            di3 = g3 - o3
            da3 = pr * o3 - u3
            db3 = pf * o3 - w3

            i_ = i + h * di3
            ar_ = ar + h * da3
            af_ = af + h * db3
            f4 = beta_n * i_ * (s - h * f3)
            g4 = sigma * (e + h * de3)
            o4 = gamma * i_
            u4 = ar_ * inv_tr
            w4 = af_ * inv_tf

            s = s - sixth * (f1 + 2.0 * (f2 + f3) + f4)
            e = e + sixth * (de1 + 2.0 * (de2 + de3) + (f4 - g4))
            i = i + sixth * (di1 + 2.0 * (di2 + di3) + (g4 - o4))
            ar = ar + sixth * (da1 + 2.0 * (da2 + da3) + (pr * o4 - u4))
            af = af + sixth * (db1 + 2.0 * (db2 + db3) + (pf * o4 - w4))
            r = r + sixth * (u1 + 2.0 * (u2 + u3) + u4)
            d = d + sixth * (w1 + 2.0 * (w2 + w3) + w4)
        if not (0.0 <= s < inf and 0.0 <= e < inf and 0.0 <= i < inf
                and 0.0 <= ar < inf and 0.0 <= af < inf and 0.0 <= r < inf
                and 0.0 <= d < inf):
            s, e, i, ar, af, r, d = _check_day(day, (s, e, i, ar, af, r, d))
        rows.append((s, e, i, ar, af, r, d))

    return Trajectory(times=np.arange(horizon + 1, dtype=float),
                      states=np.array(rows, dtype=float))


def integrate_batch(params, init: np.ndarray, horizon: int,
                    dt: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Integrate B parameter vectors at once with the RK4 of integrate.

    Each column runs the floating-point operations of integrate in the same
    order, so column b is bit-identical to
    integrate(params[b], init[:, b], horizon, dt).states.
    The day check of _check_day applies per column: a dip inside
    (-NEGATIVE_CLAMP, 0) is clamped to 0.0, and NaN, overflow or a larger dip
    marks the column diverged where integrate would raise, leaving the other
    columns untouched.

    Args:
        params: sequence of B ModelParams.
        init: (7, B) day-0 states, rows in COMPARTMENTS order.
        horizon: last day to report, as for integrate.
        dt: nominal step in days, as for integrate.

    Returns:
        (states, diverged): states of shape (horizon + 1, 7, B), and the
        (B,) mask of diverged columns.  A diverged column holds zeros from
        the day it diverged on.
    """
    steps_per_day = _steps_per_day(horizon, dt)
    init = np.asarray(init, dtype=float)
    if init.shape != (len(COMPARTMENTS), len(params)):
        raise ValueError(f"init must have shape (7, {len(params)}), got {init.shape}")
    population_n = _population(init)

    h = 1.0 / steps_per_day
    beta, t_inc, t_inf, t_recov, t_fatal, pf = np.array(
        [(p.beta, p.t_inc, p.t_inf, p.t_recov, p.t_fatal, p.p_fatal)
         for p in params], dtype=float).reshape(-1, 6).T
    beta_n = beta / population_n
    rates_eo = np.array([1.0 / t_inc, 1.0 / t_inf])    # sigma, gamma
    rates_rd = np.array([1.0 / t_recov, 1.0 / t_fatal])
    split = np.array([1.0 - pf, pf])
    half = 0.5 * h
    sixth = h / 6.0
    n = init.shape[1]

    # Stage k of integrate has the flows fk (infection), gk (incubation), ok
    # (onset), uk (recovery), wk (death) and the slopes dek, dik, dak, dbk of
    # e, i, a_recov and a_fatal.  Here stage k fills one (7, B) block with the
    # rows (fk, dek, dik, dak, dbk, uk, wk): s loses the first row, e..d gain
    # the others.  Every row is computed as integrate computes that value; the
    # blocks only let one numpy call serve several compartments, which is
    # what makes a batch of a few dozen columns cheaper than as many solves.
    x = init.copy()
    x_in = np.empty((5, n))          # stage input: s, e, i, a_recov, a_fatal
    step_k = np.empty((5, n))
    go = np.empty((2, n))            # gk, ok
    split_o = np.empty((2, n))       # pr * ok, pf * ok
    total = np.empty((7, n))
    k1, k2, k3, k4 = (np.empty((7, n)) for _ in range(4))
    mul, add, sub = np.multiply, np.add, np.subtract
    # views are taken once: slicing inside the loop would cost about as
    # much as the arithmetic at these batch sizes
    g, o = go
    x_s, x_e_to_af, x_e_to_d = x[0], x[1:5], x[1:]
    in_s, in_e_to_af = x_in[0], x_in[1:]
    step_f, step_slopes = step_k[0], step_k[1:]
    total_f, total_slopes = total[0], total[1:]

    def rows(v):
        # s, i, (e, i), (a_recov, a_fatal) of a state block
        return v[0], v[2], v[1:3], v[3:5]

    def block(k):
        # f, de, di, (da, db), (u, w), (f..db) of a stage block
        return k[0], k[1], k[2], k[3:5], k[5:7], k[:5]

    def slopes(source, k):
        s_, i_, ei, ab = source
        f, de, di, dadb, uw, _ = k
        mul(beta_n, i_, out=f)
        mul(f, s_, out=f)               # f = beta_n * i * s
        mul(rates_eo, ei, out=go)       # g = sigma * e, o = gamma * i
        mul(rates_rd, ab, out=uw)       # u = a_recov * inv_tr, w = a_fatal * inv_tf
        sub(f, g, out=de)
        sub(g, o, out=di)
        mul(split, o, out=split_o)
        sub(split_o, uw, out=dadb)      # da = pr * o - u, db = pf * o - w

    def stage_input(step, k):
        # s - step * f and (e, i, a_recov, a_fatal) + step * slope
        f_to_db = k[5]
        mul(step, f_to_db, out=step_k)
        sub(x_s, step_f, out=in_s)
        add(x_e_to_af, step_slopes, out=in_e_to_af)

    x_rows, x_in_rows = rows(x), rows(x_in)
    b1, b2, b3, b4 = block(k1), block(k2), block(k3), block(k4)
    states = np.empty((horizon + 1, 7, n))
    states[0] = init
    diverged = np.zeros(n, dtype=bool)
    inf = math.inf
    substeps = range(steps_per_day)

    # A column may overflow inside a day before the day check zeroes it.
    with np.errstate(over="ignore", invalid="ignore"):
        for day in range(1, horizon + 1):
            for _ in substeps:
                slopes(x_rows, b1)
                stage_input(half, b1)
                slopes(x_in_rows, b2)
                stage_input(half, b2)
                slopes(x_in_rows, b3)
                stage_input(h, b3)
                slopes(x_in_rows, b4)
                # x + sixth * (k1 + 2 (k2 + k3) + k4), s by subtraction
                add(k2, k3, out=total)
                mul(2.0, total, out=total)
                add(k1, total, out=total)
                add(total, k4, out=total)
                mul(sixth, total, out=total)
                sub(x_s, total_f, out=x_s)
                add(x_e_to_d, total_slopes, out=x_e_to_d)
            row = states[day]
            row[:] = x
            ok = (row >= 0.0) & (row < inf)
            if not ok.all():
                # _check_day per column: clamp noise dips, zero what diverged
                clamp = (row < 0.0) & (row > -NEGATIVE_CLAMP)
                bad = ~(ok | clamp).all(axis=0)
                row[clamp] = 0.0
                row[:, bad] = 0.0
                diverged |= bad
                x[:] = row
    return states, diverged


def _observed_rows(states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the OBSERVED_SERIES rows of (T, 7) or (T, 7, B) states into out,
    a (4, T) or (4, T, B) array or view, and return it.

    active = a_recov + a_fatal, recovered = r, deceased = d,
    total = active + recovered + deceased.  E and I stay hidden.
    """
    active, recovered, deceased, total = out
    np.add(states[:, 3], states[:, 4], out=active)
    recovered[...] = states[:, 5]
    deceased[...] = states[:, 6]
    np.add(active, recovered, out=total)
    np.add(total, deceased, out=total)
    return out


def observe(trajectory: Trajectory) -> ObservedSeries:
    """Map a trajectory onto the reportable series."""
    values = np.empty((len(OBSERVED_SERIES), len(trajectory.states)))
    return ObservedSeries(times=trajectory.times.copy(),
                          values=_observed_rows(trajectory.states, values))


def build_initial_state(params: ModelParams, population_n: float,
                        init_observed: tuple[float, float, float],
                        a0_fatal_fraction: float | None = None) -> np.ndarray:
    """Assemble the (7,) day-0 state, in COMPARTMENTS order, from observed
    initial counts plus e0/i0.

    init_observed is (active0, recovered0, deceased0).  The initial active
    count is split between the recovering and fatal branches by p_fatal
    (matching the steady inflow ratio) unless a0_fatal_fraction overrides it.
    Susceptibles take up the remainder of the population.
    """
    a0, r0, d0 = init_observed
    if min(a0, r0, d0) < 0:
        raise ParameterDomainError(f"initial observed counts must be >= 0, got {init_observed}")
    fraction = params.p_fatal if a0_fatal_fraction is None else a0_fatal_fraction
    if not 0.0 <= fraction <= 1.0:
        raise ParameterDomainError(f"a0_fatal_fraction must be in [0, 1], got {fraction}")
    s0 = population_n - params.e0 - params.i0 - a0 - r0 - d0
    if s0 < 0:
        raise ParameterDomainError(
            f"initial compartments exceed population_n={population_n}")
    return np.array([s0, params.e0, params.i0, (1.0 - fraction) * a0,
                     fraction * a0, r0, d0], dtype=float)


def simulate_observed(params: ModelParams, scenario: DatasetConfig,
                      horizon: int) -> ObservedSeries:
    """Reportable series on days 0..horizon for one parameter vector.

    scenario supplies population_n, init_observed, a0_fatal_fraction and dt.
    The day-0 state comes from build_initial_state, the solve from integrate
    and the series from observe; this and simulate_observed_batch are the one
    path from parameters to observed counts.  Raises what those three raise,
    notably DivergenceError.
    """
    init = build_initial_state(params, scenario.population_n,
                               scenario.init_observed, scenario.a0_fatal_fraction)
    return observe(integrate(params, init, horizon, scenario.dt))


def simulate_observed_batch(params, scenario: DatasetConfig,
                            horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """simulate_observed for a sequence of B parameter vectors at once.

    Returns (observed, diverged): observed has shape (B, 4, horizon + 1),
    one row per OBSERVED_SERIES, and observed[b] is bit-identical to the
    series simulate_observed gives for params[b]; diverged marks the
    candidates for which simulate_observed raises DivergenceError, and their
    series are zeros.  From BATCH_MIN vectors on they are solved together by
    integrate_batch; fewer are solved one by one, which is faster.  Raises
    what build_initial_state raises.
    """
    params = list(params)
    if len(params) < BATCH_MIN:
        observed = np.zeros((len(params), len(OBSERVED_SERIES), horizon + 1))
        diverged = np.zeros(len(params), dtype=bool)
        for b, p in enumerate(params):
            try:
                observed[b] = simulate_observed(p, scenario, horizon).values
            except DivergenceError:
                diverged[b] = True
        return observed, diverged
    init = np.array([build_initial_state(p, scenario.population_n,
                                         scenario.init_observed,
                                         scenario.a0_fatal_fraction)
                     for p in params], dtype=float).T
    states, diverged = integrate_batch(params, init, horizon, scenario.dt)
    observed = np.empty((len(params), len(OBSERVED_SERIES), horizon + 1))
    # filled through its (4, T, B) view, the layout of the states
    _observed_rows(states, observed.transpose(1, 2, 0))
    del states
    observed[diverged] = 0.0
    return observed, diverged


@dataclass(frozen=True)
class LtiSystem:
    """Linear time-invariant approximation x' = B x, y = C x, valid early in
    an outbreak while s/population_n stays close to 1."""

    b_matrix: np.ndarray
    c_matrix: np.ndarray


def lti_matrices(params: ModelParams) -> LtiSystem:
    """Build the LTI pair (B, C) in COMPARTMENTS order.

    B collects the linear flow rates with s/N frozen at 1; C selects the
    reportable series.  Every column of B sums to zero: each term leaving one
    compartment enters another, including the I-compartment outflow -1/t_inf
    on the diagonal (a positive diagonal there would create mass from nothing).
    """
    sigma = params.sigma
    gamma = params.gamma
    b = np.zeros((7, 7))
    b[0, 2] = -params.beta
    b[1, 1] = -sigma
    b[1, 2] = params.beta
    b[2, 1] = sigma
    b[2, 2] = -gamma
    b[3, 2] = (1.0 - params.p_fatal) * gamma
    b[3, 3] = -1.0 / params.t_recov
    b[4, 2] = params.p_fatal * gamma
    b[4, 4] = -1.0 / params.t_fatal
    b[5, 3] = 1.0 / params.t_recov
    b[6, 4] = 1.0 / params.t_fatal

    c = np.zeros((3, 7))
    c[0, 3] = 1.0
    c[0, 4] = 1.0
    c[1, 5] = 1.0
    c[2, 6] = 1.0
    return LtiSystem(b_matrix=b, c_matrix=c)
