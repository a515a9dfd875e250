"""Reference RK4 for the bit-identity tests of `seiard.dynamics.integrate`.

This is the earlier closure-based form of the integrator: one call of the
right-hand side `deriv` per stage, each returning a 7-tuple, and a per-day
check of every compartment.  `integrate` must reproduce its output byte for
byte and raise the same `DivergenceError` messages.  `deriv` is the model's
right-hand side written out flow by flow; tests/test_dynamics.py checks it
against hand-computed rates.  Input validation is left to `integrate`;
callers pass valid inputs.
"""

from __future__ import annotations

import math

import numpy as np

from seiard.dynamics import COMPARTMENTS, NEGATIVE_CLAMP, DivergenceError


def check_day(day: int, values: tuple) -> tuple:
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


def deriv(params, population_n: float, s, e, i, ar, af, r, d) -> tuple:
    """Flow rates (persons/day) of the seven compartments, in COMPARTMENTS
    order, at one state of a population of population_n."""
    infection = params.beta / population_n * i * s
    incubation = params.sigma * e
    onset = params.gamma * i
    recovery = ar * (1.0 / params.t_recov)
    death = af * (1.0 / params.t_fatal)
    return (
        -infection,
        infection - incubation,
        incubation - onset,
        (1.0 - params.p_fatal) * onset - recovery,
        params.p_fatal * onset - death,
        recovery,
        death,
    )


def integrate_reference(params, init, horizon: int, dt: float = 0.1,
                        on_clamp=None) -> np.ndarray:
    """States of shape (horizon + 1, 7) from the (7,) day-0 state init;
    on_clamp(day) is called for every day on which the check clamped a small
    negative value to zero."""
    y = tuple(float(v) for v in init)
    s, e, i, ar, af, r, d = y
    population_n = s + e + i + ar + af + r + d
    steps_per_day = max(1, round(1.0 / dt))
    h = 1.0 / steps_per_day
    half = 0.5 * h
    sixth = h / 6.0

    out = np.empty((horizon + 1, 7))
    out[0] = y

    for day in range(1, horizon + 1):
        s, e, i, ar, af, r, d = y
        for _ in range(steps_per_day):
            k1 = deriv(params, population_n, s, e, i, ar, af, r, d)
            k2 = deriv(
                params, population_n,
                s + half * k1[0], e + half * k1[1], i + half * k1[2],
                ar + half * k1[3], af + half * k1[4], r + half * k1[5],
                d + half * k1[6],
            )
            k3 = deriv(
                params, population_n,
                s + half * k2[0], e + half * k2[1], i + half * k2[2],
                ar + half * k2[3], af + half * k2[4], r + half * k2[5],
                d + half * k2[6],
            )
            k4 = deriv(
                params, population_n,
                s + h * k3[0], e + h * k3[1], i + h * k3[2],
                ar + h * k3[3], af + h * k3[4], r + h * k3[5],
                d + h * k3[6],
            )
            s = s + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            e = e + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            i = i + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
            ar = ar + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
            af = af + sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4])
            r = r + sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5])
            d = d + sixth * (k1[6] + 2.0 * (k2[6] + k3[6]) + k4[6])
        raw = (s, e, i, ar, af, r, d)
        y = check_day(day, raw)
        if on_clamp is not None and y != raw:
            on_clamp(day)
        out[day] = y

    return out
