"""Reference RK4 for the bit-identity tests of `seiard.dynamics.integrate`.

This is the earlier closure-based form of the integrator: one `deriv` closure
returning a 7-tuple, four tuples per substep, and a per-day check of every
compartment.  `integrate` must reproduce its output byte for byte and raise
the same `DivergenceError` messages.  Input validation is left to
`integrate`; callers pass valid inputs.
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


def integrate_reference(params, init, horizon: int, dt: float = 0.1,
                        on_clamp=None) -> np.ndarray:
    """States of shape (horizon + 1, 7); on_clamp(day) is called for every
    day on which the check clamped a small negative value to zero."""
    population_n = init.total
    steps_per_day = max(1, round(1.0 / dt))
    h = 1.0 / steps_per_day

    beta_n = params.beta / population_n
    sigma = params.sigma
    gamma = params.gamma
    pf = params.p_fatal
    inv_tr = 1.0 / params.t_recov
    inv_tf = 1.0 / params.t_fatal

    def deriv(s, e, i, ar, af, r, d):
        infection = beta_n * i * s
        incubation = sigma * e
        onset = gamma * i
        recovery = ar * inv_tr
        death = af * inv_tf
        return (
            -infection,
            infection - incubation,
            incubation - onset,
            (1.0 - pf) * onset - recovery,
            pf * onset - death,
            recovery,
            death,
        )

    half = 0.5 * h
    sixth = h / 6.0

    y = (init.s, init.e, init.i, init.a_recov, init.a_fatal, init.r, init.d)
    out = np.empty((horizon + 1, 7))
    out[0] = y

    for day in range(1, horizon + 1):
        s, e, i, ar, af, r, d = y
        for _ in range(steps_per_day):
            k1 = deriv(s, e, i, ar, af, r, d)
            k2 = deriv(
                s + half * k1[0], e + half * k1[1], i + half * k1[2],
                ar + half * k1[3], af + half * k1[4], r + half * k1[5],
                d + half * k1[6],
            )
            k3 = deriv(
                s + half * k2[0], e + half * k2[1], i + half * k2[2],
                ar + half * k2[3], af + half * k2[4], r + half * k2[5],
                d + half * k2[6],
            )
            k4 = deriv(
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
