"""SEIARD compartmental model: parameters, fixed-step RK4 integration of
its ODEs, and the observation map.

Compartments: Susceptible, Exposed, Infectious, Active-recovering,
Active-fatal, Recovered, Deceased.  Only three case series are reportable:
active = a_recov + a_fatal, recovered = r, deceased = d.  E and I are never
observed directly.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
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

# The C day loop and the one way it is built.  No flag comes from the
# environment (CFLAGS): -ffp-contract=off stops the compiler from fusing a
# multiply and an add, and -ffast-math or -march could reorder or fuse
# arithmetic, any of which would change bits.
KERNEL_SOURCE = Path(__file__).with_name("_rk4.c")
KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


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


def _population(init: list[float]) -> float:
    """Check a day-0 state, as 7 floats in COMPARTMENTS order, and return its
    total, summed in that order."""
    for name, value in zip(COMPARTMENTS, init):
        if value < 0:
            raise ParameterDomainError(f"init.{name} must be >= 0, got {value}")
    s, e, i, ar, af, r, d = init
    population_n = s + e + i + ar + af + r + d
    if population_n <= 0:
        raise ParameterDomainError("initial state has no population")
    return population_n


def _python_days(params: ModelParams, init: list[float], population_n: float,
                 horizon: int, steps_per_day: int) -> np.ndarray:
    """The RK4 day loop in Python: the reference the C loop must match, and
    the solve where no C compiler is available.  Returns the (horizon + 1, 7)
    states."""
    s, e, i, ar, af, r, d = init
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
    return np.array(rows, dtype=float)


def _c_days(loop, params: ModelParams, init: list[float], population_n: float,
            horizon: int, steps_per_day: int) -> np.ndarray:
    """_python_days run by the C loop of _rk4.c.  The loop stops at a day
    that fails the day check; _check_day then clamps that row, and the loop
    resumes from it, or raises as the Python loop does."""
    states = np.empty((horizon + 1, len(COMPARTMENTS)))
    states[0] = init
    address = states.ctypes.data
    row_bytes = states.strides[0]
    day = 0
    while day < horizon:
        failed = loop(address + day * row_bytes, horizon - day, steps_per_day,
                      params.beta, population_n, params.t_inc, params.t_inf,
                      params.t_recov, params.t_fatal, params.p_fatal)
        if not failed:
            break
        day += failed
        states[day] = _check_day(day, tuple(states[day].tolist()))
    return states


def _cache_dirs() -> list[Path]:
    """Where a built loop is kept: next to this module, else in the user's
    cache directory."""
    return [Path(__file__).with_name("__pycache__"),
            Path.home() / ".cache" / "seiard"]


def _build(source: bytes, command: list[str], directories) -> Path:
    """The shared library that command builds from source: the first of
    directories that holds it or can be written gives it.  The file name
    carries a sha256 of source and command, and a build is written to a
    temporary file and renamed, so a concurrent build never sees a partial
    library.  A directory it creates is private (0700).
    """
    key = hashlib.sha256(source + b"\0" + "\0".join(command).encode())
    name = f"_rk4-{key.hexdigest()[:32]}.so"
    error = OSError(f"no directory to build the C RK4 loop in: {directories}")
    for directory in directories:
        library = directory / name
        if library.is_file():
            return library
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            handle, partial = tempfile.mkstemp(suffix=".so", dir=directory)
        except OSError as unwritable:
            error = unwritable
            continue
        os.close(handle)
        try:
            subprocess.run([*command, "-o", partial, "-x", "c", "-"],
                           input=source, capture_output=True, check=True)
            os.chmod(partial, 0o755)
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
        return library
    raise error


def _bind(library: Path):
    loop = ctypes.CDLL(str(library)).seiard_rk4_days
    loop.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                     *[ctypes.c_double] * 7]
    loop.restype = ctypes.c_long
    return loop


# The fixed solve both loops must agree on before the C one is used: every
# compartment occupied and every rate distinct, at four steps a day.
_PROBE = (ModelParams(beta=0.41, t_inc=3.7, t_inf=5.3, t_recov=11.9,
                      t_fatal=8.3, p_fatal=0.07, e0=40.0, i0=30.0),
          [99_800.0, 40.0, 30.0, 60.0, 20.0, 40.0, 10.0], 60, 4)


@functools.cache
def _c_day_loop():
    """The C day loop as a ctypes function, or None to solve in Python.

    It is built on the first solve in a process, never at import, with the
    system C compiler `cc` and KERNEL_FLAGS, and cached next to this module
    in __pycache__ or else in ~/.cache/seiard.  It is used only when it
    solves _PROBE to the same bytes as the Python loop.  Without a compiler
    the Python loop runs silently; when a compiler exists but the build or
    the check fails, one RuntimeWarning says so.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        library = _build(KERNEL_SOURCE.read_bytes(), [compiler, *KERNEL_FLAGS],
                         _cache_dirs())
        loop = _bind(library)
    except (OSError, subprocess.CalledProcessError, AttributeError) as error:
        detail = getattr(error, "stderr", b"").decode(errors="replace")
        warnings.warn(f"seiard: could not build the C RK4 loop, solving in "
                      f"Python instead: {error} {detail}", RuntimeWarning)
        return None
    params, init, horizon, steps_per_day = _PROBE
    population_n = _population(init)
    want = _python_days(params, init, population_n, horizon, steps_per_day)
    got = _c_days(loop, params, init, population_n, horizon, steps_per_day)
    if got.tobytes() != want.tobytes():
        warnings.warn(f"seiard: the C RK4 loop in {library} does not reproduce "
                      f"the Python loop bit for bit, solving in Python instead",
                      RuntimeWarning)
        return None
    return loop


def integrate(params: ModelParams, init: np.ndarray, horizon: int, dt: float = 0.1) -> Trajectory:
    """Integrate the model with classic fixed-step RK4, sampling integer days.

    The output is bit-stable: every floating-point operation runs in a fixed
    order, so the same inputs give the same bytes on every call, whether the
    C loop of _rk4.c or the Python loop runs them.
    tests/test_dynamics.py pins both bit for bit against the closure-based
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
    # Python floats: the Python loop is several times slower on numpy scalars
    init = np.asarray(init, dtype=float).tolist()
    population_n = _population(init)
    loop = _c_day_loop()
    if loop is None:
        states = _python_days(params, init, population_n, horizon, steps_per_day)
    else:
        states = _c_days(loop, params, init, population_n, horizon, steps_per_day)
    return Trajectory(times=np.arange(horizon + 1, dtype=float), states=states)


def observe(trajectory: Trajectory) -> ObservedSeries:
    """Map a trajectory onto the reportable series.

    active = a_recov + a_fatal, recovered = r, deceased = d,
    total = active + recovered + deceased.  E and I stay hidden.
    """
    states = trajectory.states
    values = np.empty((len(OBSERVED_SERIES), len(states)))
    active, recovered, deceased, total = values
    np.add(states[:, 3], states[:, 4], out=active)
    recovered[...] = states[:, 5]
    deceased[...] = states[:, 6]
    np.add(active, recovered, out=total)
    np.add(total, deceased, out=total)
    return ObservedSeries(times=trajectory.times.copy(), values=values)


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
    and the series from observe; this is the one path from parameters to
    observed counts.  Raises what those three raise, notably DivergenceError.
    """
    init = build_initial_state(params, scenario.population_n,
                               scenario.init_observed, scenario.a0_fatal_fraction)
    return observe(integrate(params, init, horizon, scenario.dt))

