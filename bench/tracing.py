"""Span tracing of the seiard layers, installed from outside the package.

`install` replaces each traced public function with a wrapper that records a
span (name, start, end, parent) and the counts named for that layer.  The
wrapper is bound in every seiard module that holds the original function,
because `from .dynamics import integrate` copies the name into the importing
module.  Spans stay in memory; `layer_metrics` derives self times and counts
from them after the run, and `write` saves them as JSON lines.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs whose spans are recorded; the module is the layer
TRACED = (
    ("dynamics", "integrate"),
    ("dynamics", "observe"),
    ("synthdata", "generate"),
    ("loss", "fit_loss"),
    ("optimize", "minimize"),
    ("profile", "profile_likelihood"),
    ("profile", "posterior_loss_threshold"),
    ("mcmc", "run_chain"),
    ("posterior", "hpdi"),
    ("posterior", "correlation_matrix"),
    ("structural", "sensitivity_matrix"),
    ("cli", "main"),
)
OBJECTIVE = "optimize.objective"
SOLVE_OWNERS = ("mcmc.run_chain", "structural.sensitivity_matrix")


class Tracer:
    """In-memory span store; one process, one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def wrap(self, name: str, func, on_result=None, on_error=None,
             on_call=None):
        """A traced stand-in for func.  on_call may rewrite (args, kwargs);
        on_result and on_error see the call's arguments and its outcome."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            except Exception as error:
                self.end(index)
                if on_error is not None:
                    on_error(error, args, kwargs)
                raise
            self.end(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for k, name in enumerate(self.names):
                fh.write(json.dumps({"id": k, "name": name,
                                     "parent": self.parents[k],
                                     "start": self.starts[k],
                                     "end": self.ends[k]}) + "\n")


def _argument(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


def install(tracer: Tracer) -> None:
    """Bind traced wrappers in every loaded seiard module."""
    import seiard.cli  # noqa: F401  (loads every layer module)
    from seiard.dynamics import DivergenceError
    from seiard.optimize import NoFeasiblePointError

    def integrate_days(_result, args, kwargs):
        tracer.count("dynamics.integrate.days",
                     _argument(args, kwargs, 2, "horizon"))

    def integrate_failed(error, args, kwargs):
        integrate_days(None, args, kwargs)
        if isinstance(error, DivergenceError):
            tracer.count("dynamics.integrate.diverged")

    def fit_loss_result(value, _args, _kwargs):
        if math.isinf(value):
            tracer.count("loss.fit_loss.infeasible")

    def minimize_call(args, kwargs):
        objective = _argument(args, kwargs, 0, "objective")
        wrapped = tracer.wrap(OBJECTIVE, objective)
        if "objective" in kwargs:
            return args, {**kwargs, "objective": wrapped}
        return (wrapped,) + tuple(args[1:]), kwargs

    def minimize_result(result, _args, _kwargs):
        tracer.count("optimize.minimize.evals", result.budget_used)
        tracer.count("optimize.minimize.infeasible",
                     sum(1 for _, v in result.evaluations if math.isinf(v)))

    def minimize_failed(error, args, kwargs):
        if isinstance(error, NoFeasiblePointError):
            budget = _argument(args, kwargs, 2, "budget")
            tracer.count("optimize.minimize.evals", budget)
            tracer.count("optimize.minimize.infeasible", budget)

    def profile_result(curve, _args, _kwargs):
        tracer.count("profile.profile_likelihood.grid_points", len(curve.grid))
        tracer.count("profile.profile_likelihood.failed_points",
                     int(curve.failed.sum()))

    def threshold_result(result, _args, _kwargs):
        tracer.count("profile.posterior_loss_threshold.draws", len(result[1]))

    def chain_result(chain, args, kwargs):
        config = _argument(args, kwargs, 1, "config")
        tracer.count("mcmc.run_chain.iterations", config.n_samples)
        tracer.count("mcmc.run_chain.accepted",
                     round(chain.accept_rate * config.n_samples))

    hooks = {
        "dynamics.integrate": {"on_result": integrate_days,
                               "on_error": integrate_failed},
        "loss.fit_loss": {"on_result": fit_loss_result},
        "optimize.minimize": {"on_call": minimize_call,
                              "on_result": minimize_result,
                              "on_error": minimize_failed},
        "profile.profile_likelihood": {"on_result": profile_result},
        "profile.posterior_loss_threshold": {"on_result": threshold_result},
        "mcmc.run_chain": {"on_result": chain_result},
    }
    modules = [m for name, m in sys.modules.items()
               if (name == "seiard" or name.startswith("seiard.")) and m]
    for module_name, func_name in TRACED:
        original = getattr(sys.modules[f"seiard.{module_name}"], func_name)
        span = f"{module_name}.{func_name}"
        wrapped = tracer.wrap(span, original, **hooks.get(span, {}))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer metrics from the recorded spans and counts.

    Self time is a span's duration minus the durations of its direct children
    (spans nest strictly in one thread, so children never overlap).
    """
    names, parents = tracer.names, tracer.parents
    duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(names)
    for k, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += duration[k]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for k, name in enumerate(names):
        calls[name] += 1
        total[name] += duration[k]
        self_time[name] += duration[k] - child_time[k]

    # model solves made on behalf of a sampler chain or a sensitivity matrix
    owner = [""] * len(names)
    for k, parent in enumerate(parents):
        if parent >= 0:
            owner[k] = names[parent] if names[parent] in SOLVE_OWNERS else owner[parent]
    solves = defaultdict(int)
    for k, name in enumerate(names):
        if name == "dynamics.integrate" and owner[k]:
            solves[owner[k]] += 1

    counts = tracer.counts
    iterations = counts["mcmc.run_chain.iterations"]
    days = counts["dynamics.integrate.days"]
    evals = counts["optimize.minimize.evals"]
    per_round = {
        "dynamics.integrate.calls": calls["dynamics.integrate"],
        "dynamics.integrate.days": days,
        "dynamics.integrate.self_s": self_time["dynamics.integrate"],
        "dynamics.integrate.diverged": counts["dynamics.integrate.diverged"],
        "dynamics.observe.self_s": self_time["dynamics.observe"],
        "synthdata.generate.calls": calls["synthdata.generate"],
        "synthdata.generate.self_s": self_time["synthdata.generate"],
        "loss.fit_loss.calls": calls["loss.fit_loss"],
        "loss.fit_loss.self_s": self_time["loss.fit_loss"],
        "loss.fit_loss.infeasible": counts["loss.fit_loss.infeasible"],
        "optimize.minimize.calls": calls["optimize.minimize"],
        "optimize.minimize.evals": evals,
        "optimize.minimize.self_s": self_time["optimize.minimize"],
        "profile.profile_likelihood.calls": calls["profile.profile_likelihood"],
        "profile.profile_likelihood.grid_points":
            counts["profile.profile_likelihood.grid_points"],
        "profile.profile_likelihood.failed_points":
            counts["profile.profile_likelihood.failed_points"],
        "profile.profile_likelihood.self_s":
            self_time["profile.profile_likelihood"],
        "profile.posterior_loss_threshold.calls":
            calls["profile.posterior_loss_threshold"],
        "profile.posterior_loss_threshold.draws":
            counts["profile.posterior_loss_threshold.draws"],
        "profile.posterior_loss_threshold.self_s":
            self_time["profile.posterior_loss_threshold"],
        "mcmc.run_chain.calls": calls["mcmc.run_chain"],
        "mcmc.run_chain.iterations": iterations,
        "mcmc.run_chain.self_s": self_time["mcmc.run_chain"],
        "posterior.hpdi.self_s": self_time["posterior.hpdi"],
        "posterior.correlation_matrix.self_s":
            self_time["posterior.correlation_matrix"],
        "structural.sensitivity_matrix.calls":
            calls["structural.sensitivity_matrix"],
        "structural.sensitivity_matrix.solves":
            solves["structural.sensitivity_matrix"],
        "structural.sensitivity_matrix.self_s":
            self_time["structural.sensitivity_matrix"],
        "cli.overhead_s": self_time["cli.main"],
    }
    metrics = {key: value / rounds for key, value in per_round.items()}
    # ratios are the same per round or over the whole run
    metrics["dynamics.integrate.us_per_day"] = (
        1e6 * self_time["dynamics.integrate"] / days if days else 0.0)
    metrics["optimize.minimize.infeasible_share"] = (
        counts["optimize.minimize.infeasible"] / evals if evals else 0.0)
    metrics["mcmc.run_chain.us_per_iter"] = (
        1e6 * total["mcmc.run_chain"] / iterations if iterations else 0.0)
    metrics["mcmc.run_chain.accept_rate"] = (
        counts["mcmc.run_chain.accepted"] / iterations if iterations else 0.0)
    metrics["mcmc.run_chain.solves_per_iter"] = (
        solves["mcmc.run_chain"] / iterations if iterations else 0.0)
    return metrics
