"""Checks of one CLI invocation's artifacts.

Each check reads the files a subcommand wrote plus its manifest.json and
compares them with the reference in reference.py or with properties the
method must have.  Nothing is compared with stored output, so the checks hold
for any workload seed.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

import reference as ref

# |program - reference| for the fit loss at the reported best point, relative
FIT_LOSS_RTOL = 1e-5
# singular values of the sensitivity matrix, relative to the largest
SINGULAR_VALUE_RTOL = 1e-5
# log_post - reference log posterior must be one constant across draws, up to
# this share of the likelihood's scale (RK4 at dt 0.1 against DOP853)
LOG_POST_RTOL = 1e-6
DRAWS_CHECKED_PER_CHAIN = 8
# six standard deviations of the log-normal observation noise
NOISE_SIGMAS = 6.0
# reproduced floating-point formulas that sum in another order
ROUNDING_RTOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    return rows[0], values.reshape(len(rows) - 1, len(rows[0]))


def read_labelled_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """A CSV whose first column holds row names."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0][1:], [row[0] for row in rows[1:]],
            np.array([[float(v) for v in row[1:]] for row in rows[1:]]))


def close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= rtol * scale


class Context:
    """State shared by the checks of one run: the search box, the datasets
    of the rounds and reference results that do not depend on the seed."""

    def __init__(self, search_bounds: dict[str, tuple[float, float]]):
        self.bounds = search_bounds
        self._cache: dict = {}

    def dataset_for(self, out: Path, config: dict) -> dict[str, np.ndarray]:
        """The series the invocation fitted: the same round's simulate
        output, which must come from the same dataset config."""
        sim = out.parent / "simulate"
        sim_config = read_json(sim / "manifest.json")["config"]
        require(sim_config["dataset"] == config["dataset"],
                f"{out}: dataset config differs from the round's simulate")

        def load():
            header, values = read_csv(sim / "dataset.csv")
            return {name: values[:, k] for k, name in enumerate(header)}
        return self.cached(("dataset", sim), load)

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _solve_config(config: dict, theta: dict, horizon: int) -> dict:
    d = config["dataset"]
    return ref.observed(ref.solve(theta, horizon, float(d["population_n"]),
                                  d["init_observed"], d["a0_fatal_fraction"]))


def _pins(config: dict) -> dict[str, float]:
    return {} if config["variant"] == "original" else dict(config["pins"])


def _within_box(ctx: Context, theta: dict, where: str) -> None:
    for name, value in theta.items():
        lo, hi = ctx.bounds[name]
        require(lo <= value <= hi, f"{where}: {name}={value} outside [{lo}, {hi}]")


def check_simulate(out: Path, ctx: Context) -> None:
    config = read_json(out / "manifest.json")["config"]
    header, values = read_csv(out / "dataset.csv")
    require(header == ["t", "active", "recovered", "deceased", "total"],
            f"{out}: dataset.csv header {header}")
    series = {name: values[:, k] for k, name in enumerate(header)}
    horizon = int(config["dataset"]["horizon"])
    require(np.array_equal(series["t"], np.arange(horizon + 1)),
            f"{out}: days are not 0..{horizon}")
    for name in ("recovered", "deceased"):
        require(bool(np.all(np.diff(series[name]) >= 0.0)),
                f"{out}: cumulative {name} decreases")
    for k in range(horizon + 1):
        total = series["active"][k] + series["recovered"][k] + series["deceased"][k]
        require(series["total"][k] == total, f"{out}: total != sum on day {k}")
    d = config["dataset"]
    sigma = float(d["sigma_noise"])
    truth = ctx.cached(("truth", json.dumps(d, sort_keys=True)),
                       lambda: _solve_config(config, d["true_params"], horizon))
    factor = math.exp(NOISE_SIGMAS * sigma)
    for name in ("active", "recovered", "deceased"):
        lo, hi = truth[name] / factor, truth[name] * factor
        bad = np.nonzero((series[name] < lo) | (series[name] > hi))[0]
        require(bad.size == 0, f"{out}: {name} outside exp(+-{NOISE_SIGMAS} "
                f"sigma) of the reference on days {bad[:5].tolist()}")


def check_fit(out: Path, ctx: Context) -> None:
    config = read_json(out / "manifest.json")["config"]
    fit = read_json(out / "fit.json")
    header, trace = read_csv(out / "trace.csv")
    names = header[2:]
    require(trace.shape[0] == fit["budget"] == config["fit"]["budget"],
            f"{out}: {trace.shape[0]} trace rows for budget {fit['budget']}")
    require(np.array_equal(trace[:, 0], np.arange(trace.shape[0])),
            f"{out}: trace eval column is not 0..budget-1")
    require(fit["best_loss"] == float(np.min(trace[:, 1])),
            f"{out}: best_loss {fit['best_loss']} != trace minimum")
    best = fit["best_params"]
    require(sorted(best) == sorted(names) == sorted(ref.PARAMS),
            f"{out}: parameter names {sorted(best)}")
    _within_box(ctx, best, str(out))
    pins = _pins(config)
    require(fit["pinned"] == pins, f"{out}: pinned {fit['pinned']} != {pins}")
    for name, value in pins.items():
        require(best[name] == value, f"{out}: pinned {name} moved to {best[name]}")
        column = trace[:, 2 + names.index(name)]
        require(bool(np.all(column == value)), f"{out}: trace moves pinned {name}")
    data = ctx.dataset_for(out, config)
    t_begin, t_end = (int(v) for v in config["window"])
    expected = ref.fit_loss(data, _solve_config(config, best, t_end),
                            t_begin, t_end)
    require(close(fit["best_loss"], expected, FIT_LOSS_RTOL),
            f"{out}: best_loss {fit['best_loss']} vs reference {expected}")


def sublevel_set(grid, losses, threshold):
    """Segments of {theta : loss <= threshold} with linearly interpolated
    ends, and whether the set touches either end of the grid."""
    inside = [math.isfinite(v) and v <= threshold for v in losses]
    segments = []
    n = len(grid)
    j = 0
    while j < n:
        if not inside[j]:
            j += 1
            continue
        k = j
        while k + 1 < n and inside[k + 1]:
            k += 1
        lo, hi = grid[j], grid[k]
        if j > 0 and math.isfinite(losses[j - 1]):
            lo = grid[j] + (threshold - losses[j]) / (losses[j - 1] - losses[j]) \
                * (grid[j - 1] - grid[j])
        if k + 1 < n and math.isfinite(losses[k + 1]):
            hi = grid[k] + (threshold - losses[k]) / (losses[k + 1] - losses[k]) \
                * (grid[k + 1] - grid[k])
        segments.append((lo, hi))
        j = k + 1
    return segments, inside[0], inside[-1]


def _check_curve(path: Path, config: dict) -> float:
    """Checks one pl_*.json with its CSV and returns the interval width."""
    curve = read_json(path)
    grid, losses = curve["grid"], curve["profiled_loss"]
    header, table = read_csv(path.with_suffix(".csv"))
    require(header == ["theta", "profiled_loss"], f"{path}: csv header")
    require(table[:, 0].tolist() == grid and table[:, 1].tolist() == losses,
            f"{path}: csv and json curves differ")
    require(len(grid) == config["profile"]["grid_points"],
            f"{path}: {len(grid)} grid points")
    require(all(a < b for a, b in zip(grid, grid[1:])), f"{path}: grid order")
    failed = [j for j, v in enumerate(losses) if not math.isfinite(v)]
    require(curve["failed_points"] == failed,
            f"{path}: failed_points {curve['failed_points']} != {failed}")
    finite = [v for v in losses if math.isfinite(v)]
    require(bool(finite), f"{path}: no finite profile point")
    interval = curve["interval"]
    alpha = float(config["profile"]["alpha"])
    require(interval["alpha"] == alpha, f"{path}: alpha {interval['alpha']}")
    threshold = interval["threshold"]
    if config["profile"]["threshold"] == "chi2":
        expected = min(finite) + ref.chi2_1_quantile(alpha)
        require(close(threshold, expected, ROUNDING_RTOL),
                f"{path}: chi2 threshold {threshold} != {expected}")
    else:
        require(threshold >= min(finite),
                f"{path}: threshold {threshold} below the curve minimum")
    segments, left, right = sublevel_set(grid, losses, threshold)
    span = grid[-1] - grid[0]
    got = [tuple(s) for s in interval["segments"]]
    require(len(got) == len(segments) and all(
        close(a, b, ROUNDING_RTOL, span)
        for seg_got, seg_ref in zip(got, segments)
        for a, b in zip(seg_got, seg_ref)),
        f"{path}: segments {got} != recomputed {segments}")
    require((interval["censored_left"], interval["censored_right"])
            == (left, right), f"{path}: censoring flags")
    require(curve["verdict"] in ("identifiable", "non-identifiable",
                                 "inconclusive"), f"{path}: verdict")
    return sum(hi - lo for lo, hi in segments)


def check_profile(out: Path, ctx: Context) -> None:
    config = read_json(out / "manifest.json")["config"]
    section = config["profile"]
    for param in section["params"]:
        if section["windows"] is None:
            _check_curve(out / f"pl_{param}.json", config)
            continue
        widths = read_json(out / f"pl_{param}_widths.json")
        require(widths["param"] == param, f"{out}: widths param")
        got = widths["width_by_window"]
        require(sorted(got, key=int) == [str(d) for d in sorted(section["windows"])],
                f"{out}: windows {sorted(got)}")
        for duration in section["windows"]:
            width = _check_curve(out / f"pl_{param}_w{duration}.json", config)
            require(close(got[str(duration)], width, ROUNDING_RTOL,
                          max(1.0, width)),
                    f"{out}: width for {duration} days")


def _classic_rhat(draws: np.ndarray) -> float:
    """Gelman-Rubin potential scale reduction of an (m, n) array."""
    m, n = draws.shape
    means = draws.sum(axis=1) / n
    within = sum(((row - mu) ** 2).sum() / (n - 1) for row, mu in zip(draws, means)) / m
    grand = means.mean()
    between_over_n = ((means - grand) ** 2).sum() / (m - 1)
    if within == 0.0:
        return 1.0 if between_over_n == 0.0 else math.inf
    return math.sqrt(((n - 1) / n * within + (1 + 1 / m) * between_over_n) / within)


def shortest_window(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """Brute force over all sample pairs (lo, hi): the narrowest closed
    interval holding at least ceil(alpha n) samples, leftmost on ties."""
    need = math.ceil(alpha * values.size)
    points = np.unique(values)
    ordered = np.sort(values)
    at_most = np.searchsorted(ordered, points, side="right")
    below = np.searchsorted(ordered, points, side="left")
    counts = at_most[None, :] - below[:, None]   # samples in [points[i], points[j]]
    widths = points[None, :] - points[:, None]
    widths[(counts < need) | (widths < 0)] = np.inf
    i, j = np.argwhere(widths == widths.min())[0]   # row-major: smallest lo first
    return float(points[i]), float(points[j])


def read_chains(out: Path, n_chains: int) -> tuple[list[str], np.ndarray]:
    """Chain CSVs as (names, array of shape (chains, draws, columns))."""
    tables = [read_csv(out / f"chains_{k}.csv") for k in range(n_chains)]
    return tables[0][0], np.stack([table for _, table in tables])


def check_mcmc(out: Path, ctx: Context) -> None:
    config = read_json(out / "manifest.json")["config"]
    m = config["mcmc"]
    posterior = read_json(out / "posterior.json")
    header, chains = read_chains(out, int(m["n_chains"]))
    names = header[:-2]
    kept = len(range(int(m["n_burn"]), int(m["n_samples"]), int(m["thin"])))
    require(chains.shape[1] == kept == posterior["kept_per_chain"],
            f"{out}: {chains.shape[1]} draws per chain, expected {kept}")
    require(bool(np.all(np.isfinite(chains))), f"{out}: non-finite draws")
    pins = _pins(config)
    require(names == [n for n in ref.PARAMS if n not in pins],
            f"{out}: sampled names {names}")
    for j, name in enumerate(names):
        lo, hi = ctx.bounds[name]
        require(bool(np.all((chains[:, :, j] >= lo) & (chains[:, :, j] <= hi))),
                f"{out}: {name} draws outside [{lo}, {hi}]")
    s = chains[:, :, -2]
    require(bool(np.all(s > 0.0)), f"{out}: s <= 0")

    # log_post is the log-increment likelihood plus the inverse-gamma prior
    data = ctx.dataset_for(out, config)
    t_begin, t_end = (int(v) for v in config["window"])
    offsets, scales = [], []
    picks = np.linspace(0, kept - 1, DRAWS_CHECKED_PER_CHAIN).round().astype(int)
    for chain in chains:
        for k in picks:
            theta = {**pins, **dict(zip(names, chain[k, :-2]))}
            model = _solve_config(config, theta, t_end)
            s_k = float(chain[k, -2])
            loglik = ref.log_likelihood(data, model, s_k, t_begin, t_end)
            count = 3 * (t_end - t_begin)
            offsets.append(chain[k, -1] - loglik
                           - ref.log_inverse_gamma(s_k, float(m["u"]), float(m["v"])))
            scales.append(abs(0.5 * count * math.log(2 * math.pi * s_k))
                          + abs(loglik + 0.5 * count * math.log(2 * math.pi * s_k)))
    spread = max(offsets) - min(offsets)
    require(spread <= LOG_POST_RTOL * max(scales),
            f"{out}: log_post - reference varies by {spread:.3g} across draws")

    pooled = chains[:, :, :-2].reshape(-1, len(names))
    intervals = read_json(out / "hpdi.json")
    for j, name in enumerate(names):
        lo, hi = shortest_window(pooled[:, j], 0.95)
        got = intervals[name]
        require((got["lo"], got["hi"]) == (lo, hi),
                f"{out}: hpdi {name} {got['lo']}..{got['hi']} != {lo}..{hi}")
        require(got["mass_check"] == math.ceil(0.95 * pooled.shape[0]) / pooled.shape[0],
                f"{out}: hpdi {name} mass_check")
        summary = posterior["params"][name]
        require(summary["hpdi"] == got, f"{out}: posterior.json hpdi {name}")
        rhat = _classic_rhat(chains[:, :, j])
        require(close(summary["rhat"], rhat, ROUNDING_RTOL),
                f"{out}: rhat {name} {summary['rhat']} != {rhat}")
        require(close(summary["mean"], float(pooled[:, j].sum() / pooled.shape[0]),
                      ROUNDING_RTOL), f"{out}: mean {name}")

    corr_names, row_names, matrix = read_labelled_csv(out / "correlation.csv")
    require(corr_names == row_names == names, f"{out}: correlation names")
    centered = pooled - pooled.mean(axis=0)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    live = norms > 0.0
    expected = np.eye(len(names))
    expected[np.ix_(live, live)] = (centered[:, live].T @ centered[:, live]) \
        / np.outer(norms[live], norms[live])
    require(bool(np.allclose(matrix, expected, rtol=0.0, atol=1e-10)),
            f"{out}: correlation matrix differs by "
            f"{np.abs(matrix - expected).max():.3g}")


def check_report(out: Path, ctx: Context) -> None:
    config = read_json(out / "manifest.json")["config"]
    report = read_json(out / "sensitivity.json")
    section = config["report"]
    theta = section["params"] or config["dataset"]["true_params"]
    names = report["free_names"]
    require(names == [n for n in ref.PARAMS if n not in _pins(config)],
            f"{out}: free names {names}")
    t_begin, t_end = (int(v) for v in config["window"])
    times = section["times"] or list(range(t_begin + 1, t_end + 1))
    require(report["times"] == [float(t) for t in times], f"{out}: times")
    d = config["dataset"]
    key = ("report", json.dumps([theta, names, times, section["rel_step"], d],
                                sort_keys=True))
    expected = ctx.cached(key, lambda: np.linalg.svd(ref.sensitivity_matrix(
        theta, names, times, float(section["rel_step"]), float(d["population_n"]),
        d["init_observed"], d["a0_fatal_fraction"]), compute_uv=False))
    got = np.array(report["singular_values"])
    require(got.shape == expected.shape, f"{out}: {got.size} singular values")
    gap = float(np.abs(got - expected).max())
    require(gap <= SINGULAR_VALUE_RTOL * expected[0],
            f"{out}: singular values differ by {gap:.3g} "
            f"(sigma_max {expected[0]:.3g})")
    require(report["numeric_rank"] == int((got > report["tolerance"]).sum()),
            f"{out}: numeric rank")


def check_forecast(out: Path, ctx: Context) -> None:
    config = read_json(out / "manifest.json")["config"]
    forecast = read_json(out / "forecast.json")
    seeds = [str(s) for s in config["forecast"]["seeds"]]
    horizons = sorted(int(h) for h in config["forecast"]["horizons"])
    require(forecast["horizons"] == horizons, f"{out}: horizons")
    header, table = read_csv(out / "forecast.csv")
    require(header == ["horizon", "reparam", "original"], f"{out}: csv header")
    require(table[:, 0].tolist() == horizons, f"{out}: csv horizons")
    for column, variant in enumerate(("reparam", "original"), start=1):
        per_seed = forecast["per_seed"][variant]
        require(sorted(per_seed) == sorted(seeds), f"{out}: {variant} seeds")
        for seed in seeds:
            loss = per_seed[seed]["fit_loss"]
            require(math.isfinite(loss) and loss >= 0.0,
                    f"{out}: {variant} seed {seed} fit_loss {loss}")
        for row, h in enumerate(horizons):
            values = [per_seed[seed]["mape"][str(h)] for seed in seeds]
            require(all(math.isfinite(v) and v >= 0.0 for v in values),
                    f"{out}: {variant} MAPE at {h} not finite and >= 0")
            median = statistics.median(values)
            require(forecast["median_mape"][variant][str(h)] == median
                    and table[row, column] == median,
                    f"{out}: {variant} median at {h} != {median}")


CHECKS = {
    "simulate": check_simulate,
    "fit": check_fit,
    "profile": check_profile,
    "mcmc": check_mcmc,
    "report": check_report,
    "forecast-eval": check_forecast,
}
