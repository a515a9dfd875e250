"""Command-line pipeline for the identifiability experiments.

Subcommands: simulate | fit | profile | mcmc | report | forecast-eval.
Every run reads one JSON configuration (any field overridable on the command
line with --set path=value), writes its artifacts into the configured output
directory, and saves a manifest.json holding the fully resolved configuration;
re-running a command with --config pointed at that manifest reproduces every
artifact byte for byte.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import runconfig
from .artifacts import write_json
from .dynamics import DivergenceError, ModelParams, simulate_observed
from .loss import FitWindow, fit_objective, mape
from .mcmc import gelman_rubin, pooled_param, run_chains
from .optimize import NoFeasiblePointError, minimize
from .posterior import correlation_matrix, hpdi, write_hpdi_json
from .profile import (
    chi2_threshold,
    default_grid,
    pl_interval,
    posterior_loss_threshold,
    profile_likelihood,
    unimodality_verdict,
    write_pl_json,
)
from .runconfig import ConfigError
from .structural import sensitivity_matrix, structural_verdict
from .synthdata import generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def cmd_simulate(resolved: dict, out: Path) -> None:
    dataset = generate(runconfig.build_dataset_config(resolved))
    dataset.write(out / "dataset.csv", out / "dataset.json")


def cmd_fit(resolved: dict, out: Path) -> None:
    dataset = generate(runconfig.build_dataset_config(resolved))
    space = runconfig.build_space(resolved)
    window = runconfig.build_window(resolved)
    section = resolved["fit"]
    result = minimize(fit_objective(dataset, window), space,
                      budget=int(section["budget"]),
                      seed=int(section["seed"]), method=section["method"])
    result.write_trace_csv(out / "trace.csv")
    write_json(out / "fit.json", {
        "variant": resolved["variant"],
        "window": list(resolved["window"]),
        "method": section["method"],
        "budget": int(section["budget"]),
        "seed": int(section["seed"]),
        "best_loss": result.best_loss,
        "best_params": result.best_params,
        "pinned": runconfig.variant_pins(resolved),
    })


def cmd_profile(resolved: dict, out: Path) -> None:
    dataset = generate(runconfig.build_dataset_config(resolved))
    space = runconfig.build_space(resolved)
    section = resolved["profile"]
    base_window = runconfig.build_window(resolved)
    durations = section["windows"]
    sweeping = durations is not None
    if sweeping:
        windows = [FitWindow(base_window.t_begin, base_window.t_begin + int(d))
                   for d in durations]
    else:
        windows = [base_window]
    warm_start = bool(section["warm_start"])
    # the posterior threshold depends on the window only, not on the parameter
    posterior_thresholds: dict[FitWindow, float] = {}

    for param in section["params"]:
        widths = {}
        for window in windows:
            duration = window.t_end - window.t_begin
            seed = runconfig.component_seed(int(section["seed"]),
                                            f"{param}:{duration}")
            grid = default_grid(param, space.bounds[param],
                                int(section["grid_points"]))
            curve = profile_likelihood(
                dataset, param, grid=grid, space=space, window=window,
                inner_budget=int(section["inner_budget"]), seed=seed,
                warm_start=warm_start, n_jobs=int(resolved["threads"]))
            alpha = float(section["alpha"])
            if section["threshold"] == "posterior":
                if window not in posterior_thresholds:
                    chains = run_chains(
                        dataset, runconfig.build_mcmc_config(resolved, window=window))
                    posterior_thresholds[window], _ = posterior_loss_threshold(
                        dataset, chains, window, alpha=alpha,
                        seed=int(resolved["mcmc"]["seed"]))
                threshold = max(posterior_thresholds[window], curve.min_loss)
            else:
                threshold = chi2_threshold(curve, alpha)
            interval = pl_interval(curve, threshold, alpha=alpha)
            verdict = unimodality_verdict(curve)
            suffix = f"_w{duration}" if sweeping else ""
            curve.write_csv(out / f"pl_{param}{suffix}.csv")
            write_pl_json(out / f"pl_{param}{suffix}.json", curve,
                          interval=interval, verdict=verdict,
                          warm_start=warm_start)
            widths[str(duration)] = interval.width
        if sweeping:
            write_json(out / f"pl_{param}_widths.json",
                       {"param": param, "width_by_window": widths,
                        "warm_start": warm_start})


def cmd_mcmc(resolved: dict, out: Path) -> None:
    dataset = generate(runconfig.build_dataset_config(resolved))
    config = runconfig.build_mcmc_config(resolved)
    chains = run_chains(dataset, config)
    for chain in chains:
        chain.write_csv(out / f"chains_{chain.chain_id}.csv")

    names = list(chains[0].param_names)
    rhat = gelman_rubin(chains) if len(chains) >= 2 else {}
    intervals = {name: hpdi(pooled_param(chains, name), 0.95) for name in names}
    write_hpdi_json(out / "hpdi.json", intervals)

    pooled_s = np.concatenate([chain.s for chain in chains])
    params_summary = {}
    for name in names:
        pooled = pooled_param(chains, name)
        params_summary[name] = {
            "mean": float(pooled.mean()),
            "median": float(np.median(pooled)),
            "hpdi": intervals[name].to_dict(),
            "rhat": rhat.get(name),
        }
    write_json(out / "posterior.json", {
        "variant": resolved["variant"],
        "window": list(resolved["window"]),
        "n_chains": len(chains),
        "kept_per_chain": len(chains[0]),
        "accept_rates": [chain.accept_rate for chain in chains],
        "params": params_summary,
        "s": {"mean": float(pooled_s.mean()), "median": float(np.median(pooled_s))},
    })

    draws = np.column_stack([pooled_param(chains, name) for name in names])
    correlation_matrix(draws, names=names).write_csv(out / "correlation.csv")


def cmd_report(resolved: dict, out: Path) -> None:
    section = resolved["report"]
    dataset_config = runconfig.build_dataset_config(resolved)
    if section["params"] is None:
        point = dataset_config.true_params
    else:
        point = ModelParams.from_dict(section["params"])
    window = runconfig.build_window(resolved)
    times = section["times"]
    if times is None:
        times = list(range(window.t_begin + 1, window.t_end + 1))
    report = sensitivity_matrix(
        point, times, rel_step=float(section["rel_step"]),
        free_names=runconfig.build_space(resolved).free_names,
        scenario=dataset_config)
    payload = report.to_dict()
    payload["classification"] = structural_verdict(report)
    payload["variant"] = resolved["variant"]
    write_json(out / "sensitivity.json", payload)


def _forecast_mape_curve(dataset, params: ModelParams, window: FitWindow,
                         horizons: list[int]) -> dict[int, float]:
    predicted = simulate_observed(params, dataset.config, dataset.config.horizon)
    result = {}
    for h in horizons:
        pred = predicted.window(window.t_begin, h).series("total")
        obs = dataset.observed.window(window.t_begin, h).series("total")
        result[h] = mape(obs, pred)
    return result


def cmd_forecast_eval(resolved: dict, out: Path) -> None:
    section = resolved["forecast"]
    horizons = sorted(int(h) for h in section["horizons"])
    if not horizons:
        raise ConfigError("forecast.horizons must be a non-empty list")
    window = runconfig.build_window(resolved)
    base_config = runconfig.build_dataset_config(resolved)
    for h in horizons:
        if not window.t_end <= h <= base_config.horizon:
            raise ConfigError(
                f"forecast horizon {h} outside [{window.t_end}, "
                f"{base_config.horizon}]")

    variants = {"reparam": dict(resolved["pins"]), "original": {}}
    per_seed: dict[str, dict[str, dict]] = {name: {} for name in variants}
    seeds = [int(s) for s in section["seeds"]]
    for seed in seeds:
        dataset = generate(base_config.replace(seed=seed))
        for name, pins in variants.items():
            space = runconfig.build_space({**resolved, "variant": name,
                                           "pins": pins})
            result = minimize(fit_objective(dataset, window), space,
                              budget=int(section["budget"]),
                              seed=seed, method=section["method"])
            curve = _forecast_mape_curve(
                dataset, ModelParams.from_dict(result.best_params), window,
                horizons)
            per_seed[name][str(seed)] = {
                "fit_loss": result.best_loss,
                "mape": {str(h): curve[h] for h in horizons},
            }

    medians = {
        name: {str(h): float(np.median([per_seed[name][str(s)]["mape"][str(h)]
                                        for s in seeds]))
               for h in horizons}
        for name in variants
    }
    with open(out / "forecast.csv", "w") as fh:
        fh.write("horizon,reparam,original\n")
        for h in horizons:
            fh.write(f"{h},{medians['reparam'][str(h)]!r},"
                     f"{medians['original'][str(h)]!r}\n")
    write_json(out / "forecast.json", {
        "window": list(resolved["window"]),
        "horizons": horizons,
        "seeds": seeds,
        "budget": int(section["budget"]),
        "method": section["method"],
        "median_mape": medians,
        "per_seed": per_seed,
    })


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "profile": cmd_profile,
    "mcmc": cmd_mcmc,
    "report": cmd_report,
    "forecast-eval": cmd_forecast_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seiard",
        description="Synthetic-outbreak identifiability pipeline.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        sub = subparsers.add_parser(name, help=handler.__doc__)
        sub.add_argument("--config", metavar="FILE", default=None,
                         help="JSON config or a saved manifest.json")
        sub.add_argument("--set", metavar="PATH=VALUE", action="append",
                         default=[], dest="overrides",
                         help="override one config field (repeatable)")
        sub.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (overrides out_dir)")
        sub.add_argument("--threads", type=int, default=None,
                         help="processes for profile sweeps; curves do not change")
    return parser


def _prepare(args) -> tuple[dict, Path]:
    config = runconfig.load_config(args.config)
    for assignment in args.overrides:
        runconfig.apply_set(config, assignment)
    if args.out is not None:
        config["out_dir"] = args.out
    if args.threads is not None:
        config["threads"] = args.threads
    runconfig.validate(config)
    resolved = runconfig.resolve_config(config)
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return resolved, out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved, out = _prepare(args)
        COMMANDS[args.command](resolved, out)
        write_json(out / "manifest.json",
                   runconfig.manifest_payload(args.command, resolved))
    except (DivergenceError, NoFeasiblePointError) as error:
        print(f"seiard {args.command}: numeric failure: {error}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as error:
        print(f"seiard {args.command}: {error}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
