"""Single-document run configuration for the command-line pipeline.

One JSON object configures every subcommand.  Unset seeds are resolved by
hashing the master seed together with a component label, so a saved manifest
pins the full randomness of a run while the components stay on independent
streams.  Loading, dotted-path overrides and the builders that turn the
document into library objects all live here.
"""

from __future__ import annotations

import copy
import hashlib
import json

from . import defaults
from .dynamics import PARAM_NAMES, ModelParams
from .loss import FitWindow
from .mcmc import McmcConfig
from .optimize import METHODS, SearchSpace
from .profile import MIN_GRID_POINTS
from .synthdata import DatasetConfig, NoiseSpec

VARIANTS = ("original", "reparam")
THRESHOLD_MODES = ("chi2", "posterior")

# Paths whose values are name -> number maps rather than fixed schema nodes;
# overrides replace or extend them instead of being checked against defaults.
_OPEN_DICTS = frozenset({
    "pins", "dataset.true_params", "mcmc.proposal_variances", "report.params",
})


def default_config() -> dict:
    """A fresh copy of the full default run configuration."""
    return {
        "out_dir": "run",
        "master_seed": 0,
        "threads": 1,
        "variant": "reparam",
        "pins": dict(defaults.REPARAM_PINS),
        "window": [0, 28],
        "dataset": {
            "true_params": defaults.TRUE_PARAMS.as_dict(),
            "population_n": defaults.POPULATION_N,
            "horizon": defaults.HORIZON_DAYS,
            "init_observed": list(defaults.INIT_OBSERVED),
            "sigma_noise": 0.0,
            "seed": None,
            "a0_fatal_fraction": None,
            "dt": 0.1,
        },
        "fit": {
            "method": "random+nm",
            "budget": defaults.FIT_BUDGET_REPARAM,
            "seed": None,
        },
        "profile": {
            "params": ["beta"],
            "grid_points": 25,
            "inner_budget": 300,
            "seed": None,
            "alpha": 0.95,
            "threshold": "chi2",
            "windows": None,
            "warm_start": True,
        },
        "mcmc": {
            "n_samples": 20_000,
            "n_burn": 5_000,
            "n_chains": 4,
            "thin": 5,
            "seed": None,
            "hastings_correction": True,
            "u": defaults.VARIANCE_PRIOR_SHAPE,
            "v": defaults.VARIANCE_PRIOR_SCALE,
            "proposal_variances": dict(defaults.PROPOSAL_VARIANCES),
        },
        "forecast": {
            "horizons": [],
            "seeds": None,
            "budget": defaults.FIT_BUDGET_REPARAM,
            "method": "random+nm",
        },
        "report": {
            "params": None,
            "times": None,
            "rel_step": 1e-4,
        },
    }


class ConfigError(ValueError):
    """Malformed configuration or override; maps to the usage exit code."""


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        here = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict) and here not in _OPEN_DICTS:
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be an object")
            _merge(base[key], value, here + ".")
        else:
            base[key] = copy.deepcopy(value)


def load_config(path=None) -> dict:
    """Defaults, optionally overlaid with a JSON file.

    The file may be either a plain configuration object or a saved manifest
    ({"command": ..., "config": ...}); manifests are unwrapped so a run can
    be reproduced by pointing --config at its manifest.
    """
    config = default_config()
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        if set(data) == {"command", "config"}:
            data = data["config"]
        _merge(config, data)
    return config


def apply_set(config: dict, assignment: str) -> None:
    """Apply one --set override, e.g. "mcmc.n_samples=4000".

    The value is parsed as JSON when possible and kept as a string otherwise,
    so both --set variant=original and --set profile.params='["beta"]' work.
    """
    if "=" not in assignment:
        raise ConfigError(f"--set needs path=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    if not all(keys):
        raise ConfigError(f"bad --set path {dotted!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    for depth, key in enumerate(keys[:-1]):
        prefix = ".".join(keys[:depth + 1])
        if not (isinstance(node, dict) and key in node):
            raise ConfigError(f"unknown config key {prefix!r}")
        if prefix in _OPEN_DICTS and depth < len(keys) - 2:
            raise ConfigError(f"{prefix!r} is a value map; set it wholesale "
                              f"or as {prefix}.<name>=<number>")
        node = node[key]
    parent = ".".join(keys[:-1])
    if not isinstance(node, dict):
        raise ConfigError(f"{parent!r} is not an object")
    if keys[-1] not in node and parent not in _OPEN_DICTS:
        raise ConfigError(f"unknown config key {dotted.strip()!r}")
    node[keys[-1]] = value


def component_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit seed for one pipeline component."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_config(config: dict) -> dict:
    """A deep copy with every unset component seed filled from the master
    seed, ready to be saved in a manifest and rerun bit-identically."""
    resolved = copy.deepcopy(config)
    master = resolved["master_seed"]
    for section, label in (("dataset", "synthdata"), ("fit", "fit"),
                           ("profile", "profile"), ("mcmc", "mcmc")):
        if resolved[section]["seed"] is None:
            resolved[section]["seed"] = component_seed(master, label)
    if resolved["forecast"]["seeds"] is None:
        resolved["forecast"]["seeds"] = [resolved["dataset"]["seed"]]
    return resolved


# Leaves whose default is null, with the type a set value must have.
_NULLABLE = {
    "dataset.seed": int, "fit.seed": int, "profile.seed": int, "mcmc.seed": int,
    "dataset.a0_fatal_fraction": float, "report.params": dict,
}
# Value maps that must name every parameter, not a subset.
_FULL_MAPS = frozenset({"dataset.true_params", "report.params"})
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _has_type(value, kind: type) -> bool:
    """JSON typing: a bool is never a number, and an int is a float."""
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_value_map(path: str, node) -> None:
    if not (isinstance(node, dict)
            and all(_has_type(v, float) for v in node.values())):
        raise ConfigError(f"{path} must be a name -> number object, got {node!r}")
    for name in node:
        if name not in PARAM_NAMES:
            raise ConfigError(f"{path}: unknown parameter {name!r}")
    if path in _FULL_MAPS and len(node) != len(PARAM_NAMES):
        raise ConfigError(f"{path} must map each of {PARAM_NAMES} "
                          f"to a number, got {node!r}")


def _check_types(default: dict, node: dict, path: str = "") -> None:
    """Every scalar leaf has its default's type (or the _NULLABLE type, or
    null), and every value map is a name -> number object."""
    for key, base in default.items():
        here = path + key
        value = node[key]
        if isinstance(base, dict) and here not in _OPEN_DICTS:
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be an object")
            _check_types(base, value, here + ".")
            continue
        if value is None and here in _NULLABLE:
            continue
        kind = _NULLABLE.get(here, type(base))
        if kind is dict:
            _check_value_map(here, value)
        elif kind in _KIND_NAMES and not _has_type(value, kind):
            raise ConfigError(f"{here} must be {_KIND_NAMES[kind]}, "
                              f"got {value!r}")


def validate(config: dict) -> None:
    """Cheap structural checks with usage-grade errors; the library
    constructors enforce the numeric invariants."""
    _check_types(default_config(), config)
    if config["threads"] < 1:
        raise ConfigError(f"threads must be an integer >= 1, "
                          f"got {config['threads']!r}")
    if config["variant"] not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, "
                          f"got {config['variant']!r}")
    window = config["window"]
    if not (isinstance(window, list) and len(window) == 2
            and all(_has_type(t, int) for t in window) and window[0] < window[1]):
        raise ConfigError(f"window must be two integers [t_begin, t_end] "
                          f"with t_begin < t_end, got {window!r}")
    if window[1] > config["dataset"]["horizon"]:
        raise ConfigError("window end exceeds the dataset horizon")
    if config["fit"]["method"] not in METHODS:
        raise ConfigError(f"fit.method must be one of {METHODS}")
    if config["forecast"]["method"] not in METHODS:
        raise ConfigError(f"forecast.method must be one of {METHODS}")
    if config["profile"]["threshold"] not in THRESHOLD_MODES:
        raise ConfigError(f"profile.threshold must be one of {THRESHOLD_MODES}")
    alpha = config["profile"]["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"profile.alpha must lie in (0, 1), got {alpha!r}")
    if config["profile"]["grid_points"] < MIN_GRID_POINTS:
        raise ConfigError(f"profile.grid_points must be at least "
                          f"{MIN_GRID_POINTS}, got {config['profile']['grid_points']!r}")
    params = config["profile"]["params"]
    if not (isinstance(params, list) and all(isinstance(n, str) for n in params)):
        raise ConfigError(f"profile.params must be a list of names, got {params!r}")
    for path, none_ok in (("forecast.horizons", False), ("forecast.seeds", True),
                          ("profile.windows", True), ("report.times", True)):
        section, key = path.split(".")
        value = config[section][key]
        if not ((value is None and none_ok) or (
                isinstance(value, list) and all(_has_type(v, int) for v in value))):
            raise ConfigError(f"{path} must be a list of integers, got {value!r}")
    counts = config["dataset"]["init_observed"]
    if not (isinstance(counts, list) and len(counts) == 3
            and all(_has_type(v, float) for v in counts)):
        raise ConfigError(f"dataset.init_observed must be three numbers "
                          f"[active, recovered, deceased], got {counts!r}")
    free = build_space(config).free_names
    for name in params:
        if name not in free:
            raise ConfigError(f"profile.params: {name!r} is not free under "
                              f"variant {config['variant']!r}")


def variant_pins(config: dict) -> dict[str, float]:
    if config["variant"] == "original":
        return {}
    return {name: float(value) for name, value in config["pins"].items()}


def build_space(config: dict) -> SearchSpace:
    return SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=variant_pins(config))


def build_window(config: dict) -> FitWindow:
    return FitWindow(int(config["window"][0]), int(config["window"][1]))


def build_dataset_config(config: dict) -> DatasetConfig:
    d = config["dataset"]
    if d["seed"] is None:
        raise ConfigError("dataset.seed unresolved; call resolve_config first")
    return DatasetConfig(
        true_params=ModelParams.from_dict(d["true_params"]),
        population_n=float(d["population_n"]),
        horizon=int(d["horizon"]),
        init_observed=tuple(float(v) for v in d["init_observed"]),
        noise=NoiseSpec(float(d["sigma_noise"])),
        seed=int(d["seed"]),
        a0_fatal_fraction=(None if d["a0_fatal_fraction"] is None
                           else float(d["a0_fatal_fraction"])),
        dt=float(d["dt"]),
    )


def build_mcmc_config(config: dict, window: FitWindow | None = None) -> McmcConfig:
    m = config["mcmc"]
    if m["seed"] is None:
        raise ConfigError("mcmc.seed unresolved; call resolve_config first")
    return McmcConfig(
        window=window if window is not None else build_window(config),
        space=build_space(config),
        proposal_variances=dict(m["proposal_variances"]),
        u=float(m["u"]),
        v=float(m["v"]),
        n_samples=int(m["n_samples"]),
        n_burn=int(m["n_burn"]),
        n_chains=int(m["n_chains"]),
        thin=int(m["thin"]),
        seed=int(m["seed"]),
        hastings_correction=bool(m["hastings_correction"]),
    )


def manifest_payload(command: str, resolved: dict) -> dict:
    return {"command": command, "config": resolved}
