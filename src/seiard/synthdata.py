"""Synthetic outbreak datasets: simulate the ground-truth model, optionally
corrupt the reported series with multiplicative lognormal noise, and keep the
generating configuration attached for exact regeneration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import defaults
from .artifacts import write_json
from .dynamics import ModelParams, ObservedSeries, simulate_observed


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative lognormal observation noise; sigma 0 turns it off."""

    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class DatasetConfig:
    true_params: ModelParams
    population_n: float = defaults.POPULATION_N
    horizon: int = defaults.HORIZON_DAYS
    init_observed: tuple[float, float, float] = defaults.INIT_OBSERVED
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    a0_fatal_fraction: float | None = None
    dt: float = 0.1

    def replace(self, **changes) -> "DatasetConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "true_params": self.true_params.as_dict(),
            "population_n": self.population_n,
            "horizon": self.horizon,
            "init_observed": list(self.init_observed),
            "noise_sigma": self.noise.sigma,
            "seed": self.seed,
            "a0_fatal_fraction": self.a0_fatal_fraction,
            "dt": self.dt,
        }


@dataclass(frozen=True)
class Dataset:
    """Observed case series plus the exact configuration that produced them."""

    observed: ObservedSeries
    config: DatasetConfig

    def write(self, csv_path, json_path) -> None:
        self.observed.write_csv(csv_path)
        write_json(json_path, self.config.to_dict())


def default_config(**changes) -> DatasetConfig:
    """The standard synthetic scenario; pass overrides as keyword arguments."""
    return DatasetConfig(true_params=defaults.TRUE_PARAMS).replace(**changes)


def _noise_draw(seed: int, series_index: int, day: int, sigma: float) -> float:
    # one stream per (seed, series, day) keeps draws independent of iteration
    # order and of how many days/series are generated
    rng = np.random.default_rng(np.random.SeedSequence((seed, series_index, day)))
    return rng.normal(0.0, sigma)


def generate(config: DatasetConfig) -> Dataset:
    """Simulate the configured scenario and apply observation noise.

    Noise multiplies each reported value by exp(eps with eps ~ N(0, sigma^2)),
    independently per series and day.  The cumulative series (recovered,
    deceased) are re-monotonized with a running maximum afterwards, and the
    total is recomputed from the three noisy series.
    """
    clean = simulate_observed(config.true_params, config, config.horizon)
    if config.noise.sigma == 0.0:
        return Dataset(observed=clean, config=config)

    values = clean.values.copy()
    # active, recovered and deceased are noisy; a row's index seeds its streams
    for index, row in enumerate(values[:3]):
        for day in range(len(row)):
            row[day] *= np.exp(_noise_draw(config.seed, index, day, config.noise.sigma))
    # reported cumulative counts never decrease
    values[1:3] = np.maximum.accumulate(values[1:3], axis=1)
    values[3] = values[0] + values[1] + values[2]
    return Dataset(observed=ObservedSeries(times=clean.times, values=values),
                   config=config)
