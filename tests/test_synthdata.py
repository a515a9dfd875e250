import json

import numpy as np
import pytest

from seiard import defaults
from seiard.dynamics import build_initial_state, integrate, observe
from seiard.synthdata import Dataset, NoiseSpec, default_config, generate


def test_noiseless_equals_clean_simulation():
    config = default_config(horizon=60)
    data = generate(config)
    init = build_initial_state(defaults.TRUE_PARAMS, config.population_n,
                               config.init_observed)
    clean = observe(integrate(defaults.TRUE_PARAMS, init, 60, 0.1))
    assert (data.observed.series("active") == clean.series("active")).all()
    assert (data.observed.series("recovered") == clean.series("recovered")).all()
    assert (data.observed.series("deceased") == clean.series("deceased")).all()
    assert (data.observed.series("total") == clean.series("total")).all()


def test_day_zero_matches_scenario():
    data = generate(default_config(horizon=30))
    obs = data.observed
    assert (obs.series("active")[0], obs.series("recovered")[0],
            obs.series("deceased")[0], obs.series("total")[0]) == (5.0, 0.0, 0.0, 5.0)
    assert len(obs.times) == 31


def test_same_seed_reproduces_exactly():
    config = default_config(horizon=80, noise=NoiseSpec(0.1), seed=42)
    a = generate(config)
    b = generate(config)
    assert (a.observed.series("active") == b.observed.series("active")).all()
    assert (a.observed.series("recovered") == b.observed.series("recovered")).all()
    assert (a.observed.series("deceased") == b.observed.series("deceased")).all()


def test_different_seed_differs():
    base = default_config(horizon=80, noise=NoiseSpec(0.1), seed=1)
    a = generate(base)
    b = generate(base.replace(seed=2))
    assert not (a.observed.series("active") == b.observed.series("active")).all()


def test_noisy_cumulative_series_stay_monotone():
    data = generate(default_config(horizon=200, noise=NoiseSpec(0.3), seed=11))
    assert (np.diff(data.observed.series("recovered")) >= 0).all()
    assert (np.diff(data.observed.series("deceased")) >= 0).all()
    assert (data.observed.series("total") == data.observed.series("active")
            + data.observed.series("recovered") + data.observed.series("deceased")).all()


def test_noise_magnitude_matches_sigma():
    sigma = 0.1
    horizon = 300
    noisy = generate(default_config(horizon=horizon, noise=NoiseSpec(sigma), seed=5))
    clean = generate(default_config(horizon=horizon))
    # skip early days where counts are tiny; log-ratio of active is the raw eps
    sl = slice(50, None)
    eps = np.log(noisy.observed.series("active")[sl] / clean.observed.series("active")[sl])
    assert abs(eps.mean()) < 0.02
    assert eps.std() == pytest.approx(sigma, rel=0.2)


def test_noise_independent_per_series_and_day():
    sigma = 0.2
    noisy = generate(default_config(horizon=200, noise=NoiseSpec(sigma), seed=5))
    clean = generate(default_config(horizon=200))
    sl = slice(50, None)
    eps_active = np.log(noisy.observed.series("active")[sl] / clean.observed.series("active")[sl])
    # deceased was re-monotonized, active was not; use raw draws via recovered
    # before monotonization is not recoverable, so check decorrelation of
    # active across a one-day shift and against itself
    assert abs(np.corrcoef(eps_active[:-1], eps_active[1:])[0, 1]) < 0.2


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)


def test_config_round_trip_and_write(tmp_path):
    config = default_config(horizon=40, noise=NoiseSpec(0.05), seed=9,
                            a0_fatal_fraction=0.4)
    data = generate(config)
    csv_path = tmp_path / "observed.csv"
    json_path = tmp_path / "config.json"
    data.write(csv_path, json_path)
    with open(json_path) as fh:
        stored = json.load(fh)
    assert stored == json.loads(json.dumps(config.to_dict()))
    # the eight DatasetConfig fields, the noise spec as its sigma
    assert set(stored) == {"true_params", "population_n", "horizon",
                           "init_observed", "noise_sigma", "seed",
                           "a0_fatal_fraction", "dt"}
    assert csv_path.read_text().startswith("t,active,recovered,deceased,total")


def test_split_override_changes_init():
    config = default_config(horizon=10, a0_fatal_fraction=1.0)
    data = generate(config)
    # all five initially active cases sit in the fatal branch, so deaths
    # accrue faster than under the default 3% split
    default = generate(default_config(horizon=10))
    assert data.observed.series("deceased")[-1] > default.observed.series("deceased")[-1]
