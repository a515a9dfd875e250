import math
import pickle

import numpy as np
import pytest

from seiard import defaults
from seiard.dynamics import (
    OBSERVED_SERIES,
    DivergenceError,
    ModelParams,
    simulate_observed,
)
from seiard.loss import (
    EPSILON_PERSONS,
    FitWindow,
    fit_loss,
    fit_objective,
    mape,
)
from seiard.synthdata import Dataset, NoiseSpec, default_config, generate

TRUE = defaults.TRUE_PARAMS


@pytest.fixture(scope="module")
def dataset():
    return generate(default_config(horizon=60))


@pytest.fixture(scope="module")
def long_dataset():
    return generate(default_config(horizon=400))


class TestMape:
    def test_perfect_prediction_is_zero(self):
        assert mape([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) == 0.0

    def test_hand_value(self):
        # errors of 100%, 0%, 25% -> mean 41.666..%
        assert mape([1.0, 2.0, 4.0], [2.0, 2.0, 3.0]) == pytest.approx(125.0 / 3.0)

    def test_zero_truth_guard(self):
        # denominator floors at one person instead of dividing by zero
        assert mape([0.0, 10.0], [1.0, 10.0]) == pytest.approx(50.0)
        assert mape([0.0], [0.0]) == 0.0
        assert EPSILON_PERSONS == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mape([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mape([], [])

    def test_symmetric_in_error_sign(self):
        assert mape([10.0], [12.0]) == mape([10.0], [8.0])

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (8,), (29,), (113,), (3, 5)])
    def test_equals_np_mean_formula(self, shape):
        rng = np.random.default_rng(len(shape) + sum(shape))
        for _ in range(20):
            truth, predicted = rng.lognormal(2.0, 3.0, (2,) + shape)
            assert mape(truth, predicted) == reference_mape(truth, predicted)


class TestFitWindow:
    def test_day_count(self):
        assert FitWindow(0, 28).n_days == 29

    @pytest.mark.parametrize("bad", [(-1, 5), (5, 5), (7, 3)])
    def test_bad_ranges_rejected(self, bad):
        with pytest.raises(ValueError):
            FitWindow(*bad)


class TestFitLoss:
    def test_truth_scores_zero_on_noiseless_data(self, dataset):
        assert fit_loss(dataset, TRUE, FitWindow(0, 28)) <= 1e-9

    def test_wrong_beta_scores_worse(self, dataset):
        window = FitWindow(0, 28)
        at_truth = fit_loss(dataset, TRUE, window)
        assert fit_loss(dataset, TRUE.replace(beta=0.275), window) > at_truth
        assert fit_loss(dataset, TRUE.replace(beta=0.0), window) > 0.0

    def test_loss_grows_with_perturbation(self, dataset):
        window = FitWindow(0, 28)
        small = fit_loss(dataset, TRUE.replace(beta=0.26), window)
        large = fit_loss(dataset, TRUE.replace(beta=0.35), window)
        assert 0.0 < small < large

    def test_truth_scores_zero_on_noisy_data_is_false(self):
        noisy = generate(default_config(horizon=60, noise=NoiseSpec(0.1), seed=3))
        assert fit_loss(noisy, TRUE, FitWindow(0, 28)) > 0.0

    def test_window_must_fit_dataset(self, dataset):
        with pytest.raises(ValueError):
            fit_loss(dataset, TRUE, FitWindow(0, 61))

    def test_divergence_maps_to_inf(self, dataset, monkeypatch):
        import seiard.dynamics as dynamics_module

        def boom(*args, **kwargs):
            raise DivergenceError("synthetic failure at day 3")

        monkeypatch.setattr(dynamics_module, "integrate", boom)
        assert fit_loss(dataset, TRUE, FitWindow(0, 28)) == math.inf

    def test_loss_uses_candidate_initial_counts(self, dataset):
        # e0/i0 enter through the day-0 state; changing them must move the loss
        window = FitWindow(0, 28)
        assert fit_loss(dataset, TRUE.replace(e0=3.0), window) > 0.0

    def test_integrates_at_the_dataset_step(self):
        # a noiseless dataset made with dt=0.5 is matched exactly at the truth
        coarse = generate(default_config(horizon=60, dt=0.5))
        window = FitWindow(0, 28)
        assert fit_loss(coarse, TRUE, window) == 0.0
        assert fit_objective(coarse, window)(TRUE.as_dict()) == 0.0
        fine = Dataset(coarse.observed, coarse.config.replace(dt=0.1))
        assert fit_loss(fine, TRUE, window) > 0.0


def _random_params(rng, n):
    return [ModelParams(**{name: float(rng.uniform(lo, hi))
                           for name, (lo, hi) in defaults.SEARCH_BOUNDS.items()})
            for _ in range(n)]


def reference_mape(truth, predicted):
    return float(100.0 * np.mean(np.abs(truth - predicted)
                                 / np.maximum(truth, EPSILON_PERSONS)))


def reference_fit_loss(dataset, params, window):
    """fit_loss as four windowed np.mean MAPEs and np.mean over them."""
    try:
        simulated = simulate_observed(params, dataset.config, window.t_end)
    except DivergenceError:
        return math.inf
    predicted = simulated.window(window.t_begin, window.t_end)
    reported = dataset.observed.window(window.t_begin, window.t_end)
    return float(np.mean([reference_mape(reported.series(name), predicted.series(name))
                          for name in OBSERVED_SERIES]))


class TestFitLossBatch:
    """fit_loss over many candidates and windows, diverging ones among them.
    The class keeps the name of the batch scorer these checks were written
    for."""

    @pytest.fixture(scope="class")
    def noisy(self):
        return generate(default_config(horizon=120, noise=NoiseSpec(0.2), seed=5))

    @pytest.mark.parametrize("window", [FitWindow(0, 1), FitWindow(0, 28),
                                        FitWindow(3, 11), FitWindow(10, 120)])
    def test_equals_scalar_and_reference(self, noisy, window):
        params = _random_params(np.random.default_rng(window.t_end), 60)
        params[5] = params[40] = TRUE.replace(beta=1e300)
        got = [fit_loss(noisy, p, window) for p in params]
        assert got == [reference_fit_loss(noisy, p, window) for p in params]
        assert [math.isinf(v) for v in got] == [k in (5, 40) for k in range(60)]

    def test_window_must_fit_dataset(self, noisy):
        with pytest.raises(ValueError):
            fit_objective(noisy, FitWindow(0, 121))


class TestFitObjective:
    def test_scores_one_candidate_with_fit_loss(self, dataset):
        window = FitWindow(0, 28)
        objective = fit_objective(dataset, window)
        candidates = [p.as_dict() for p in _random_params(np.random.default_rng(2), 30)]
        candidates[7] = TRUE.replace(beta=1e300).as_dict()
        want = [fit_loss(dataset, ModelParams.from_dict(c), window) for c in candidates]
        got = [objective(c) for c in candidates]
        assert got == want
        assert all(type(v) is float for v in got)
        assert got[7] == math.inf

    def test_custom_loss_applied_to_each_candidate(self, dataset):
        seen = []

        def custom(data, params, window):
            seen.append((data, params, window))
            return 2.0 * params.beta

        objective = fit_objective(dataset, FitWindow(0, 5), custom)
        other = TRUE.replace(beta=0.5)
        assert [objective(TRUE.as_dict()), objective(other.as_dict())] == [
            2.0 * TRUE.beta, 1.0]
        assert seen == [(dataset, TRUE, FitWindow(0, 5)),
                        (dataset, other, FitWindow(0, 5))]

    def test_pickles(self, dataset):
        # profile sends it to its sweep processes
        objective = fit_objective(dataset, FitWindow(0, 28))
        copy = pickle.loads(pickle.dumps(objective))
        assert copy(TRUE.as_dict()) == objective(TRUE.as_dict())
