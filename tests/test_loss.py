import math

import numpy as np
import pytest

from seiard import defaults
from seiard.dynamics import DivergenceError
from seiard.loss import EPSILON_PERSONS, FitWindow, fit_loss, mape
from seiard.synthdata import NoiseSpec, default_config, generate

TRUE = defaults.TRUE_PARAMS


@pytest.fixture(scope="module")
def dataset():
    return generate(default_config(horizon=60))


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
