"""Tests for profile-likelihood curves, verdicts and intervals.

Shape classification and sub-level sets are pinned with hand-built synthetic
curves where every crossing can be computed by hand; the sweep itself is
exercised against the real pipeline on small grids.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from seiard import defaults, synthdata
from seiard.dynamics import ModelParams
from seiard.loss import FitWindow, fit_loss
from seiard.mcmc import McmcConfig, run_chains
from seiard.optimize import SearchSpace
from seiard.posterior import loss_quantile
from seiard.profile import (
    VERDICT_IDENTIFIABLE,
    VERDICT_INCONCLUSIVE,
    VERDICT_NON_IDENTIFIABLE,
    PlCurve,
    chi2_threshold,
    default_grid,
    pl_interval,
    posterior_loss_threshold,
    profile_likelihood,
    unimodality_verdict,
    write_pl_json,
)

TRUTH = defaults.TRUE_PARAMS


def make_curve(values, grid=None, failed=None, name="beta"):
    values = np.asarray(values, dtype=float)
    if grid is None:
        grid = np.linspace(0.0, 1.0, len(values))
    if failed is None:
        failed = ~np.isfinite(values)
    return PlCurve(name, np.asarray(grid, float), values,
                   tuple({} for _ in values), np.asarray(failed, bool))


class TestDefaultGrid:
    def test_time_constants_are_log_spaced(self):
        grid = default_grid("t_recov", (1.0, 100.0))
        assert grid.shape == (25,)
        assert grid[0] == 1.0 and grid[-1] == pytest.approx(100.0)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_rates_are_linear(self):
        grid = default_grid("beta", (0.0, 1.0), n_points=5)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_grid_rejects_nonpositive_lower_bound(self):
        with pytest.raises(ValueError):
            default_grid("t_inf", (0.0, 100.0))


class TestVerdict:
    def test_v_shape_identifiable(self):
        assert unimodality_verdict(make_curve([4, 2, 0.5, 2, 4])) == VERDICT_IDENTIFIABLE

    def test_constant_curve_non_identifiable(self):
        assert unimodality_verdict(make_curve([1, 1, 1, 1, 1])) == VERDICT_NON_IDENTIFIABLE

    def test_w_shape_non_identifiable(self):
        curve = make_curve([4, 0.5, 3, 0.5, 4, 5, 6])
        assert unimodality_verdict(curve) == VERDICT_NON_IDENTIFIABLE

    def test_monotone_curve_inconclusive(self):
        assert unimodality_verdict(make_curve([0, 1, 2, 3, 4])) == VERDICT_INCONCLUSIVE

    def test_wobble_below_tolerance_is_smoothed(self):
        base = np.abs(np.linspace(-1.0, 1.0, 21)) * 10.0
        rng = np.random.default_rng(0)
        noisy = base + rng.uniform(-0.05, 0.05, size=base.size)
        assert unimodality_verdict(make_curve(noisy), rel_tol=0.05) == VERDICT_IDENTIFIABLE

    def test_wide_flat_minimum_non_identifiable(self):
        # minimum band covers 40% of the span
        values = [5, 4, 0.0, 0.001, 0.002, 0.001, 0.0, 4, 5, 6, 7]
        assert unimodality_verdict(make_curve(values)) == VERDICT_NON_IDENTIFIABLE

    def test_narrow_minimum_stays_identifiable(self):
        values = [9, 6, 3, 1, 0.0, 1, 3, 6, 9, 12, 15]
        assert unimodality_verdict(make_curve(values)) == VERDICT_IDENTIFIABLE

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            unimodality_verdict(make_curve([1, 0, 1, 2]))


class TestPlInterval:
    def test_symmetric_v_half_height(self):
        grid = np.linspace(0.0, 1.0, 11)
        curve = make_curve(np.abs(grid - 0.5), grid=grid)
        interval = pl_interval(curve, threshold=0.25)
        assert len(interval.segments) == 1
        lo, hi = interval.segments[0]
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(0.75, abs=1e-12)
        assert not interval.censored_left and not interval.censored_right

    def test_threshold_at_minimum_degenerates_to_point(self):
        grid = np.linspace(0.0, 1.0, 11)
        curve = make_curve(np.abs(grid - 0.5), grid=grid)
        interval = pl_interval(curve, threshold=0.0)
        assert interval.segments == ((0.5, 0.5),)
        assert interval.width == 0.0

    def test_threshold_below_minimum_rejected(self):
        curve = make_curve([3, 1, 3])
        with pytest.raises(ValueError):
            pl_interval(curve, threshold=0.5)

    def test_nan_threshold_rejected(self):
        # chi2_threshold at an alpha outside (0, 1) is NaN
        curve = make_curve([3, 1, 3])
        with pytest.raises(ValueError):
            pl_interval(curve, threshold=math.nan)
        with pytest.raises(ValueError):
            pl_interval(curve, threshold=chi2_threshold(curve, alpha=1.5))

    def test_w_curve_gives_two_segments(self):
        grid = np.linspace(0.0, 1.0, 9)
        values = [4, 0, 2, 4, 6, 4, 2, 0, 4]
        interval = pl_interval(make_curve(values, grid=grid), threshold=1.0)
        assert len(interval.segments) == 2
        assert interval.segments[0][1] < interval.segments[1][0]

    def test_censoring_flags_when_level_set_hits_edges(self):
        curve = make_curve([0.5, 1.5, 3.0, 1.5, 0.5])
        interval = pl_interval(curve, threshold=2.0)
        assert interval.censored_left and interval.censored_right
        assert len(interval.segments) == 2

    def test_full_coverage_single_segment(self):
        grid = np.linspace(0.0, 1.0, 5)
        interval = pl_interval(make_curve([1, 2, 1, 2, 1], grid=grid), threshold=10.0)
        assert interval.segments == ((0.0, 1.0),)
        assert interval.censored_left and interval.censored_right

    def test_failed_points_break_segments(self):
        grid = np.linspace(0.0, 1.0, 5)
        values = np.array([0.5, math.inf, 0.5, 0.6, 0.5])
        interval = pl_interval(make_curve(values, grid=grid), threshold=1.0)
        assert len(interval.segments) == 2

    def test_contains_and_width(self):
        grid = np.linspace(0.0, 1.0, 11)
        curve = make_curve(np.abs(grid - 0.5), grid=grid)
        interval = pl_interval(curve, threshold=0.25)
        (segment,) = interval.segments
        assert segment == pytest.approx((0.25, 0.75), abs=1e-12)
        assert interval.width == pytest.approx(0.5, abs=1e-12)

    @given(st.lists(st.floats(0.0, 100.0), min_size=5, max_size=40),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_segments_grow_with_threshold(self, values, q1, q2):
        curve = make_curve(values)
        lo_q, hi_q = sorted([q1, q2])
        vmin, vmax = min(values), max(values)
        t1 = vmin + lo_q * (vmax - vmin)
        t2 = vmin + hi_q * (vmax - vmin)
        small = pl_interval(curve, threshold=t1)
        large = pl_interval(curve, threshold=t2)
        for lo, hi in small.segments:
            assert any(big_lo <= lo and hi <= big_hi
                       for big_lo, big_hi in large.segments)

    def test_to_dict_round_trips_through_json(self):
        curve = make_curve([3, 1, 0.5, 1, 3])
        interval = pl_interval(curve, threshold=1.0)
        payload = json.loads(json.dumps(interval.to_dict()))
        assert payload["segments"] == [[lo, hi] for lo, hi in interval.segments]
        assert payload["censored_left"] == interval.censored_left


class TestThresholds:
    def test_chi2_offset_value(self):
        curve = make_curve([3, 1, 0.25, 1, 3])
        want = 0.25 + chi2.ppf(0.95, df=1)
        assert chi2_threshold(curve, 0.95) == pytest.approx(want, rel=1e-12)

    def test_chi2_quantile_bit_identical_to_scipy_stats(self):
        curve = make_curve([3, 1, 0.0, 1, 3])
        alphas = np.concatenate([[0.5, 0.6827, 0.8, 0.9, 0.95, 0.99, 0.999],
                                 np.linspace(0.001, 0.999, 999),
                                 np.geomspace(1e-9, 1e-3, 50),
                                 1.0 - np.geomspace(1e-9, 1e-3, 50)])
        got = [chi2_threshold(curve, float(a)) for a in alphas]
        assert got == [float(v) for v in chi2.ppf(alphas, df=1)]

    def test_posterior_threshold_matches_quantile_of_returned_losses(self):
        dataset = synthdata.generate(synthdata.default_config(horizon=40))
        config = McmcConfig(window=FitWindow(0, 7), n_samples=60, n_burn=20,
                            thin=4, n_chains=2, seed=5,
                            space=SearchSpace(dict(defaults.SEARCH_BOUNDS),
                                              pinned=dict(defaults.REPARAM_PINS)))
        chains = run_chains(dataset, config)
        threshold, losses = posterior_loss_threshold(dataset, chains,
                                                     FitWindow(0, 7), alpha=0.9)
        assert threshold == loss_quantile(losses, 0.9)
        assert losses.shape == (sum(len(c) for c in chains),)
        again, _ = posterior_loss_threshold(dataset, chains, FitWindow(0, 7), alpha=0.9)
        assert again == threshold

    def test_posterior_threshold_subsamples_deterministically(self):
        dataset = synthdata.generate(synthdata.default_config(horizon=40))
        config = McmcConfig(window=FitWindow(0, 7), n_samples=60, n_burn=10,
                            thin=1, n_chains=2, seed=5,
                            space=SearchSpace(dict(defaults.SEARCH_BOUNDS),
                                              pinned=dict(defaults.REPARAM_PINS)))
        chains = run_chains(dataset, config)
        t1, losses = posterior_loss_threshold(dataset, chains, FitWindow(0, 7),
                                              max_draws=30, seed=8)
        t2, _ = posterior_loss_threshold(dataset, chains, FitWindow(0, 7),
                                         max_draws=30, seed=8)
        assert losses.shape == (30,)
        assert t1 == t2


def reparam_space(extra_pins=None):
    pinned = dict(defaults.REPARAM_PINS)
    if extra_pins:
        pinned.update(extra_pins)
    return SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=pinned)


@pytest.fixture(scope="module")
def clean_dataset():
    return synthdata.generate(synthdata.default_config(horizon=60))


class TestProfileLikelihood:
    def test_single_point_at_truth_attains_zero(self, clean_dataset):
        curve = profile_likelihood(
            clean_dataset, "beta", grid=[TRUTH.beta], space=reparam_space(),
            window=FitWindow(0, 14), inner_budget=60, seed=0,
            center=TRUTH.as_dict())
        assert curve.profiled_loss[0] <= 1e-9
        assert not curve.failed[0]

    def test_recorded_argmin_reproduces_profiled_loss(self, clean_dataset):
        window = FitWindow(0, 14)
        curve = profile_likelihood(
            clean_dataset, "beta", grid=[0.2, 0.25, 0.3], space=reparam_space(),
            window=window, inner_budget=40, seed=1, center=TRUTH.as_dict())
        for j, value in enumerate(curve.grid):
            params = ModelParams.from_dict({**curve.argmins[j],
                                            "beta": float(value)})
            assert fit_loss(clean_dataset, params, window) == pytest.approx(
                curve.profiled_loss[j], rel=1e-12)

    def test_profiled_value_beats_center_loss(self, clean_dataset):
        # profiling at the true beta with a warm start can never do worse
        # than the center point itself
        window = FitWindow(0, 14)
        curve = profile_likelihood(
            clean_dataset, "beta", grid=[TRUTH.beta], space=reparam_space(),
            window=window, inner_budget=40, seed=2, center=TRUTH.as_dict())
        assert curve.profiled_loss[0] <= fit_loss(clean_dataset, TRUTH, window) + 1e-12

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_parallel_matches_sequential(self, clean_dataset, warm_start):
        kwargs = dict(
            grid=[0.2, 0.24, 0.28, 0.32], space=reparam_space({"e0": 1.0, "i0": 1.0}),
            window=FitWindow(0, 10), inner_budget=50, seed=3,
            warm_start=warm_start)
        seq = profile_likelihood(clean_dataset, "beta", n_jobs=1, **kwargs)
        par = profile_likelihood(clean_dataset, "beta", n_jobs=2, **kwargs)
        np.testing.assert_array_equal(seq.profiled_loss, par.profiled_loss)
        assert seq.argmins == par.argmins
        np.testing.assert_array_equal(seq.failed, par.failed)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_custom_loss_gives_the_same_curve(self, clean_dataset, warm_start, n_jobs):
        # loss_fn=fit_loss builds the window's rows anew for every candidate,
        # the standard objective once; the budget leaves room for Nelder-Mead
        # after each exploration batch
        kwargs = dict(
            grid=[0.18, 0.22, 0.26, 0.30, 0.34], space=reparam_space(),
            window=FitWindow(0, 21), inner_budget=70, seed=6,
            warm_start=warm_start, n_jobs=n_jobs)
        standard = profile_likelihood(clean_dataset, "beta", **kwargs)
        custom = profile_likelihood(clean_dataset, "beta", loss_fn=fit_loss, **kwargs)
        assert standard.profiled_loss.tobytes() == custom.profiled_loss.tobytes()
        assert standard.argmins == custom.argmins
        assert standard.failed.tolist() == custom.failed.tolist()

    def test_validation_errors(self, clean_dataset):
        with pytest.raises(ValueError):
            profile_likelihood(clean_dataset, "t_inc", space=reparam_space(),
                               grid=[5.0])
        with pytest.raises(ValueError):
            profile_likelihood(clean_dataset, "beta", grid=[],
                               space=reparam_space())
        with pytest.raises(ValueError):
            profile_likelihood(clean_dataset, "beta", grid=[0.3, 0.2],
                               space=reparam_space())

    def test_reduced_model_beta_curve_dips_at_truth(self, clean_dataset):
        grid = np.linspace(0.05, 0.6, 12)
        curve = profile_likelihood(
            clean_dataset, "beta", grid=grid, space=reparam_space(),
            window=FitWindow(0, 28), inner_budget=200, seed=4,
            center=TRUTH.as_dict())
        best = curve.grid[int(np.argmin(curve.profiled_loss))]
        assert abs(best - TRUTH.beta) <= 0.06
        assert unimodality_verdict(curve, rel_tol=0.05) == VERDICT_IDENTIFIABLE

    def test_write_outputs(self, clean_dataset, tmp_path):
        curve = make_curve([3, 1, 0.5, 1, 3])
        interval = pl_interval(curve, threshold=1.0)
        csv_path = tmp_path / "curve.csv"
        json_path = tmp_path / "curve.json"
        curve.write_csv(csv_path)
        write_pl_json(json_path, curve, interval, VERDICT_IDENTIFIABLE)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "theta,profiled_loss"
        assert len(lines) == 6
        payload = json.loads(json_path.read_text())
        assert payload["verdict"] == VERDICT_IDENTIFIABLE
        assert payload["interval"]["segments"] == [[0.25, 0.75]]
