"""Tests for the Metropolis-within-Gibbs sampler.

Calibration tests replace the model likelihood with closed-form targets so
chain output can be checked against quadrature oracles; the Hastings
regression pins the truncation correction to the exact biased-vs-unbiased
stationary distributions it separates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from seiard.dynamics import ModelParams, build_initial_state, integrate, observe
from seiard.loss import FitWindow
from seiard.mcmc import (
    ChainSamples,
    McmcConfig,
    _residual_ss,
    _window_log_diffs,
    draw_inverse_gamma,
    gelman_rubin,
    log_diff,
    log_likelihood,
    pooled_param,
    propose,
    run_chain,
    run_chains,
    variance_posterior,
)
from seiard.optimize import SearchSpace
from seiard import defaults, synthdata

TRUTH = defaults.TRUE_PARAMS
REPARAM_SPACE = SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=dict(defaults.REPARAM_PINS))


@pytest.fixture(scope="module")
def clean_dataset():
    return synthdata.generate(synthdata.default_config(horizon=60))


@pytest.fixture(scope="module")
def noisy_dataset():
    return synthdata.generate(
        synthdata.default_config(horizon=60, noise=synthdata.NoiseSpec(sigma=0.05), seed=7))


def small_config(**overrides):
    base = dict(window=FitWindow(0, 7), n_samples=120, n_burn=40, thin=4,
                n_chains=2, seed=3)
    base.update(overrides)
    return McmcConfig(**base)


class TestLogDiff:
    def test_constant_series_gives_zeros(self):
        np.testing.assert_array_equal(log_diff([5.0, 5.0, 5.0]), [0.0, 0.0])

    def test_unit_to_e_gives_one(self):
        np.testing.assert_allclose(log_diff([1.0, math.e]), [1.0], rtol=1e-15)

    def test_doubling_gives_log_two(self):
        np.testing.assert_allclose(log_diff([3.0, 6.0, 12.0, 24.0]),
                                   [math.log(2.0)] * 3, rtol=1e-15)

    def test_small_counts_hit_one_person_floor(self):
        # both 0.25 and 0.5 floor to 1, so the first increment vanishes
        np.testing.assert_allclose(log_diff([0.25, 0.5, 3.0]),
                                   [0.0, math.log(3.0)], rtol=1e-15)

    def test_length_is_n_minus_one(self):
        assert log_diff(np.arange(1.0, 9.0)).shape == (7,)


def independent_loglik(dataset, params, s, window, components):
    """Plain-numpy recomputation used as the oracle."""
    cfg = dataset.config
    init = build_initial_state(params, cfg.population_n, cfg.init_observed,
                               cfg.a0_fatal_fraction)
    predicted = observe(integrate(params, init, window.t_end, cfg.dt))
    total = 0.0
    count = 0
    for name in components:
        lo, hi = window.t_begin, window.t_end + 1
        z = np.log(np.maximum(np.asarray(dataset.observed.series(name))[lo:hi], 1.0))
        z_hat = np.log(np.maximum(np.asarray(predicted.series(name))[lo:hi], 1.0))
        residual = np.diff(z) - np.diff(z_hat)
        total += float((residual ** 2).sum())
        count += residual.size
    return -0.5 * count * math.log(2.0 * math.pi * s) - total / (2.0 * s)


class TestLogLikelihood:
    def test_matches_independent_recomputation(self, noisy_dataset):
        params = TRUTH.replace(beta=0.22, e0=1.4)
        window = FitWindow(0, 14)
        got = log_likelihood(noisy_dataset, params, 0.01, window)
        want = independent_loglik(noisy_dataset, params, 0.01, window,
                                  ("active", "recovered", "deceased"))
        assert got == pytest.approx(want, rel=1e-12)

    def test_truth_maximizes_on_clean_data(self, clean_dataset):
        window = FitWindow(0, 28)
        at_truth = log_likelihood(clean_dataset, TRUTH, 0.01, window)
        for beta in [0.15, 0.20, 0.30, 0.40]:
            assert log_likelihood(clean_dataset, TRUTH.replace(beta=beta),
                                  0.01, window) < at_truth

    def test_doubling_s_with_zero_residuals(self, clean_dataset):
        # on clean data at the generating parameters every residual is zero,
        # so the likelihood drop is exactly the normalization term
        window = FitWindow(0, 28)
        count = 3 * (window.t_end - window.t_begin)
        drop = (log_likelihood(clean_dataset, TRUTH, 0.01, window)
                - log_likelihood(clean_dataset, TRUTH, 0.02, window))
        assert drop == pytest.approx(0.5 * count * math.log(2.0), rel=1e-12)

    def test_zero_residual_value_is_pure_normalization(self, clean_dataset):
        window = FitWindow(0, 1)
        s = 0.37
        got = log_likelihood(clean_dataset, TRUTH, s, window)
        assert got == pytest.approx(-0.5 * 3 * math.log(2.0 * math.pi * s), rel=1e-12)

    def test_single_observation_at_one_sd(self):
        # one residual equal to sqrt(s) contributes -0.5 - 0.5 log(2 pi s)
        from seiard.mcmc import _gaussian_loglik
        for s in [0.01, 1.0, 4.2]:
            assert _gaussian_loglik(s, 1, s) == pytest.approx(
                -0.5 - 0.5 * math.log(2.0 * math.pi * s), rel=1e-14)

    def test_divergent_candidate_returns_neg_inf(self, clean_dataset):
        stiff = TRUTH.replace(t_inc=1e-3)
        assert log_likelihood(clean_dataset, stiff, 0.01, FitWindow(0, 14)) == -math.inf

    def test_nonpositive_s_rejected(self, clean_dataset):
        with pytest.raises(ValueError):
            log_likelihood(clean_dataset, TRUTH, 0.0, FitWindow(0, 7))


def _reference_truncation_mass(center, sd, lo, hi):
    return float(ndtr((hi - center) / sd) - ndtr((lo - center) / sd))


def _reference_propose(theta_prev, config, rng):
    """The coordinate-by-coordinate proposal that propose vectorises."""
    theta_new = dict(theta_prev)
    correction = 0.0
    for name in config.space.free_names:
        lo, hi = config.space.bounds[name]
        center = theta_prev[name]
        if not lo <= center <= hi:
            raise ValueError(f"{name}={center} outside bounds [{lo}, {hi}]")
        sd = math.sqrt(config.proposal_variances[name])
        a = float(ndtr((lo - center) / sd))
        b = float(ndtr((hi - center) / sd))
        draw = center + sd * float(ndtri(rng.uniform(a, b)))
        draw = min(max(draw, lo), hi)
        theta_new[name] = draw
        correction += math.log(_reference_truncation_mass(center, sd, lo, hi))
        correction -= math.log(_reference_truncation_mass(draw, sd, lo, hi))
    return theta_new, correction


@st.composite
def proposal_cases(draw):
    """A box of 1-8 free coordinates plus one pin, centers at, next to and
    inside the bounds, and proposal variances from 1e-4 to 100."""
    n_free = draw(st.integers(1, 8))
    bounds, theta, variances = {}, {}, {}
    for j in range(n_free):
        lo = draw(st.floats(-100.0, 100.0))
        hi = lo + draw(st.floats(1e-3, 200.0))
        name = f"x{j}"
        bounds[name] = (lo, hi)
        theta[name] = draw(st.sampled_from([lo, hi, math.nextafter(lo, hi),
                                            math.nextafter(hi, lo)])
                           | st.floats(lo, hi))
        variances[name] = draw(st.floats(1e-4, 100.0))
    bounds["pin"] = (0.0, 1.0)
    theta["pin"] = 0.5
    return bounds, theta, variances, draw(st.integers(0, 2**32 - 1))


class TestPropose:
    def one_param_config(self, lo, hi, variance):
        return McmcConfig(window=FitWindow(0, 7), space=SearchSpace({"x": (lo, hi)}),
                          proposal_variances={"x": variance}, n_samples=10, n_burn=0)

    def test_mid_range_correction_vanishes(self):
        config = self.one_param_config(-1e6, 1e6, 4.0)
        rng = np.random.default_rng(0)
        theta, correction = propose({"x": 0.0}, config, rng)
        assert abs(correction) < 1e-12
        assert theta["x"] != 0.0

    def test_near_bound_correction_matches_normal_cdf(self):
        lo, hi, variance = 0.0, 10.0, 4.0
        sd = math.sqrt(variance)
        config = self.one_param_config(lo, hi, variance)
        rng = np.random.default_rng(5)
        start = 0.3
        theta, correction = propose({"x": start}, config, rng)

        def mass(center):
            return norm.cdf((hi - center) / sd) - norm.cdf((lo - center) / sd)

        want = math.log(mass(start)) - math.log(mass(theta["x"]))
        assert correction == pytest.approx(want, rel=1e-9)
        assert correction != 0.0

    def test_seed_reproducible(self):
        config = self.one_param_config(0.0, 1.0, 0.1)
        a = propose({"x": 0.4}, config, np.random.default_rng(11))
        b = propose({"x": 0.4}, config, np.random.default_rng(11))
        assert a == b

    def test_draws_stay_inside_bounds(self):
        config = self.one_param_config(0.0, 1.0, 25.0)
        rng = np.random.default_rng(2)
        theta = {"x": 0.01}
        for _ in range(500):
            theta, _ = propose(theta, config, rng)
            assert 0.0 <= theta["x"] <= 1.0

    def test_center_outside_bounds_rejected(self):
        config = self.one_param_config(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            propose({"x": 1.5}, config, np.random.default_rng(0))

    def test_pinned_values_pass_through(self):
        config = McmcConfig(window=FitWindow(0, 7),
                            space=SearchSpace({"x": (0.0, 1.0), "y": (0.0, 9.0)},
                                              pinned={"y": 3.0}),
                            proposal_variances={"x": 0.1},
                            n_samples=10, n_burn=0)
        theta, _ = propose({"x": 0.5, "y": 3.0}, config, np.random.default_rng(0))
        assert theta["y"] == 3.0

    @settings(max_examples=300, deadline=None)
    @given(proposal_cases())
    def test_matches_scalar_reference(self, case):
        bounds, theta, variances, seed = case
        config = McmcConfig(window=FitWindow(0, 7),
                            space=SearchSpace(bounds, pinned={"pin": theta["pin"]}),
                            proposal_variances=variances, n_samples=10, n_burn=0)
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = propose(theta, config, fast_rng)
        slow = _reference_propose(theta, config, slow_rng)
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]
        assert fast_rng.random() == slow_rng.random()


class TestVariancePosterior:
    def test_shape_update_hand_check(self):
        config = McmcConfig(window=FitWindow(0, 29), u=40.0, v=2.0 / 700.0,
                            n_samples=10, n_burn=0)
        u_k, v_k = variance_posterior(0.0, config.window, config)
        assert u_k == 96.0
        assert v_k == 2.0 / 700.0

    def test_residual_adds_half_to_scale(self):
        config = McmcConfig(window=FitWindow(0, 29), n_samples=10, n_burn=0)
        _, v_k = variance_posterior(3.5, config.window, config)
        assert v_k == pytest.approx(config.v + 1.75, rel=1e-15)

    def test_inverse_gamma_moments(self):
        u_k, v_k = 96.0, 0.5
        rng = np.random.default_rng(12345)
        draws = np.array([draw_inverse_gamma(u_k, v_k, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(v_k / (u_k - 1.0), rel=0.02)
        want_var = v_k ** 2 / ((u_k - 1.0) ** 2 * (u_k - 2.0))
        assert draws.var() == pytest.approx(want_var, rel=0.10)
        assert draws.min() > 0.0

    def test_sample_s_concentrates_on_clean_data(self, clean_dataset):
        # zero residuals: the conditional is the prior-shaped InvGamma with
        # u_k inflated by the window length, so draws sit near v/(u_k - 1)
        config = McmcConfig(window=FitWindow(0, 29), n_samples=10, n_burn=0)
        rng = np.random.default_rng(0)
        window = config.window
        residual = _residual_ss(TRUTH, clean_dataset, window,
                                _window_log_diffs(clean_dataset.observed, window))
        u_k, v_k = variance_posterior(residual, window, config)
        draws = [draw_inverse_gamma(u_k, v_k, rng) for _ in range(200)]
        center = config.v / (96.0 - 1.0)
        assert np.median(draws) == pytest.approx(center, rel=0.30)
        assert min(draws) > 0.0


class TestRunChainMechanics:
    def test_shapes_thinning_and_bounds(self, clean_dataset):
        config = small_config()
        chain = run_chain(clean_dataset, config, chain_id=0)
        expected_kept = len(range(config.n_burn, config.n_samples, config.thin))
        assert len(chain) == expected_kept
        assert chain.thetas.shape == (expected_kept, len(config.space.free_names))
        for j, name in enumerate(config.space.free_names):
            lo, hi = config.space.bounds[name]
            col = chain.thetas[:, j]
            assert col.min() >= lo and col.max() <= hi
        assert chain.s.min() > 0.0
        assert np.isfinite(chain.log_post).all()
        assert 0.0 <= chain.accept_rate <= 1.0

    def test_seed_reproducible_and_chains_differ(self, clean_dataset):
        config = small_config()
        a = run_chain(clean_dataset, config, chain_id=0)
        b = run_chain(clean_dataset, config, chain_id=0)
        c = run_chain(clean_dataset, config, chain_id=1)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.s, b.s)
        assert not np.array_equal(a.thetas, c.thetas)

    def test_iter_draws_merges_pinned(self, clean_dataset):
        config = small_config(space=REPARAM_SPACE)
        chain = run_chain(clean_dataset, config)
        params, s, log_post = next(iter(chain.iter_draws()))
        assert isinstance(params, ModelParams)
        assert params.t_inc == defaults.REPARAM_PINS["t_inc"]
        assert s > 0.0 and math.isfinite(log_post)

    def test_pinned_param_accessor_is_constant(self, clean_dataset):
        config = small_config(space=REPARAM_SPACE)
        chain = run_chain(clean_dataset, config)
        np.testing.assert_array_equal(chain.param("t_inf"),
                                      np.full(len(chain), 6.6))

    def test_run_chains_count_and_pooling(self, clean_dataset):
        config = small_config()
        chains = run_chains(clean_dataset, config)
        assert [c.chain_id for c in chains] == [0, 1]
        pooled = pooled_param(chains, "beta")
        assert pooled.shape == (sum(len(c) for c in chains),)

    def test_write_csv(self, clean_dataset, tmp_path):
        config = small_config()
        chain = run_chain(clean_dataset, config)
        path = tmp_path / "chain.csv"
        chain.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["beta", "t_inc"]
        assert lines[0].split(",")[-2:] == ["s", "log_post"]
        assert len(lines) == len(chain) + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(window=FitWindow(0, 7), n_samples=10, n_burn=10)
        with pytest.raises(ValueError):
            McmcConfig(window=FitWindow(0, 7), u=0.0, n_samples=10, n_burn=0)
        with pytest.raises(ValueError):
            McmcConfig(window=FitWindow(0, 7), n_samples=10, n_burn=0,
                       space=SearchSpace({"x": (0.0, 1.0)}),
                       proposal_variances={"x": 0.0})
        with pytest.raises(ValueError):
            McmcConfig(window=FitWindow(0, 7), n_samples=10, n_burn=0,
                       space=SearchSpace({"x": (0.0, 1.0)}, pinned={"x": 2.0}),
                       proposal_variances={})
        with pytest.raises(ValueError):
            McmcConfig(window=FitWindow(0, 7), n_samples=10, n_burn=0,
                       space=SearchSpace({"x": (2.5, 2.5)}),
                       proposal_variances={"x": 1.0})


def batch_means_mcse(draws, n_batches=50):
    n = len(draws) // n_batches * n_batches
    batches = np.asarray(draws[:n]).reshape(n_batches, -1).mean(axis=1)
    return batches.std(ddof=1) / math.sqrt(n_batches)


class TestCalibration:
    def gaussian_shim_config(self, **overrides):
        base = dict(window=FitWindow(0, 7),
                    space=SearchSpace({"beta": (0.0, 1.0)}),
                    proposal_variances={"beta": 0.1},
                    n_samples=30_000, n_burn=5_000, thin=5, seed=42)
        base.update(overrides)
        return McmcConfig(**base)

    def test_gaussian_target_recovered_within_three_mcse(self, clean_dataset):
        mu0, sd0 = 0.25, 0.05
        config = self.gaussian_shim_config()

        def shim(theta, s):
            return -0.5 * ((theta["beta"] - mu0) / sd0) ** 2

        chain = run_chain(clean_dataset, config, log_lik_fn=shim)
        draws = chain.param("beta")
        mcse = batch_means_mcse(draws)
        assert abs(draws.mean() - mu0) < 3.0 * mcse
        assert draws.std() == pytest.approx(sd0, rel=0.15)

    def test_hastings_correction_regression(self, clean_dataset):
        # target exp(-x) on [0, 10] with a heavily truncated sd-2 proposal;
        # without the correction the stationary law picks up the truncation
        # mass Z(x) as a spurious factor, shifting the mean upward
        lo, hi, sd = 0.0, 10.0, 2.0

        def shim(theta, s):
            return -theta["x"]

        def mass(x):
            return norm.cdf((hi - x) / sd) - norm.cdf((lo - x) / sd)

        num, _ = quad(lambda x: x * np.exp(-x), lo, hi)
        den, _ = quad(lambda x: np.exp(-x), lo, hi)
        mean_true = num / den
        num_b, _ = quad(lambda x: x * np.exp(-x) * mass(x), lo, hi)
        den_b, _ = quad(lambda x: np.exp(-x) * mass(x), lo, hi)
        mean_biased = num_b / den_b

        def run(corrected, seed):
            config = McmcConfig(window=FitWindow(0, 7),
                                space=SearchSpace({"x": (lo, hi)}),
                                proposal_variances={"x": sd ** 2},
                                n_samples=40_000, n_burn=4_000, thin=4,
                                seed=seed, hastings_correction=corrected)
            chain = run_chain(clean_dataset, config, log_lik_fn=shim)
            draws = chain.param("x")
            return draws.mean(), batch_means_mcse(draws)

        mean_c, mcse_c = run(corrected=True, seed=101)
        mean_u, mcse_u = run(corrected=False, seed=202)

        # corrected chain is unbiased for the target
        assert abs(mean_c - mean_true) < 4.0 * mcse_c
        # uncorrected chain converges to the Z-weighted law, not the target
        assert abs(mean_u - mean_biased) < 4.0 * mcse_u
        assert abs(mean_u - mean_true) > 4.0 * mcse_u


class TestGelmanRubin:
    def fake_chain(self, draws, chain_id=0):
        draws = np.asarray(draws, dtype=float)
        return ChainSamples(param_names=("x",), pinned={},
                            thetas=draws[:, None], s=np.ones_like(draws),
                            log_post=np.zeros_like(draws),
                            accept_rate=0.5, chain_id=chain_id)

    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(9)
        chains = [self.fake_chain(rng.normal(size=2000), k) for k in range(4)]
        r_hat = gelman_rubin(chains)["x"]
        assert r_hat < 1.05

    def test_separated_chains_flagged(self):
        rng = np.random.default_rng(9)
        chains = [self.fake_chain(rng.normal(loc=10.0 * k, size=500), k)
                  for k in range(3)]
        assert gelman_rubin(chains)["x"] > 1.5

    def test_constant_identical_chains_give_one(self):
        chains = [self.fake_chain(np.full(100, 2.0), k) for k in range(3)]
        assert gelman_rubin(chains)["x"] == 1.0

    def test_single_chain_rejected(self):
        with pytest.raises(ValueError):
            gelman_rubin([self.fake_chain(np.arange(10.0))])


class TestModelPosteriorSmoke:
    def test_reduced_model_concentrates_near_truth(self, clean_dataset):
        # short-budget version of the full posterior run: with the three
        # delay parameters held at their known values, the transmission rate
        # posterior should sit close to the generating value on clean data
        config = McmcConfig(window=FitWindow(0, 28),
                            space=REPARAM_SPACE,
                            n_samples=4_000, n_burn=1_000, thin=5,
                            n_chains=2, seed=17)
        chains = run_chains(clean_dataset, config)
        beta = pooled_param(chains, "beta")
        assert abs(np.median(beta) - TRUTH.beta) < 0.05
        # clean data makes the variance posterior collapse, so acceptance is
        # legitimately far below the usual random-walk sweet spot and the
        # kept draws land on a handful of distinct values
        for chain in chains:
            assert chain.accept_rate > 0.0
        assert np.unique(beta).size > 1
        assert np.all(np.abs(beta - TRUTH.beta) < 0.05)
