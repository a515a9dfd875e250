"""End-to-end release gates for the identifiability pipeline.

Fifteen numbered checks, one test each, covering conservation, integrator
order, recovery, interval nesting, posterior diagnostics, structural rank,
forecast dominance and byte-stable reruns. The expensive posterior runs are
module fixtures shared across gates. Every gate prints one PASS/FAIL line
with the measured quantities so a captured log reads as a scorecard.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, norm, spearmanr

from seiard import defaults
from seiard.cli import EXIT_OK, main
from seiard.dynamics import ModelParams, build_initial_state, integrate, observe
from seiard.loss import FitWindow, fit_loss, fit_objective, mape
from seiard.mcmc import (
    McmcConfig,
    concentrated_neg_log_likelihood,
    gelman_rubin,
    pooled_param,
    run_chain,
    run_chains,
    variance_posterior,
    draw_inverse_gamma,
)
from seiard.optimize import SearchSpace, minimize
from seiard.posterior import hpdi, jaccard_interval_overlap, marginal_density, neg_log_density
from seiard.profile import (
    pl_interval,
    posterior_loss_threshold,
    profile_likelihood,
)
from seiard.structural import sensitivity_matrix
from seiard.synthdata import NoiseSpec, default_config, generate

TRUTH = defaults.TRUE_PARAMS
N = defaults.POPULATION_N
W28 = FitWindow(0, 28)
PL_BUDGET = 300
PL_SEED = 11


def check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def space_for(pins) -> SearchSpace:
    return SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=dict(pins))


def interval_hull(interval):
    return interval.segments[0][0], interval.segments[-1][1]


def batch_means_mcse(draws, n_batches=50):
    n = len(draws) // n_batches * n_batches
    batches = np.asarray(draws[:n]).reshape(n_batches, -1).mean(axis=1)
    return batches.std(ddof=1) / math.sqrt(n_batches)


# -- shared expensive fixtures ------------------------------------------------

@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate(default_config(seed=0))


@pytest.fixture(scope="module")
def canonical_dataset():
    # the one noisy scenario every posterior-based gate runs on
    return generate(default_config(noise=NoiseSpec(0.05), seed=4))


def _timed_chains(dataset, pins, window):
    t0 = time.perf_counter()
    chains = run_chains(dataset, McmcConfig(window=window, space=space_for(pins),
                                            seed=0))
    return chains, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reparam_mcmc_28(canonical_dataset):
    return _timed_chains(canonical_dataset, defaults.REPARAM_PINS, W28)


@pytest.fixture(scope="module")
def original_mcmc_28(canonical_dataset):
    return _timed_chains(canonical_dataset, {}, W28)


@pytest.fixture(scope="module")
def reparam_loss_threshold_28(canonical_dataset, reparam_mcmc_28):
    chains, _ = reparam_mcmc_28
    threshold, _ = posterior_loss_threshold(canonical_dataset, chains, W28,
                                            alpha=0.95, seed=0)
    return threshold


def mape_profile_interval(dataset, param, pins, window, threshold):
    curve = profile_likelihood(dataset, param, space=space_for(pins),
                               window=window, inner_budget=PL_BUDGET,
                               seed=PL_SEED)
    return pl_interval(curve, max(threshold, curve.min_loss))


@pytest.fixture(scope="module")
def reparam_beta_jpl_28(canonical_dataset, reparam_loss_threshold_28):
    return mape_profile_interval(canonical_dataset, "beta",
                                 defaults.REPARAM_PINS, W28,
                                 reparam_loss_threshold_28)


# -- gates --------------------------------------------------------------------

def test_criterion_01_mass_conservation():
    init = build_initial_state(TRUTH, N, defaults.INIT_OBSERVED)
    t0 = time.perf_counter()
    traj = integrate(TRUTH, init, defaults.HORIZON_DAYS, dt=0.1)
    seconds = time.perf_counter() - t0
    drift = float(np.abs(traj.states.sum(axis=1) - N).max())
    check(1, drift <= 10.0 and seconds < 1.0,
          f"max population drift {drift:.3e} persons, {seconds:.2f}s")


def test_criterion_02_integrator_order():
    init = build_initial_state(TRUTH, N, defaults.INIT_OBSERVED)
    ref = integrate(TRUTH, init, defaults.HORIZON_DAYS, dt=0.0125).states
    err = {dt: float(np.abs(integrate(TRUTH, init, defaults.HORIZON_DAYS,
                                      dt=dt).states - ref).max())
           for dt in (0.1, 0.05)}
    factor = err[0.1] / err[0.05]
    check(2, 12.0 <= factor <= 20.0,
          f"halving dt cuts max state error by {factor:.1f}x "
          f"({err[0.1]:.3e} -> {err[0.05]:.3e})")


def test_criterion_03_loss_at_truth(noiseless_dataset):
    values = {days: fit_loss(noiseless_dataset, TRUTH, FitWindow(0, days))
              for days in (28, defaults.HORIZON_DAYS)}
    worst = max(values.values())
    check(3, worst <= 1e-9,
          "fit loss at truth on clean data: " +
          ", ".join(f"{d}d {v:.2e}" for d, v in values.items()))


def test_criterion_04_noiseless_recovery(noiseless_dataset):
    space = space_for(defaults.REPARAM_PINS)
    objective = fit_objective(noiseless_dataset, W28)
    t0 = time.perf_counter()
    fits = [minimize(objective, space, budget=500, seed=seed)
            for seed in (1, 2, 3, 4, 5)]
    seconds = time.perf_counter() - t0
    beta = float(np.median([f.best_params["beta"] for f in fits]))
    p_fatal = float(np.median([f.best_params["p_fatal"] for f in fits]))
    beta_err = abs(beta - TRUTH.beta) / TRUTH.beta
    p_fatal_err = abs(p_fatal - TRUTH.p_fatal) / TRUTH.p_fatal
    check(4, beta_err <= 0.05 and p_fatal_err <= 0.10 and seconds < 120.0,
          f"median over 5 seeds: beta err {beta_err:.2%} (<=5%), "
          f"p_fatal err {p_fatal_err:.2%} (<=10%), {seconds:.0f}s")


def test_criterion_05_interval_nesting_across_variants(
        canonical_dataset, original_mcmc_28, reparam_loss_threshold_28,
        reparam_beta_jpl_28):
    orig_chains, _ = original_mcmc_28
    orig_threshold, _ = posterior_loss_threshold(canonical_dataset, orig_chains,
                                                 W28, alpha=0.95, seed=0)
    rep_beta = reparam_beta_jpl_28
    orig_beta = mape_profile_interval(canonical_dataset, "beta", {}, W28,
                                      orig_threshold)
    rep_pf = mape_profile_interval(canonical_dataset, "p_fatal",
                                   defaults.REPARAM_PINS, W28,
                                   reparam_loss_threshold_28)
    orig_pf = mape_profile_interval(canonical_dataset, "p_fatal", {}, W28,
                                    orig_threshold)

    rb_lo, rb_hi = interval_hull(rep_beta)
    ob_lo, ob_hi = interval_hull(orig_beta)
    nested = (ob_lo <= rb_lo and rb_hi <= ob_hi
              and (rb_lo, rb_hi) != (ob_lo, ob_hi))
    pf_censored = orig_pf.censored_left or orig_pf.censored_right
    pf_wide = orig_pf.width >= 3.0 * rep_pf.width
    check(5, nested and (pf_censored or pf_wide),
          f"beta level sets: reduced [{rb_lo:.3f}, {rb_hi:.3f}] inside "
          f"full [{ob_lo:.3f}, {ob_hi:.3f}]; p_fatal full-variant "
          f"censored={pf_censored}, width ratio "
          f"{orig_pf.width / rep_pf.width:.2f}")


def test_criterion_06_posterior_interval_nesting(reparam_mcmc_28,
                                                 original_mcmc_28):
    rep_chains, rep_seconds = reparam_mcmc_28
    orig_chains, orig_seconds = original_mcmc_28
    t0 = time.perf_counter()
    rhat = gelman_rubin(rep_chains)
    rep = hpdi(pooled_param(rep_chains, "beta"), 0.95)
    orig = hpdi(pooled_param(orig_chains, "beta"), 0.95)
    seconds = rep_seconds + orig_seconds + time.perf_counter() - t0
    worst_rhat = max(rhat.values())
    ok = (worst_rhat < 1.1 and rep.lo <= TRUTH.beta <= rep.hi
          and rep.width < orig.width and seconds < 900.0)
    check(6, ok,
          f"reduced beta HPDI [{rep.lo:.4f}, {rep.hi:.4f}] contains "
          f"{TRUTH.beta}, width {rep.width:.3f} < full {orig.width:.3f}, "
          f"max R-hat {worst_rhat:.3f}, {seconds:.0f}s")


def test_criterion_07_variance_posterior_exactness():
    config = McmcConfig(window=FitWindow(0, 29), u=40.0, v=2.0 / 700.0,
                        n_samples=10, n_burn=0)
    u_k, v_k = variance_posterior(0.0, config.window, config)
    _, v_k_res = variance_posterior(3.0, config.window, config)
    rng = np.random.default_rng(12345)
    draws = np.array([draw_inverse_gamma(u_k, 0.5, rng) for _ in range(100_000)])
    mean_err = abs(draws.mean() - 0.5 / (u_k - 1.0)) / (0.5 / (u_k - 1.0))
    ok = (u_k == 96.0 and v_k == 2.0 / 700.0
          and v_k_res == pytest.approx(2.0 / 700.0 + 1.5, rel=1e-15)
          and mean_err < 0.02)
    check(7, ok,
          f"29-day window: shape {u_k} (hand value 96), residual adds R/2 to "
          f"scale, sampler mean err {mean_err:.3%} over 1e5 draws")


def brute_force_hpdi(samples, alpha):
    ordered = np.sort(np.asarray(samples, dtype=float))
    m = math.ceil(alpha * ordered.size)
    widths = ordered[m - 1:] - ordered[: ordered.size - m + 1]
    start = int(np.argmin(widths))
    return ordered[start], ordered[start + m - 1]


def test_criterion_08_hpdi_matches_exhaustive_search():
    failures = []
    cases = [(seed, n, alpha)
             for seed in (0, 1, 2) for n in (100, 557, 2000)
             for alpha in (0.5, 0.9, 0.95)]
    for seed, n, alpha in cases:
        rng = np.random.default_rng(seed)
        samples = np.concatenate([rng.standard_normal(n // 2),
                                  rng.uniform(-4.0, 4.0, n - n // 2)])
        got = hpdi(samples, alpha)
        lo, hi = brute_force_hpdi(samples, alpha)
        if got.lo != lo or got.hi != hi:
            failures.append((seed, n, alpha))
    check(8, not failures,
          f"{len(cases)} draw sets up to n=2000 match the exhaustive "
          f"shortest-window search exactly" +
          (f"; mismatches {failures}" if failures else ""))


def test_criterion_09_sampler_calibration_shims(noiseless_dataset):
    # analytic Gaussian injected in place of the likelihood
    mu0, sd0 = 0.25, 0.05

    def gaussian(theta, s):
        return -0.5 * ((theta["beta"] - mu0) / sd0) ** 2

    config = McmcConfig(window=FitWindow(0, 7),
                        space=SearchSpace({"beta": (0.0, 1.0)}),
                        proposal_variances={"beta": 0.1},
                        n_samples=30_000, n_burn=5_000, thin=5, seed=42)
    draws = run_chain(noiseless_dataset, config, log_lik_fn=gaussian).param("beta")
    mcse_mean = batch_means_mcse(draws)
    centered_sq = (draws - draws.mean()) ** 2
    mcse_sd = batch_means_mcse(centered_sq) / (2.0 * draws.std())
    mean_ok = abs(draws.mean() - mu0) < 3.0 * mcse_mean
    sd_ok = abs(draws.std() - sd0) < 3.0 * mcse_sd

    # near-boundary exponential target: dropping the truncation correction
    # must converge to the Z-weighted law, a detectable bias
    lo, hi, sd = 0.0, 10.0, 2.0

    def target(theta, s):
        return -theta["x"]

    def trunc_mass(x):
        return norm.cdf((hi - x) / sd) - norm.cdf((lo - x) / sd)

    mean_true = (quad(lambda x: x * np.exp(-x), lo, hi)[0]
                 / quad(lambda x: np.exp(-x), lo, hi)[0])
    mean_biased = (quad(lambda x: x * np.exp(-x) * trunc_mass(x), lo, hi)[0]
                   / quad(lambda x: np.exp(-x) * trunc_mass(x), lo, hi)[0])

    def boundary_mean(corrected, seed):
        cfg = McmcConfig(window=FitWindow(0, 7),
                         space=SearchSpace({"x": (lo, hi)}),
                         proposal_variances={"x": sd ** 2},
                         n_samples=40_000, n_burn=4_000, thin=4, seed=seed,
                         hastings_correction=corrected)
        out = run_chain(noiseless_dataset, cfg, log_lik_fn=target).param("x")
        return out.mean(), batch_means_mcse(out)

    mean_c, mcse_c = boundary_mean(True, 101)
    mean_u, mcse_u = boundary_mean(False, 202)
    corrected_ok = abs(mean_c - mean_true) < 4.0 * mcse_c
    bias_detected = (abs(mean_u - mean_true) > 4.0 * mcse_u
                     and abs(mean_u - mean_biased) < 4.0 * mcse_u)
    check(9, mean_ok and sd_ok and corrected_ok and bias_detected,
          f"gaussian shim mean off {abs(draws.mean() - mu0) / mcse_mean:.1f} "
          f"mcse, sd off {abs(draws.std() - sd0) / mcse_sd:.1f} mcse; "
          f"uncorrected boundary chain biased {mean_u - mean_true:+.3f} "
          f"(predicted {mean_biased - mean_true:+.3f})")


def test_criterion_10_profile_tracks_posterior_density(canonical_dataset,
                                                       reparam_mcmc_28):
    chains, _ = reparam_mcmc_28
    beta = pooled_param(chains, "beta")
    # the density estimate is only meaningful where samples live, so the
    # shared grid spans exactly the pooled sample range
    grid = np.linspace(beta.min(), beta.max(), 25)
    curve = profile_likelihood(canonical_dataset, "beta", grid=grid,
                               space=space_for(defaults.REPARAM_PINS),
                               window=W28, inner_budget=PL_BUDGET, seed=PL_SEED)
    neg_log = neg_log_density(marginal_density(beta, grid=grid))
    rho = float(spearmanr(curve.profiled_loss, neg_log.values).statistic)
    check(10, rho >= 0.9,
          f"rank correlation {rho:.4f} between profiled loss and neg-log "
          f"marginal density on a {grid.size}-point shared grid")


def test_criterion_11_interval_width_vs_window(canonical_dataset,
                                               reparam_beta_jpl_28):
    widths = {28: reparam_beta_jpl_28.width}
    for days in (14, 56):
        window = FitWindow(0, days)
        chains, _ = _timed_chains(canonical_dataset, defaults.REPARAM_PINS,
                                  window)
        threshold, _ = posterior_loss_threshold(canonical_dataset, chains,
                                                window, alpha=0.95, seed=0)
        widths[days] = mape_profile_interval(
            canonical_dataset, "beta", defaults.REPARAM_PINS, window,
            threshold).width
    ok = widths[14] >= widths[28] >= widths[56]
    check(11, ok,
          "beta level-set width by training window: " +
          " >= ".join(f"{widths[d]:.3f} ({d}d)" for d in (14, 28, 56)))


def test_criterion_12_forecast_error_dominance():
    horizons = [53, 60, 70, 80, 90, 100, 120, 150, 200, 300, 400]
    scores = {"reparam": [], "original": []}
    for seed in (1, 2, 3, 4, 5):
        dataset = generate(default_config(noise=NoiseSpec(0.05), seed=seed))
        observed_total = dataset.observed.series("total")
        for name, pins in (("reparam", defaults.REPARAM_PINS),
                           ("original", {})):
            fit = minimize(fit_objective(dataset, W28), space_for(pins),
                           budget=500, seed=seed)
            params = ModelParams.from_dict(fit.best_params)
            config = dataset.config
            init = build_initial_state(params, config.population_n,
                                       config.init_observed,
                                       config.a0_fatal_fraction)
            total = observe(integrate(params, init, config.horizon,
                                      config.dt)).series("total")
            scores[name].append(
                {h: mape(observed_total[W28.t_begin:h + 1],
                         total[W28.t_begin:h + 1]) for h in horizons})
    medians = {name: {h: float(np.median([r[h] for r in rows]))
                      for h in horizons}
               for name, rows in scores.items()}
    bad = [h for h in horizons
           if medians["reparam"][h] > medians["original"][h]]
    check(12, not bad,
          f"median test error reduced <= full at every horizon >= 53d over "
          f"5 seeds (53d: {medians['reparam'][53]:.1f} vs "
          f"{medians['original'][53]:.1f}; 200d: {medians['reparam'][200]:.1f} "
          f"vs {medians['original'][200]:.1f})" +
          (f"; violated at {bad}" if bad else ""))


def test_criterion_13_structural_rank_screen():
    month = list(range(1, 29))
    long_run = list(range(1, 201))
    reduced = sensitivity_matrix(TRUTH, month,
                                 free_names=space_for(
                                     defaults.REPARAM_PINS).free_names)
    full = sensitivity_matrix(TRUTH, month)
    full_long = sensitivity_matrix(TRUTH, long_run)
    reduced_long = sensitivity_matrix(TRUTH, long_run,
                                      free_names=space_for(
                                          defaults.REPARAM_PINS).free_names)

    reduced_full_rank = (reduced.numeric_rank == 5
                         and reduced_long.numeric_rank == 5)
    full_degenerate = (full.numeric_rank < 8
                       or full.condition_number > 1e6)

    # the fatal timescale/fraction trade-off must dominate a near-null
    # direction once deaths have accumulated
    fatal_pair_found = False
    names = full_long.free_names
    for direction in full_long.near_null_directions:
        order = np.argsort(np.abs(direction))[::-1]
        top_two = {names[order[0]], names[order[1]]}
        mass = float(direction[order[0]] ** 2 + direction[order[1]] ** 2)
        if top_two == {"t_fatal", "p_fatal"} and mass >= 0.9:
            fatal_pair_found = True
    check(13, reduced_full_rank and full_degenerate and fatal_pair_found,
          f"reduced rank 5/5 (condition {reduced.condition_number:.1f}); "
          f"full condition {full.condition_number:.2e} (> 1e6); fatal "
          f"timescale/fraction pair dominates a near-null direction")


def test_criterion_14_posterior_profile_interval_overlap(canonical_dataset,
                                                         reparam_mcmc_28):
    chains, _ = reparam_mcmc_28
    box = hpdi(pooled_param(chains, "beta"), 0.95)
    curve = profile_likelihood(canonical_dataset, "beta",
                               space=space_for(defaults.REPARAM_PINS),
                               window=W28, inner_budget=PL_BUDGET, seed=PL_SEED,
                               loss_fn=concentrated_neg_log_likelihood)
    threshold = curve.min_loss + chi2.ppf(0.95, df=1) / 2.0
    interval = pl_interval(curve, threshold)
    hull = interval_hull(interval)
    overlap = jaccard_interval_overlap((box.lo, box.hi), hull)
    check(14, overlap >= 0.5,
          f"Jaccard {overlap:.3f} between beta HPDI [{box.lo:.4f}, "
          f"{box.hi:.4f}] and likelihood level set [{hull[0]:.4f}, "
          f"{hull[1]:.4f}]")


def test_criterion_15_manifest_reruns_byte_identical(tmp_path):
    noisy = ("--set", "dataset.sigma_noise=0.05")
    runs = {
        "simulate": noisy + ("--set", "dataset.seed=9"),
        "fit": noisy + ("--set", "fit.budget=80"),
        "profile": noisy + ("--set", "profile.grid_points=7",
                            "--set", "profile.inner_budget=40"),
        "mcmc": noisy + ("--set", "mcmc.n_samples=900",
                         "--set", "mcmc.n_burn=100", "--set", "mcmc.thin=4",
                         "--set", "mcmc.n_chains=2"),
        "report": ("--set", "report.times=[1,7,14,21,28]"),
        "forecast-eval": noisy + ("--set", "forecast.horizons=[28,53]",
                                  "--set", "forecast.seeds=[1]",
                                  "--set", "forecast.budget=60"),
    }
    changed = []
    for command, args in runs.items():
        out = tmp_path / command
        assert main([command, "--out", str(out), *args]) == EXIT_OK
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([command, "--config", str(out / "manifest.json")]) == EXIT_OK
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        if snapshot != after:
            changed.append(command)
    n_files = sum(1 for cmd in runs for _ in (tmp_path / cmd).iterdir())
    check(15, not changed,
          f"all 6 subcommands rerun from their manifests byte-identically "
          f"({n_files} artifacts)" +
          (f"; drifted: {changed}" if changed else ""))
