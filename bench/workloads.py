"""The benchmark's workloads: each is one round of seiard CLI invocations.

A round is a list of (label, argv) steps; the runner appends --out.  Every
step runs single-threaded and takes its randomness from one master seed, so a
round is fully determined by (workload seed, round index).  The configs are
cut down from the defaults so that a round takes a few seconds and a run of
the benchmark repeats several whole rounds.
"""

from __future__ import annotations


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of one round; rounds of one run see different data."""
    return 1000 * seed + round_index


def _set(*assignments: str) -> list[str]:
    return [arg for assignment in assignments for arg in ("--set", assignment)]


def _common(master_seed: int) -> list[str]:
    return ["--threads", "1",
            *_set(f"master_seed={master_seed}", "dataset.sigma_noise=0.05")]


def fit_28d(master_seed: int) -> list[tuple[str, list[str]]]:
    """Optimizer-bound: every objective call integrates only 28 days."""
    c = _common(master_seed)
    profile = _set("profile.grid_points=9", "profile.inner_budget=80")
    seeds = ",".join(str(10 * master_seed + k) for k in (1, 2, 3))
    return [
        ("simulate", ["simulate", *c]),
        ("fit-reparam", ["fit", *c]),
        ("fit-original", ["fit", *c, *_set("variant=original")]),
        ("fit-tpe", ["fit", *c, *_set("fit.method=tpe", "fit.budget=200")]),
        ("profile-reparam", ["profile", *c, *profile,
                             *_set('profile.params=["beta","p_fatal"]')]),
        ("profile-original", ["profile", *c, *profile,
                              *_set("variant=original")]),
        ("forecast-eval", ["forecast-eval", *c, *_set(
            f"forecast.seeds=[{seeds}]", "forecast.budget=150",
            "forecast.horizons=[42,100,200,400]")]),
    ]


def posterior_28d(master_seed: int) -> list[tuple[str, list[str]]]:
    """Sampler-bound: one model solve per MH iteration, then the fit loss
    over a batch of posterior draws for the posterior threshold."""
    c = _common(master_seed)
    chains = _set("mcmc.n_samples=600", "mcmc.n_burn=100", "mcmc.thin=2",
                  "mcmc.n_chains=2")
    return [
        # the dataset the checks score the chains against
        ("simulate", ["simulate", *c]),
        ("mcmc", ["mcmc", *c, *chains]),
        ("profile-posterior", ["profile", *c, *chains, *_set(
            'profile.params=["beta","p_fatal"]', "profile.grid_points=7",
            "profile.inner_budget=80", "profile.threshold=posterior")]),
    ]


def long_window(master_seed: int) -> list[tuple[str, list[str]]]:
    """Integration-bound: long windows, where the early-outbreak linear
    approximation fails and the rank screen runs."""
    c = _common(master_seed)
    fit = _set("window=[0,112]", "fit.budget=250")
    report = _set("window=[0,200]")
    return [
        ("simulate", ["simulate", *c]),
        ("fit-reparam", ["fit", *c, *fit]),
        ("fit-original", ["fit", *c, *fit, *_set("variant=original")]),
        ("profile-windows", ["profile", *c, *_set(
            "profile.windows=[56,112,224]", "profile.grid_points=5",
            "profile.inner_budget=40")]),
        ("report-reparam", ["report", *c, *report]),
        ("report-original", ["report", *c, *report, *_set("variant=original")]),
    ]


WORKLOADS = {
    "fit-28d": fit_28d,
    "posterior-28d": posterior_28d,
    "long-window": long_window,
}
