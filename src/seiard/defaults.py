"""Default experiment constants: ground-truth parameters, search intervals,
MCMC proposal variances, and the synthetic-scenario settings shared by the
CLI, the demos, and the test suite."""

from __future__ import annotations

from .dynamics import ModelParams

# Ground truth used to generate synthetic outbreaks.
TRUE_PARAMS = ModelParams(
    beta=0.25,
    t_inc=5.10,
    t_inf=6.60,
    t_recov=14.00,
    t_fatal=10.00,
    p_fatal=0.03,
    e0=1.00,
    i0=1.00,
)

# Box constraints for fitting and for the truncated MCMC proposals.
SEARCH_BOUNDS: dict[str, tuple[float, float]] = {
    "beta": (0.0, 1.0),
    "t_inc": (1.0, 100.0),
    "t_inf": (1.0, 100.0),
    "t_recov": (1.0, 100.0),
    "t_fatal": (1.0, 100.0),
    "p_fatal": (0.0, 1.0),
    "e0": (0.0, 5.0),
    "i0": (0.0, 5.0),
}

# Per-parameter variances of the truncated Gaussian random-walk proposal.
PROPOSAL_VARIANCES: dict[str, float] = {
    "beta": 0.10,
    "t_inc": 4.00,
    "t_inf": 4.00,
    "t_recov": 4.00,
    "t_fatal": 4.00,
    "p_fatal": 0.01,
    "e0": 0.50,
    "i0": 0.50,
}

# Scenario: a large city, a handful of seed cases, observed for 400 days.
POPULATION_N = 1.0e7
HORIZON_DAYS = 400
INIT_OBSERVED = (5.0, 0.0, 0.0)  # (active0, recovered0, deceased0)

# Reduced model: the three durations hardest to learn from case counts are
# pinned to their true values, leaving five free quantities.
REPARAM_PINS: dict[str, float] = {
    "t_inc": TRUE_PARAMS.t_inc,
    "t_inf": TRUE_PARAMS.t_inf,
    "t_fatal": TRUE_PARAMS.t_fatal,
}

# Inverse-gamma prior on the observation variance in the MCMC likelihood.
VARIANCE_PRIOR_SHAPE = 40.0
VARIANCE_PRIOR_SCALE = 2.0 / 700.0

# Default training window (days, inclusive) and fitting budget.
DEFAULT_WINDOW = (0, 28)
FIT_BUDGET_REPARAM = 500   # 5 free parameters

