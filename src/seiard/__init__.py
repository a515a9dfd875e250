"""SEIARD compartmental model simulation, fitting, and identifiability analysis.

The package namespace holds the library API the README documents; every
other name is imported from its module (seiard.dynamics, seiard.mcmc, ...).
"""

from .loss import FitWindow, fit_objective
from .optimize import SearchSpace, minimize
from .profile import chi2_threshold, pl_interval, profile_likelihood
from .synthdata import NoiseSpec, default_config, generate

__all__ = [
    "FitWindow",
    "NoiseSpec",
    "SearchSpace",
    "chi2_threshold",
    "default_config",
    "fit_objective",
    "generate",
    "minimize",
    "pl_interval",
    "profile_likelihood",
]
