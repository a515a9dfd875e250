"""Local numeric structural-identifiability screen.

Builds the relative-sensitivity Jacobian of the observed series with respect
to the free parameters by central finite differences and inspects its
singular spectrum: full numeric column rank is local evidence of structural
identifiability, a near-null singular direction names the parameter
combination that moves the observations least.

This substitutes a local numeric test for the symbolic observability-rank
machinery; verdicts are therefore labeled as local numeric evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    OBSERVED_SERIES,
    PARAM_NAMES,
    DivergenceError,
    ModelParams,
    ParameterDomainError,
    simulate_observed,
)
from .synthdata import DatasetConfig, default_config

OBSERVED_FOR_RANK = ("active", "recovered", "deceased")
DEFAULT_REL_STEP = 1e-4
NEAR_NULL_RATIO = 1e-6
CONDITION_LIMIT = 1e6
EVIDENCE_LABEL = "local numeric evidence"

VERDICT_IDENTIFIABLE = "identifiable"
VERDICT_NON_IDENTIFIABLE = "non-identifiable"


@dataclass(frozen=True)
class SensitivityReport:
    """Relative-sensitivity matrix and its SVD summary.

    matrix rows run over (series, time) pairs, columns over free quantities;
    near_null_directions holds right singular vectors whose singular value
    is within NEAR_NULL_RATIO of the largest, one row per direction.
    """

    free_names: tuple[str, ...]
    times: np.ndarray
    matrix: np.ndarray
    singular_values: np.ndarray
    numeric_rank: int
    tolerance: float
    near_null_directions: np.ndarray

    @property
    def condition_number(self) -> float:
        smallest = self.singular_values[-1]
        if smallest == 0.0:
            return float("inf")
        return float(self.singular_values[0] / smallest)

    def loadings(self, direction: int = 0) -> dict[str, float]:
        """Absolute loadings of one near-null direction, largest first."""
        vec = np.abs(self.near_null_directions[direction])
        order = np.argsort(vec)[::-1]
        return {self.free_names[j]: float(vec[j]) for j in order}

    def to_dict(self) -> dict:
        return {
            "free_names": list(self.free_names),
            "times": [float(t) for t in self.times],
            "singular_values": [float(v) for v in self.singular_values],
            "numeric_rank": self.numeric_rank,
            "tolerance": self.tolerance,
            "condition_number": self.condition_number,
            "near_null_directions": [
                [float(v) for v in row] for row in self.near_null_directions],
            "evidence": EVIDENCE_LABEL,
        }


def svd_rank(matrix) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Singular values, numeric rank at tolerance sigma_max * max(shape) *
    eps * 1e3, the tolerance itself, and the right singular vectors."""
    matrix = np.asarray(matrix, dtype=float)
    _, singular_values, v_rows = np.linalg.svd(matrix, full_matrices=False)
    tolerance = float(singular_values[0] * max(matrix.shape)
                      * np.finfo(float).eps * 1e3)
    rank = int((singular_values > tolerance).sum())
    return singular_values, rank, tolerance, v_rows


def sensitivity_matrix(params: ModelParams, times, rel_step: float = DEFAULT_REL_STEP,
                       free_names=None,
                       scenario: DatasetConfig | None = None) -> SensitivityReport:
    """Relative-sensitivity Jacobian of the observations at one point.

    Each column is the central difference of the stacked observed series
    (active, recovered, deceased at the given integer days) with respect to
    one free quantity, scaled by that quantity's magnitude, so columns are
    comparable across units.  The initial state is rebuilt from the perturbed
    parameters, which is how the initial counts e0 and i0 (and the fatal
    split) enter the observations.

    Args:
        params: evaluation point, strictly interior to the search box.
        times: non-empty 1-D integer observation days (> 0).
        rel_step: relative perturbation size.
        free_names: quantities to differentiate; defaults to all 8.
        scenario: population, observed initial counts, fatal split and step
            to solve in; defaults to synthdata.default_config().

    Returns:
        SensitivityReport with SVD rank at tolerance
        sigma_max * max(shape) * eps * 1e3.

    Raises:
        DivergenceError: a perturbed vector leaves the parameter domain or
            its solve diverges; the message names the quantity.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(times < 0) or np.any(times != np.round(times)):
        raise ValueError("times must be non-negative integer days")
    if rel_step <= 0:
        raise ValueError(f"rel_step must be > 0, got {rel_step}")
    names = tuple(free_names) if free_names is not None else PARAM_NAMES
    base = params.as_dict()
    for name in names:
        if name not in base:
            raise ValueError(f"unknown quantity {name!r}")
        if base[name] == 0.0:
            raise ValueError(f"{name} is 0; a relative step cannot perturb it")

    # vectors 2j and 2j + 1 move names[j] up and down by delta
    shifted = []
    for name in names:
        delta = rel_step * base[name]
        for sign in (+1.0, -1.0):
            try:
                shifted.append(params.replace(**{name: base[name] + sign * delta}))
            except ParameterDomainError as err:
                raise DivergenceError(
                    f"perturbing {name} by {sign * delta:+g} failed: {err}") from err
    scenario = default_config() if scenario is None else scenario
    rows = [OBSERVED_SERIES.index(name) for name in OBSERVED_FOR_RANK]
    days = times.astype(int)
    stacks = []
    for k, shifted_params in enumerate(shifted):
        try:
            observed = simulate_observed(shifted_params, scenario, int(days.max()))
        except DivergenceError as err:
            raise DivergenceError(
                f"perturbing {names[k // 2]} diverged the solve") from err
        stacks.append(observed.values[rows][:, days].ravel())
    stacks = np.array(stacks)
    # delta = rel_step * theta, so each quotient is theta * dy/dtheta
    matrix = ((stacks[0::2] - stacks[1::2]) / (2.0 * rel_step)).T

    singular_values, numeric_rank, tolerance, v_rows = svd_rank(matrix)
    near_null = singular_values <= singular_values[0] * NEAR_NULL_RATIO
    return SensitivityReport(
        free_names=names,
        times=times,
        matrix=matrix,
        singular_values=singular_values,
        numeric_rank=numeric_rank,
        tolerance=tolerance,
        near_null_directions=v_rows[near_null],
    )


def structural_verdict(report: SensitivityReport,
                       condition_limit: float = CONDITION_LIMIT) -> dict:
    """Classify the screen outcome; local numeric evidence only.

    Full numeric rank with a condition number at or below the limit reads as
    identifiable; otherwise the smallest singular direction's loadings name
    the entangled quantities.
    """
    full = report.numeric_rank == len(report.free_names)
    ill_conditioned = report.condition_number > condition_limit
    if full and not ill_conditioned:
        return {"verdict": VERDICT_IDENTIFIABLE, "evidence": EVIDENCE_LABEL,
                "entangled": []}
    if len(report.near_null_directions):
        loadings = report.loadings(len(report.near_null_directions) - 1)
    else:
        # ill-conditioned but no direction under the near-null cutoff: use
        # the weakest singular direction
        _, _, v_rows = np.linalg.svd(report.matrix, full_matrices=False)
        vec = np.abs(v_rows[-1])
        order = np.argsort(vec)[::-1]
        loadings = {report.free_names[j]: float(vec[j]) for j in order}
    names = list(loadings)
    cumulative = np.cumsum(list(loadings.values()) / np.sum(list(loadings.values())))
    keep = int(np.searchsorted(cumulative, 0.8)) + 1
    return {"verdict": VERDICT_NON_IDENTIFIABLE, "evidence": EVIDENCE_LABEL,
            "entangled": names[:keep], "loadings": loadings}
