"""Posterior-sample summaries: highest-posterior-density intervals, marginal
kernel densities and their negative logs, Pearson correlation matrices, and
the loss-quantile threshold used by level-set intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json

MIN_SAMPLES = 100
DENSITY_GRID_POINTS = 256
# density values are floored relative to the peak before taking -log so the
# far tails stay finite without inventing structure below estimator noise
DENSITY_FLOOR_RATIO = 1e-12


@dataclass(frozen=True)
class Hpdi:
    """Shortest interval containing ceil(alpha * n) of the sorted samples."""

    alpha: float
    lo: float
    hi: float
    mass_check: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "lo": self.lo, "hi": self.hi,
                "mass_check": self.mass_check}


def hpdi(samples, alpha: float) -> Hpdi:
    """Highest-posterior-density interval from 1-D draws.

    Slides a window of m = ceil(alpha * n) consecutive sorted samples and
    keeps the narrowest one; ties break to the leftmost window.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < MIN_SAMPLES:
        raise ValueError(f"hpdi needs at least {MIN_SAMPLES} samples, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    ordered = np.sort(samples)
    m = math.ceil(alpha * n)
    widths = ordered[m - 1:] - ordered[: n - m + 1]
    start = int(np.argmin(widths))  # argmin returns the first minimum
    return Hpdi(alpha=alpha, lo=float(ordered[start]),
                hi=float(ordered[start + m - 1]), mass_check=m / n)


def loss_quantile(loss_values, alpha: float) -> float:
    """Empirical alpha-quantile (linear interpolation) of loss values
    evaluated at posterior draws."""
    values = np.asarray(loss_values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("loss_quantile needs at least one value")
    return float(np.quantile(values, alpha, method="linear"))


@dataclass(frozen=True)
class CorrelationReport:
    names: tuple[str, ...]
    matrix: np.ndarray
    degenerate: tuple[bool, ...]

    def write_csv(self, path) -> None:
        write_csv(path, ["name", *self.names],
                  ([name, *row] for name, row in zip(self.names, self.matrix)))


def correlation_matrix(draws, names=None) -> CorrelationReport:
    """Pearson correlations of an (n, d) sample matrix.

    Zero-variance columns cannot carry a correlation; their off-diagonal
    entries are reported as 0 and the column is flagged degenerate.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError(f"draws must be 2-D (n, d), got shape {draws.shape}")
    n, d = draws.shape
    if n < MIN_SAMPLES:
        raise ValueError(f"correlation_matrix needs at least {MIN_SAMPLES} rows, got {n}")
    names = tuple(names) if names is not None else tuple(f"p{k}" for k in range(d))
    if len(names) != d:
        raise ValueError(f"{d} columns but {len(names)} names")
    std = draws.std(axis=0)
    degenerate = std == 0.0
    matrix = np.eye(d)
    live = ~degenerate
    if live.sum() >= 2:
        sub = np.corrcoef(draws[:, live], rowvar=False)
        matrix[np.ix_(live, live)] = sub
    return CorrelationReport(names=names, matrix=matrix,
                             degenerate=tuple(bool(v) for v in degenerate))


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    values: np.ndarray
    bandwidth: float


def silverman_bandwidth(samples) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), the classic rule of thumb."""
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    std = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = q75 - q25
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale == 0.0:
        # degenerate sample; any positive bandwidth gives a point mass
        return max(abs(samples[0]) * 1e-8, 1e-12)
    return float(0.9 * scale * n ** (-0.2))


def marginal_density(samples, bandwidth: float | None = None,
                     grid=None) -> DensityCurve:
    """Gaussian-kernel density estimate.

    Evaluated on a uniform 256-point grid spanning the samples plus 3
    bandwidths on each side, or on a caller-supplied grid (used when a
    density must be compared to another curve point by point)."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < MIN_SAMPLES:
        raise ValueError(
            f"marginal_density needs at least {MIN_SAMPLES} samples, got {samples.size}")
    h = silverman_bandwidth(samples) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError(f"bandwidth must be > 0, got {h}")
    if grid is None:
        grid = np.linspace(samples.min() - 3.0 * h, samples.max() + 3.0 * h,
                           DENSITY_GRID_POINTS)
    else:
        grid = np.asarray(grid, dtype=float)
    z = (grid[:, None] - samples[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * h * math.sqrt(2.0 * math.pi))
    return DensityCurve(grid=grid, values=density, bandwidth=h)


def neg_log_density(curve: DensityCurve) -> DensityCurve:
    """Pointwise -log of a density curve with a relative floor guard."""
    floor = curve.values.max() * DENSITY_FLOOR_RATIO
    return DensityCurve(grid=curve.grid.copy(),
                        values=-np.log(np.maximum(curve.values, floor)),
                        bandwidth=curve.bandwidth)


def jaccard_interval_overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Jaccard index |a ∩ b| / |a ∪ b| of two closed intervals."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    if a_lo > a_hi or b_lo > b_hi:
        raise ValueError(f"malformed intervals {a}, {b}")
    inter = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
    union = (a_hi - a_lo) + (b_hi - b_lo) - inter
    if union == 0.0:
        # two identical zero-width intervals overlap perfectly
        return 1.0 if a_lo == b_lo else 0.0
    return inter / union


def write_hpdi_json(path, intervals: dict[str, Hpdi]) -> None:
    write_json(path, {name: interval.to_dict()
                      for name, interval in intervals.items()})
