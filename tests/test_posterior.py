import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seiard.posterior import (
    CorrelationReport,
    correlation_matrix,
    hpdi,
    jaccard_interval_overlap,
    loss_quantile,
    marginal_density,
    neg_log_density,
    silverman_bandwidth,
)


def brute_force_hpdi(samples, alpha):
    """Oracle: enumerate every window of ceil(alpha*n) sorted samples."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    m = math.ceil(alpha * n)
    best = None
    for start in range(n - m + 1):
        width = ordered[start + m - 1] - ordered[start]
        if best is None or width < best[0]:
            best = (width, ordered[start], ordered[start + m - 1])
    return best[1], best[2]


class TestHpdi:
    def test_uniform_grid_leftmost_tie(self):
        samples = np.arange(1000, dtype=float)
        result = hpdi(samples, 0.95)
        # every window of 950 consecutive integers has the same width, so the
        # declared tie-break picks the leftmost
        assert result.lo == 0.0
        assert result.hi == 949.0
        assert result.mass_check == 0.95

    def test_standard_normal_quantiles(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(100_000)
        result = hpdi(samples, 0.95)
        assert result.lo == pytest.approx(-1.96, abs=0.05)
        assert result.hi == pytest.approx(1.96, abs=0.05)

    def test_all_equal_zero_width(self):
        result = hpdi(np.full(200, 3.5), 0.9)
        assert result.lo == result.hi == 3.5
        assert result.width == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            hpdi(np.arange(99), 0.9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            hpdi(np.arange(200), alpha)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(100, 2000),
        alpha=st.floats(0.5, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, seed, n, alpha):
        rng = np.random.default_rng(seed)
        # mix of clustered and spread draws exercises ties and skew
        samples = np.concatenate([
            rng.standard_normal(n // 2),
            rng.uniform(-4.0, 4.0, n - n // 2),
        ])
        result = hpdi(samples, alpha)
        lo, hi = brute_force_hpdi(samples, alpha)
        assert result.lo == lo
        assert result.hi == hi

    def test_width_non_decreasing_in_alpha(self):
        rng = np.random.default_rng(3)
        samples = rng.gamma(2.0, 1.0, 5000)
        widths = [hpdi(samples, a).width for a in (0.5, 0.7, 0.9, 0.95, 0.99)]
        assert all(w2 >= w1 for w1, w2 in zip(widths, widths[1:]))

    def test_contained_in_sample_range(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(500)
        result = hpdi(samples, 0.9)
        assert samples.min() <= result.lo <= result.hi <= samples.max()

    def test_mass_check_close_to_alpha(self):
        samples = np.random.default_rng(5).standard_normal(351)
        result = hpdi(samples, 0.9)
        assert abs(result.mass_check - 0.9) <= 1.0 / math.sqrt(351)


class TestLossQuantile:
    def test_linear_interpolation_convention(self):
        values = np.arange(1.0, 101.0)
        assert loss_quantile(values, 0.95) == pytest.approx(95.05)

    def test_constant_values(self):
        assert loss_quantile(np.full(50, 7.25), 0.95) == 7.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_quantile([], 0.9)


class TestCorrelationMatrix:
    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(0)
        n = 20_000
        draws = rng.standard_normal((n, 3))
        report = correlation_matrix(draws)
        off = report.matrix[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 3.0 / math.sqrt(n)
        assert report.degenerate == (False, False, False)

    def test_duplicated_column_perfect_correlation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        report = correlation_matrix(np.column_stack([x, x, rng.standard_normal(500)]))
        assert report.matrix[0, 1] == pytest.approx(1.0)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        report = correlation_matrix(rng.standard_normal((300, 4)))
        assert np.allclose(report.matrix, report.matrix.T)
        assert np.allclose(np.diag(report.matrix), 1.0)

    def test_zero_variance_column_flagged(self):
        rng = np.random.default_rng(3)
        draws = np.column_stack([rng.standard_normal(200), np.full(200, 2.0)])
        report = correlation_matrix(draws, names=("a", "b"))
        assert report.degenerate == (False, True)
        assert report.matrix[0, 1] == 0.0
        assert report.matrix[1, 1] == 1.0

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(4)
        report = correlation_matrix(rng.standard_normal((150, 2)), names=("x", "y"))
        path = tmp_path / "corr.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,x,y"
        assert len(lines) == 3

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.zeros((10, 2)))


class TestMarginalDensity:
    def test_bimodal_draws_two_peaks(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate([
            rng.normal(-3.0, 0.3, 5000), rng.normal(3.0, 0.3, 5000)])
        curve = marginal_density(samples)
        values = curve.values
        interior_peaks = [
            k for k in range(1, len(values) - 1)
            if values[k] > values[k - 1] and values[k] > values[k + 1]
            and values[k] > 0.1 * values.max()
        ]
        assert len(interior_peaks) == 2

    def test_grid_shape_and_span(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(1000)
        curve = marginal_density(samples)
        assert len(curve.grid) == 256
        assert curve.grid[0] == pytest.approx(samples.min() - 3 * curve.bandwidth)
        assert curve.grid[-1] == pytest.approx(samples.max() + 3 * curve.bandwidth)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(2)
        curve = marginal_density(rng.standard_normal(5000))
        assert np.trapezoid(curve.values, curve.grid) == pytest.approx(1.0, abs=0.01)

    def test_normal_neg_log_is_quadratic(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(100_000)
        neg_log = neg_log_density(marginal_density(samples))
        # fit a parabola where the density is meaningfully estimated
        density = marginal_density(samples).values
        mask = density >= density.max() * 1e-3
        x, y = neg_log.grid[mask], neg_log.values[mask]
        coeffs = np.polyfit(x, y, 2)
        fitted = np.polyval(coeffs, x)
        ss_res = np.sum((y - fitted) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99

    def test_floor_guard_keeps_neg_log_finite(self):
        rng = np.random.default_rng(4)
        curve = marginal_density(rng.standard_normal(500))
        neg_log = neg_log_density(curve)
        assert np.isfinite(neg_log.values).all()

    def test_explicit_bandwidth_respected(self):
        rng = np.random.default_rng(5)
        curve = marginal_density(rng.standard_normal(500), bandwidth=0.5)
        assert curve.bandwidth == 0.5

    def test_silverman_scale(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(10_000)
        h = silverman_bandwidth(samples)
        assert h == pytest.approx(0.9 * 10_000 ** (-0.2), rel=0.05)


class TestJaccard:
    def test_identical_intervals(self):
        assert jaccard_interval_overlap((0.0, 1.0), (0.0, 1.0)) == 1.0

    def test_disjoint_intervals(self):
        assert jaccard_interval_overlap((0.0, 1.0), (2.0, 3.0)) == 0.0

    def test_partial_overlap(self):
        assert jaccard_interval_overlap((0.0, 2.0), (1.0, 3.0)) == pytest.approx(1.0 / 3.0)

    def test_nested_intervals(self):
        assert jaccard_interval_overlap((0.0, 4.0), (1.0, 2.0)) == pytest.approx(0.25)
