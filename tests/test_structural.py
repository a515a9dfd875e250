"""Tests for the numeric structural-identifiability screen."""

import json

import numpy as np
import pytest

from seiard import defaults
from seiard.artifacts import write_json
from seiard.dynamics import PARAM_NAMES, DivergenceError, ModelParams, simulate_observed
from seiard.structural import (
    SensitivityReport,
    sensitivity_matrix,
    structural_verdict,
    svd_rank,
)
from seiard.synthdata import default_config

TRUTH = defaults.TRUE_PARAMS
REPARAM_FREE = ("beta", "t_recov", "p_fatal", "e0", "i0")


def reference_matrix(params, times, names, scenario, rel_step=1e-4):
    """The screen as one scalar central difference per column: both solves
    of a column, then the column, one quantity at a time."""
    times = np.asarray(times, dtype=float)
    columns = []
    for name in names:
        base = params.as_dict()
        delta = rel_step * base[name]
        stacks = []
        for sign in (+1.0, -1.0):
            shifted = ModelParams.from_dict({**base, name: base[name] + sign * delta})
            series = simulate_observed(shifted, scenario, int(times.max()))
            stacks.append(np.concatenate(
                [series.series(row)[times.astype(int)]
                 for row in ("active", "recovered", "deceased")]))
        columns.append((stacks[0] - stacks[1]) / (2.0 * rel_step))
    return np.column_stack(columns)


@pytest.fixture(scope="module")
def month_reports():
    times = np.arange(1, 29)
    return (sensitivity_matrix(TRUTH, times, free_names=REPARAM_FREE),
            sensitivity_matrix(TRUTH, times))


class TestSvdRank:
    def test_identity_full_rank(self):
        sv, rank, tol, _ = svd_rank(np.eye(4))
        assert rank == 4
        np.testing.assert_allclose(sv, 1.0)

    def test_duplicated_column_drops_rank_by_one(self, month_reports):
        _, original = month_reports
        matrix = original.matrix.copy()
        base_rank = svd_rank(matrix)[1]
        matrix[:, 3] = matrix[:, 0]
        assert svd_rank(matrix)[1] == base_rank - 1

    def test_rank_invariant_under_column_rescale(self, month_reports):
        reparam, _ = month_reports
        for factor in [1e-3, 7.0, 1e4]:
            matrix = reparam.matrix.copy()
            matrix[:, 2] *= factor
            assert svd_rank(matrix)[1] == reparam.numeric_rank

    def test_singular_values_non_increasing(self, month_reports):
        for report in month_reports:
            assert np.all(np.diff(report.singular_values) <= 0)


class TestSensitivityMatrix:
    def test_shapes_and_names(self, month_reports):
        reparam, original = month_reports
        assert reparam.matrix.shape == (28 * 3, 5)
        assert original.matrix.shape == (28 * 3, 8)
        assert original.free_names == ("beta", "t_inc", "t_inf", "t_recov",
                                       "t_fatal", "p_fatal", "e0", "i0")

    def test_reduced_variant_full_rank_on_month(self, month_reports):
        reparam, _ = month_reports
        assert reparam.numeric_rank == 5
        assert reparam.condition_number < 1e4

    def test_full_variant_ill_conditioned_on_month(self, month_reports):
        _, original = month_reports
        assert (original.numeric_rank < 8
                or original.condition_number > 1e6)

    def test_growth_cluster_is_the_exact_degeneracy(self, month_reports):
        # the weakest direction mixes the transmission/incubation/infectious
        # quantities, the early-epidemic scaling law
        _, original = month_reports
        loadings = original.loadings(len(original.near_null_directions) - 1)
        top = list(loadings)[:4]
        assert set(top) <= {"beta", "t_inc", "t_inf", "e0", "i0"}

    def test_fatal_pair_direction_appears_mid_epidemic(self):
        report = sensitivity_matrix(TRUTH, np.arange(1, 201))
        found = False
        for row in report.near_null_directions:
            order = np.argsort(np.abs(row))[::-1]
            top_two = {report.free_names[j] for j in order[:2]}
            mass = float(np.sum(np.abs(row[order[:2]]) ** 2))
            if top_two == {"t_fatal", "p_fatal"} and mass > 0.9:
                found = True
        assert found

    def test_halving_rel_step_stable(self):
        times = np.arange(1, 29)
        coarse = sensitivity_matrix(TRUTH, times, rel_step=1e-4,
                                    free_names=REPARAM_FREE)
        fine = sensitivity_matrix(TRUTH, times, rel_step=5e-5,
                                  free_names=REPARAM_FREE)
        rel = np.abs(fine.singular_values - coarse.singular_values) / coarse.singular_values
        assert rel.max() < 0.01

    @pytest.mark.parametrize("days", [28, 200])
    @pytest.mark.parametrize("names", [REPARAM_FREE, PARAM_NAMES])
    def test_equals_reference_columns(self, names, days):
        times = np.arange(1, days + 1)
        got = sensitivity_matrix(TRUTH, times, free_names=names).matrix
        want = reference_matrix(TRUTH, times, names, default_config())
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("names", [REPARAM_FREE, PARAM_NAMES])
    def test_equals_reference_columns_in_a_scenario(self, names):
        scenario = default_config(a0_fatal_fraction=0.5, dt=0.25, population_n=2e6)
        times = np.arange(1, 57)
        got = sensitivity_matrix(TRUTH, times, free_names=names,
                                 scenario=scenario).matrix
        assert np.array_equal(got, reference_matrix(TRUTH, times, names, scenario))
        # each scenario field on its own moves the matrix
        default = sensitivity_matrix(TRUTH, times, free_names=names).matrix
        for change in ({"a0_fatal_fraction": 0.5}, {"dt": 0.25}, {"population_n": 2e6}):
            moved = sensitivity_matrix(TRUTH, times, free_names=names,
                                       scenario=default_config(**change)).matrix
            assert not np.array_equal(moved, default)

    def test_perturbation_failure_names_quantity(self):
        at_edge = TRUTH.replace(p_fatal=1.0)
        with pytest.raises(DivergenceError, match="p_fatal"):
            sensitivity_matrix(at_edge, np.arange(1, 8))

    def test_diverging_solve_names_quantity(self):
        with pytest.raises(DivergenceError, match="^perturbing t_inc diverged the solve$"):
            sensitivity_matrix(TRUTH.replace(beta=1e300), np.arange(1, 8),
                               free_names=("t_inc",))

    def test_zero_quantity_rejected(self):
        no_seed = TRUTH.replace(e0=0.0)
        with pytest.raises(ValueError, match="e0"):
            sensitivity_matrix(no_seed, np.arange(1, 8))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            sensitivity_matrix(TRUTH, [])
        with pytest.raises(ValueError, match="1-D"):
            sensitivity_matrix(TRUTH, 5)
        with pytest.raises(ValueError, match="1-D"):
            sensitivity_matrix(TRUTH, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            sensitivity_matrix(TRUTH, [1.5, 2.0])
        with pytest.raises(ValueError):
            sensitivity_matrix(TRUTH, [-1, 3])
        with pytest.raises(ValueError):
            sensitivity_matrix(TRUTH, [1, 2], rel_step=0.0)
        with pytest.raises(ValueError):
            sensitivity_matrix(TRUTH, [1, 2], free_names=("beta", "bogus"))


class TestReportAndVerdict:
    def test_loadings_sorted_descending(self, month_reports):
        _, original = month_reports
        values = list(original.loadings(0).values())
        assert values == sorted(values, reverse=True)

    def test_condition_number_infinite_on_exact_null(self):
        report = SensitivityReport(
            free_names=("a", "b"), times=np.array([1.0]),
            matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
            singular_values=np.array([3.0, 0.0]), numeric_rank=1,
            tolerance=1e-12, near_null_directions=np.array([[0.7, -0.7]]))
        assert report.condition_number == float("inf")

    def test_verdicts(self, month_reports):
        reparam, original = month_reports
        good = structural_verdict(reparam)
        bad = structural_verdict(original)
        assert good["verdict"] == "identifiable"
        assert good["entangled"] == []
        assert bad["verdict"] == "non-identifiable"
        assert len(bad["entangled"]) >= 2
        assert "local numeric evidence" in (good["evidence"], bad["evidence"])

    def test_json_report(self, month_reports, tmp_path):
        reparam, _ = month_reports
        path = tmp_path / "sens.json"
        write_json(path, reparam.to_dict())
        payload = json.loads(path.read_text())
        assert payload["numeric_rank"] == 5
        assert payload["free_names"] == list(REPARAM_FREE)
        assert len(payload["singular_values"]) == 5
        assert payload["evidence"] == "local numeric evidence"
