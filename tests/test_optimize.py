import csv
import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import seiard.optimize as optimize_module
from seiard import defaults
from seiard.dynamics import ModelParams
from seiard.loss import FitWindow, fit_loss, fit_objective
from seiard.optimize import (
    METHODS,
    TPE_GAMMA,
    TPE_N_CANDIDATES,
    NoFeasiblePointError,
    OptResult,
    SearchSpace,
    minimize,
)
from seiard.synthdata import NoiseSpec, default_config, generate


def pointwise(f):
    """A minimize objective that scores each candidate dict with f."""
    return lambda candidates: [f(p) for p in candidates]


@pointwise
def quadratic_1d(p):
    return (p["x"] - 0.3) ** 2


class TestSearchSpace:
    def test_free_names_preserve_order(self):
        space = SearchSpace(bounds={"a": (0, 1), "b": (0, 2), "c": (0, 3)},
                            pinned={"b": 1.0})
        assert space.free_names == ("a", "c")

    def test_pin_returns_new_space(self):
        space = SearchSpace(bounds={"a": (0, 1), "b": (0, 2)})
        pinned = space.pin("a", 0.5)
        assert pinned.free_names == ("b",)
        assert space.free_names == ("a", "b")

    def test_assemble_includes_pins(self):
        space = SearchSpace(bounds={"a": (0, 1), "b": (0, 2)}, pinned={"b": 1.5})
        assert space.assemble([0.25]) == {"a": 0.25, "b": 1.5}

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(bounds={"a": (1.0, 1.0)})

    def test_pin_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(bounds={"a": (0, 1)}, pinned={"a": 2.0})
        with pytest.raises(ValueError):
            SearchSpace(bounds={"a": (0, 1)}, pinned={"zz": 0.5})

    def test_pinned_value_on_interval_edge_allowed(self):
        SearchSpace(bounds={"a": (0, 1)}, pinned={"a": 1.0})

    def test_clip(self):
        space = SearchSpace(bounds={"a": (0, 1), "b": (-1, 1)})
        assert space.clip_free([2.0, -3.0]).tolist() == [1.0, -1.0]


@pytest.mark.parametrize("method", METHODS)
class TestMinimize:
    def test_recovers_quadratic_optimum(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(quadratic_1d, space, budget=200, seed=0, method=method)
        assert abs(res.best_params["x"] - 0.3) <= 0.02

    def test_budget_one_returns_single_evaluation(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(quadratic_1d, space, budget=1, seed=0, method=method)
        assert res.budget_used == 1
        assert len(res.evaluations) == 1
        assert res.best_params == res.evaluations[0][0]

    def test_pinned_value_carried_exactly(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0), "c": (0.0, 10.0)},
                            pinned={"c": 3.25})
        seen = []

        def objective(p):
            seen.append(p["c"])
            return (p["x"] - 0.3) ** 2

        minimize(pointwise(objective), space, budget=40, seed=1, method=method)
        assert all(c == 3.25 for c in seen)

    def test_never_leaves_box(self, method):
        space = SearchSpace(bounds={"x": (0.2, 0.8), "y": (-0.5, 0.5)})
        res = minimize(pointwise(lambda p: p["x"] + p["y"]), space,
                       budget=120, seed=2, method=method)
        for params, _ in res.evaluations:
            assert 0.2 <= params["x"] <= 0.8
            assert -0.5 <= params["y"] <= 0.5

    def test_seed_determinism(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        a = minimize(quadratic_1d, space, budget=60, seed=7, method=method)
        b = minimize(quadratic_1d, space, budget=60, seed=7, method=method)
        assert a.evaluations == b.evaluations

    def test_best_loss_monotone_in_budget_same_seed(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0), "y": (-1.0, 1.0)})
        objective = pointwise(lambda p: (p["x"] - 0.3) ** 2 + (p["y"] + 0.2) ** 2)
        small = minimize(objective, space, budget=80, seed=3, method=method)
        large = minimize(objective, space, budget=240, seed=3, method=method)
        # shared seed means the longer run replays the shorter one first
        for (pa, la), (pb, lb) in zip(small.evaluations, large.evaluations):
            assert pa == pb and la == lb
        assert large.best_loss <= small.best_loss

    def test_no_feasible_point(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        with pytest.raises(NoFeasiblePointError):
            minimize(pointwise(lambda p: math.inf), space, budget=30, seed=0,
                     method=method)

    def test_nan_treated_as_infeasible(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(
            pointwise(lambda p: math.nan if p["x"] < 0.5 else (p["x"] - 0.6) ** 2),
            space, budget=60, seed=4, method=method)
        assert math.isfinite(res.best_loss)
        assert res.best_params["x"] >= 0.5

    def test_warm_start_points_evaluated_first(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(quadratic_1d, space, budget=25, seed=5, method=method,
                       init_points=[[0.31], [0.9]])
        assert res.evaluations[0][0]["x"] == 0.31
        assert res.evaluations[1][0]["x"] == 0.9
        assert abs(res.best_params["x"] - 0.3) <= 0.02


class TestTpeSmoke:
    def test_2d_quadratic_within_tolerance(self):
        space = SearchSpace(bounds={"x": (0.0, 1.0), "y": (-1.0, 1.0)})
        objective = pointwise(lambda p: (p["x"] - 0.3) ** 2 + (p["y"] + 0.2) ** 2)
        res = minimize(objective, space, budget=500, seed=0, method="tpe")
        assert abs(res.best_params["x"] - 0.3) <= 1e-2
        assert abs(res.best_params["y"] + 0.2) <= 1e-2


class TestResultContract:
    def test_best_is_minimum_of_trace(self):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(quadratic_1d, space, budget=50, seed=6, method="tpe")
        losses = [v for _, v in res.evaluations]
        assert res.best_loss == min(losses)
        assert res.budget_used == 50

    def test_invalid_arguments(self):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        with pytest.raises(ValueError):
            minimize(quadratic_1d, space, budget=0, seed=0)
        with pytest.raises(ValueError):
            minimize(quadratic_1d, space, budget=10, seed=0, method="sgd")
        with pytest.raises(ValueError):
            minimize(quadratic_1d, SearchSpace(bounds={"x": (0, 1)}, pinned={"x": 0.5}),
                     budget=10, seed=0)

    def test_trace_csv(self, tmp_path):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(quadratic_1d, space, budget=10, seed=0, method="tpe")
        path = tmp_path / "trace.csv"
        res.write_trace_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eval", "loss", "x"]
        assert len(rows) == 11
        losses = [float(r[1]) for r in rows[1:]]
        assert min(losses) == res.best_loss


class TestBatchObjective:
    """random+nm gives the same trace from the fit objective, which scores
    each exploration batch in one call, as from fit_loss one at a time."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(default_config(horizon=40, noise=NoiseSpec(0.05), seed=8))

    @staticmethod
    def _both(objective, reference, space, **kwargs):
        batches = []

        def counted(candidates):
            if len(candidates) > 1:
                batches.append(len(candidates))
            return objective(candidates)

        batched = minimize(counted, space, **kwargs)
        single = minimize(reference, space, **kwargs)
        assert batched.evaluations == single.evaluations
        assert batched.best_loss == single.best_loss
        return batches

    @staticmethod
    def _fit_pair(dataset):
        window = FitWindow(0, 28)
        return (fit_objective(dataset, window),
                pointwise(lambda p: fit_loss(dataset, ModelParams.from_dict(p),
                                             window)))

    def test_fit_with_warm_start(self, dataset):
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=dict(defaults.REPARAM_PINS))
        warm = space.extract_free(defaults.TRUE_PARAMS.as_dict())
        batches = self._both(*self._fit_pair(dataset), space, budget=150, seed=3,
                             init_points=[warm, warm * 1.1])
        # five free parameters: one exploration batch of 10 * 5 + 10
        assert batches == [60]

    def test_budget_below_batch_size(self, dataset):
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS))
        batches = self._both(*self._fit_pair(dataset), space, budget=37, seed=4,
                             init_points=[space.extract_free(defaults.TRUE_PARAMS.as_dict())])
        assert batches == [36]

    def test_restart_batches(self):
        # feasible only near x = 1: the first batches find nothing to polish,
        # so random+nm draws further batches
        space = SearchSpace(bounds={"x": (0.0, 1.0), "y": (0.0, 1.0)})

        @pointwise
        def objective(p):
            return (p["x"] - 1.0) ** 2 + p["y"] if p["x"] > 0.97 else math.inf

        batches = self._both(objective, objective, space, budget=200, seed=1)
        assert len(batches) >= 2 and batches[0] == 30


def _reference_logpdf(x, centers, bandwidth, lo, hi):
    x = np.atleast_1d(x)[:, None]
    z = (x - centers[None, :]) / bandwidth
    log_phi = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - math.log(bandwidth)
    mass = ndtr((hi - centers) / bandwidth) - ndtr((lo - centers) / bandwidth)
    log_kernels = log_phi - np.log(np.maximum(mass, 1e-300))[None, :]
    uniform = np.full((x.shape[0], 1), -math.log(hi - lo))
    stacked = np.concatenate([log_kernels, uniform], axis=1)
    peak = stacked.max(axis=1, keepdims=True)
    return (peak[:, 0] + np.log(np.exp(stacked - peak).sum(axis=1))
            - math.log(stacked.shape[1]))


def _reference_tpe_propose(rng, recorder):
    """The cell-by-cell TPE proposal that _tpe_propose vectorises."""
    space = recorder.space
    observed = [(p, l) for p, l in zip(recorder.free_points, recorder.losses)
                if math.isfinite(l)]
    if len(observed) < 2:
        return optimize_module._uniform_draw(rng, space)
    order = sorted(range(len(observed)), key=lambda k: observed[k][1])
    n_good = math.ceil(TPE_GAMMA * len(observed))
    good = np.array([observed[k][0] for k in order[:n_good]])
    bad = np.array([observed[k][0] for k in order[n_good:]])
    if len(bad) == 0:
        return optimize_module._uniform_draw(rng, space)
    bounds = space.free_bounds()
    dims = len(space.free_names)
    candidates = np.empty((TPE_N_CANDIDATES, dims))
    for d in range(dims):
        lo, hi = bounds[d]
        bw = (hi - lo) / math.sqrt(len(good))
        for k in range(TPE_N_CANDIDATES):
            pick = rng.integers(len(good) + 1)
            if pick == len(good):
                candidates[k, d] = rng.uniform(lo, hi)
            else:
                a = ndtr((lo - good[pick, d]) / bw)
                b = ndtr((hi - good[pick, d]) / bw)
                candidates[k, d] = float(np.clip(
                    good[pick, d] + bw * ndtri(rng.uniform(a, b)), lo, hi))
    score = np.zeros(TPE_N_CANDIDATES)
    for d in range(dims):
        lo, hi = bounds[d]
        score += _reference_logpdf(candidates[:, d], good[:, d],
                                   (hi - lo) / math.sqrt(len(good)), lo, hi)
        score -= _reference_logpdf(candidates[:, d], bad[:, d],
                                   (hi - lo) / math.sqrt(len(bad)), lo, hi)
    return candidates[int(np.argmax(score))]


class TestTpeProposal:
    @pytest.mark.parametrize("pins", [{}, defaults.REPARAM_PINS])
    def test_matches_cell_by_cell_reference(self, pins, monkeypatch):
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=dict(pins))
        centre = space.extract_free(defaults.TRUE_PARAMS.as_dict())
        widths = np.diff(space.free_bounds(), axis=1)[:, 0]

        @pointwise
        def objective(p):
            x = space.extract_free(p)
            return float(np.sum(((x - centre) / widths) ** 2))

        fast = minimize(objective, space, budget=90, seed=2, method="tpe")
        monkeypatch.setattr(optimize_module, "_tpe_propose", _reference_tpe_propose)
        slow = minimize(objective, space, budget=90, seed=2, method="tpe")
        assert fast.evaluations == slow.evaluations
