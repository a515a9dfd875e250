import csv
import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
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


def quadratic_1d(p):
    return (p["x"] - 0.3) ** 2


def quadratic_2d(p):
    return (p["x"] - 0.3) ** 2 + (p["y"] + 0.2) ** 2


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

        minimize(objective, space, budget=40, seed=1, method=method)
        assert all(c == 3.25 for c in seen)

    def test_never_leaves_box(self, method):
        space = SearchSpace(bounds={"x": (0.2, 0.8), "y": (-0.5, 0.5)})
        res = minimize(lambda p: p["x"] + p["y"], space,
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
        small = minimize(quadratic_2d, space, budget=80, seed=3, method=method)
        large = minimize(quadratic_2d, space, budget=240, seed=3, method=method)
        # shared seed means the longer run replays the shorter one first
        for (pa, la), (pb, lb) in zip(small.evaluations, large.evaluations):
            assert pa == pb and la == lb
        assert large.best_loss <= small.best_loss

    def test_no_feasible_point(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        with pytest.raises(NoFeasiblePointError):
            minimize(lambda p: math.inf, space, budget=30, seed=0,
                     method=method)

    def test_nan_treated_as_infeasible(self, method):
        space = SearchSpace(bounds={"x": (0.0, 1.0)})
        res = minimize(
            lambda p: math.nan if p["x"] < 0.5 else (p["x"] - 0.6) ** 2,
            space, budget=60, seed=4, method=method)
        assert math.isfinite(res.best_loss)
        assert res.best_params["x"] >= 0.5

    def test_objective_called_once_per_evaluation_in_trace_order(self, method):
        # enough budget for random+nm to explore and then descend
        space = SearchSpace(bounds={"x": (0.0, 1.0), "y": (-1.0, 1.0),
                                    "c": (0.0, 10.0)}, pinned={"c": 3.25})
        calls = []

        def objective(p):
            calls.append(p)
            return quadratic_2d(p)

        res = minimize(objective, space, budget=90, seed=8, method=method,
                       init_points=[[0.5, 0.5]])
        assert all(type(p) is dict for p in calls)
        assert calls == [p for p, _ in res.evaluations]

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
        res = minimize(quadratic_2d, space, budget=500, seed=0, method="tpe")
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
    """random+nm draws each uniform exploration batch whole before scoring
    any of it, and the fit objective gives the trace fit_loss gives."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(default_config(horizon=40, noise=NoiseSpec(0.05), seed=8))

    @staticmethod
    def _both(objective, reference, space, monkeypatch, **kwargs):
        """Run minimize on objective and on reference and assert the same
        trace.  Returns the lengths, where above one, of the runs of uniform
        draws made with no objective call between them."""
        runs = [0]
        draw = optimize_module._uniform_draw

        def counted_draw(rng, space):
            runs[-1] += 1
            return draw(rng, space)

        def counted(candidate):
            runs.append(0)
            return objective(candidate)

        with monkeypatch.context() as patch:
            patch.setattr(optimize_module, "_uniform_draw", counted_draw)
            first = minimize(counted, space, **kwargs)
        second = minimize(reference, space, **kwargs)
        assert first.evaluations == second.evaluations
        assert first.best_loss == second.best_loss
        return [n for n in runs if n > 1]

    @staticmethod
    def _fit_pair(dataset):
        window = FitWindow(0, 28)

        def reference(p):
            return fit_loss(dataset, ModelParams.from_dict(p), window)
        return fit_objective(dataset, window), reference

    def test_fit_with_warm_start(self, dataset, monkeypatch):
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=dict(defaults.REPARAM_PINS))
        warm = space.extract_free(defaults.TRUE_PARAMS.as_dict())
        batches = self._both(*self._fit_pair(dataset), space, monkeypatch,
                             budget=150, seed=3, init_points=[warm, warm * 1.1])
        # five free parameters: one exploration batch of 10 * 5 + 10
        assert batches == [60]

    def test_budget_below_batch_size(self, dataset, monkeypatch):
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS))
        batches = self._both(*self._fit_pair(dataset), space, monkeypatch,
                             budget=37, seed=4,
                             init_points=[space.extract_free(defaults.TRUE_PARAMS.as_dict())])
        assert batches == [36]

    def test_restart_batches(self, monkeypatch):
        # feasible only near x = 1: the first batches find nothing to polish,
        # so random+nm draws further batches
        space = SearchSpace(bounds={"x": (0.0, 1.0), "y": (0.0, 1.0)})

        def objective(p):
            return (p["x"] - 1.0) ** 2 + p["y"] if p["x"] > 0.97 else math.inf

        batches = self._both(objective, objective, space, monkeypatch,
                             budget=200, seed=1)
        assert len(batches) >= 2 and batches[0] == 30


class _Stop(Exception):
    """Raised by a recording objective to end a descent."""


def _recording(f, raise_on):
    """An objective that records a copy of each point it scores and raises
    _Stop on call number raise_on (never when it is None)."""
    points = []

    def func(x):
        if len(points) + 1 == raise_on:
            raise _Stop
        points.append(np.array(x))
        return float(f(x))
    return points, func


def _nm_pair(f, x0, lower, upper, maxfev=2000, raise_on=None):
    """Run the port and scipy's bounded Nelder-Mead on f from x0 and assert
    that they evaluate the same points bit for bit.

    scipy stops after maxfev evaluations; the port, which has no cap, is
    stopped by its objective raising on the next call.  Returns the points,
    the port's (best vertex, value) and scipy's result, each of the last two
    None when the run ended in _Stop.
    """
    lower, upper = np.array(lower, dtype=float), np.array(upper, dtype=float)
    ours, func = _recording(f, maxfev + 1 if raise_on is None else raise_on)
    try:
        best = optimize_module._nelder_mead(func, np.array(x0, dtype=float),
                                            lower, upper)
    except _Stop:
        best = None
    theirs, func = _recording(f, raise_on)
    try:
        result = scipy_minimize(func, np.array(x0, dtype=float),
                                method="Nelder-Mead", bounds=list(zip(lower, upper)),
                                options={"xatol": 1e-10, "fatol": 1e-12,
                                         "maxfev": maxfev})
    except _Stop:
        result = None
    assert len(ours) == len(theirs)
    assert np.array_equal(np.array(ours), np.array(theirs))
    return np.array(ours), best, result


def _spiked(x):
    # minimum 0 at (1, 1), with a spike of 10 on the points that lie within
    # 0.04 of it, so a contraction towards (1, 1) fails and the simplex shrinks
    x = np.asarray(x)
    weights = np.arange(1, len(x) + 1)
    spike = 10.0 if 0 < np.max(np.abs(x - 1)) < 0.04 else 0.0
    return float(np.sum(weights * np.abs(x - 1)) + spike)


class TestNelderMeadParity:
    """The port evaluates the points scipy's bounded Nelder-Mead evaluates,
    in the same order, in each branch of the method."""

    def test_zero_coordinate_steps_by_zdelt(self):
        points, _, _ = _nm_pair(lambda x: np.sum((x - [0.3, 0.4]) ** 2),
                                [0.0, 0.5], [-1, -1], [1, 1])
        assert points[1][0] == 0.00025 and points[1][1] == 0.5
        assert points[2][1] == pytest.approx(0.525)

    def test_start_on_upper_bound_reflects(self):
        points, _, _ = _nm_pair(lambda x: np.sum((x - [0.3, 0.4]) ** 2),
                                [1.0, 0.5], [0, 0], [1, 1])
        # 1.05 lies past the bound and is reflected to 2 - 1.05
        assert points[1][0] == pytest.approx(0.95)

    def test_clipped_reflection_and_expansion(self):
        # simplex (0.96, 0.992 reflected from 1.008); reflection 1.024 and
        # expansion 1.056 are both clipped onto the bound
        points, best, _ = _nm_pair(lambda x: -x[0], [0.96], [0], [1])
        assert points[1][0] == pytest.approx(0.992)
        assert points[2][0] == 1.0 and points[3][0] == 1.0
        assert best[0][0] == 1.0

    def test_outside_contraction(self):
        # simplex (1, 1.05); the reflection 0.95 beats 1.05 but not 1, so
        # the next point is 1.5 * 1 - 0.5 * 1.05
        points, _, _ = _nm_pair(lambda x: (x[0] - 0.99) ** 2, [1.0], [-10], [10])
        assert points[2][0] == pytest.approx(0.95)
        assert points[3][0] == pytest.approx(0.975)

    def test_inside_contraction(self):
        # the reflection 0.95 is worse than both vertices, so the next point
        # is halfway between 1 and 1.05
        points, _, _ = _nm_pair(lambda x: (x[0] - 1.01) ** 2, [1.0], [-10], [10])
        assert points[2][0] == pytest.approx(0.95)
        assert points[3][0] == pytest.approx(1.025)

    def test_shrink(self):
        # the inside contraction (1.0125, 1.025) lands on the spike, so both
        # other vertices move halfway to the best one, (1, 1)
        points, _, _ = _nm_pair(_spiked, [1.0, 1.0], [0, 0], [2, 2], maxfev=300)
        assert points[4] == pytest.approx([1.0125, 1.025])
        assert points[5] == pytest.approx([1.025, 1.0])
        assert points[6] == pytest.approx([1.0, 1.025])

    def test_infinite_region(self):
        def f(x):
            if x[0] + x[1] > 1.5:
                return math.inf
            return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

        points, best, result = _nm_pair(f, [0.2, 0.2], [-2, -2], [2, 2])
        assert any(math.isinf(f(x)) for x in points)
        assert best is not None and result.status == 0

    def test_stops_at_convergence_test(self):
        space = SearchSpace(dict(defaults.SEARCH_BOUNDS), pinned=dict(defaults.REPARAM_PINS))
        bounds = space.free_bounds()
        centre = space.extract_free(defaults.TRUE_PARAMS.as_dict())
        widths = bounds[:, 1] - bounds[:, 0]
        points, best, result = _nm_pair(
            lambda x: float(np.sum(((x - centre) / widths) ** 2)),
            bounds.mean(axis=1), bounds[:, 0], bounds[:, 1], maxfev=20_000)
        assert result.status == 0 and len(points) == result.nfev < 20_000
        assert np.array_equal(best[0], result.x) and best[1] == result.fun

    def test_exception_in_initial_simplex(self):
        points, best, result = _nm_pair(
            lambda x: np.sum(x ** 2), [0.5, 0.5, 0.5], [0, 0, 0], [1, 1, 1],
            raise_on=3)
        assert len(points) == 2 and best is None and result is None

    def test_exception_in_shrink(self):
        # calls 6 and 7 are the shrink's (see test_shrink); stop between them
        points, best, result = _nm_pair(_spiked, [1.0, 1.0], [0, 0], [2, 2],
                                        raise_on=7)
        assert len(points) == 6 and best is None and result is None
        assert points[5] == pytest.approx([1.025, 1.0])


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

        def objective(p):
            x = space.extract_free(p)
            return float(np.sum(((x - centre) / widths) ** 2))

        fast = minimize(objective, space, budget=90, seed=2, method="tpe")
        monkeypatch.setattr(optimize_module, "_tpe_propose", _reference_tpe_propose)
        slow = minimize(objective, space, budget=90, seed=2, method="tpe")
        assert fast.evaluations == slow.evaluations
