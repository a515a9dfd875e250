import csv
import shutil
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import seiard.dynamics as dynamics_module
from rk4_reference import deriv, integrate_reference
from seiard import defaults
from seiard.dynamics import (
    COMPARTMENTS,
    DivergenceError,
    ModelParams,
    ParameterDomainError,
    _check_day,
    build_initial_state,
    integrate,
    observe,
    simulate_observed,
)
from seiard.synthdata import default_config

TRUE = defaults.TRUE_PARAMS
N = defaults.POPULATION_N


def default_init(params=TRUE):
    return build_initial_state(params, N, defaults.INIT_OBSERVED)


params_strategy = st.builds(
    ModelParams,
    beta=st.floats(0.01, 1.0),
    t_inc=st.floats(1.0, 100.0),
    t_inf=st.floats(1.0, 100.0),
    t_recov=st.floats(1.0, 100.0),
    t_fatal=st.floats(1.0, 100.0),
    p_fatal=st.floats(0.0, 1.0),
    e0=st.floats(0.0, 5.0),
    i0=st.floats(0.0, 5.0),
)

# s, e, i, a_recov, a_fatal, r, d
state_strategy = st.tuples(
    st.floats(0.0, 1e7),
    st.floats(0.0, 1e5),
    st.floats(0.0, 1e5),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e5),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e5),
)


class TestModelParams:
    @pytest.mark.parametrize(
        "changes",
        [
            {"beta": -0.1},
            {"beta": float("nan")},
            {"t_inc": 0.0},
            {"t_inf": -1.0},
            {"t_recov": float("inf")},
            {"t_fatal": 0.0},
            {"p_fatal": -0.01},
            {"p_fatal": 1.01},
            {"e0": -1.0},
            {"i0": -0.5},
        ],
    )
    def test_domain_violations_rejected(self, changes):
        with pytest.raises(ParameterDomainError):
            ModelParams(**{**TRUE.as_dict(), **changes})

    def test_rate_accessors(self):
        assert TRUE.sigma == 1.0 / 5.10
        assert TRUE.gamma == 1.0 / 6.60

    def test_dict_round_trip(self):
        assert ModelParams.from_dict(TRUE.as_dict()) == TRUE

    def test_replace(self):
        changed = TRUE.replace(beta=0.5)
        assert changed.beta == 0.5
        assert changed.t_inc == TRUE.t_inc


class TestDerivative:
    """The right-hand side of the reference RK4, which integrate reproduces
    bit for bit, against hand-computed rates."""

    def test_empty_transit_compartments_give_zero_rates(self):
        # no infectious pressure and nothing in transit -> nothing moves
        rate = deriv(TRUE, 1e6 + 11.0, 1e6, 0.0, 0.0, 0.0, 0.0, 10.0, 1.0)
        assert list(rate) == [0.0] * 7

    def test_susceptible_outflow_at_scenario_values(self):
        # beta * I * S / N with one infectious person in a whole-population S
        rate = deriv(TRUE, N, N, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert rate[0] == -0.25

    def test_hand_computed_rates(self):
        rate = deriv(TRUE, 1e7, 9e6, 100.0, 50.0, 40.0, 10.0, 5.0, 1.0)
        infection = 0.25 * 50.0 * 9e6 / 1e7
        incubation = 100.0 / 5.10
        onset = 50.0 / 6.60
        want = (-infection, infection - incubation, incubation - onset,
                0.97 * onset - 40.0 / 14.0, 0.03 * onset - 10.0 / 10.0,
                40.0 / 14.0, 10.0 / 10.0)
        assert rate == pytest.approx(want, rel=1e-15)

    @given(params=params_strategy, state=state_strategy)
    @settings(max_examples=200)
    def test_rates_sum_to_zero(self, params, state):
        arr = np.array(deriv(params, max(sum(state), 1.0), *state))
        scale = max(1.0, float(np.abs(arr).max()))
        assert abs(arr.sum()) <= 1e-8 * scale


@pytest.fixture(scope="class")
def day_loop(request):
    """Solve with the day loop the test class names in DAY_LOOP: "c", the
    compiled loop (skipped only where there is no C compiler), or "python"."""
    with pytest.MonkeyPatch.context() as patch:
        if request.cls.DAY_LOOP == "python":
            patch.setattr(dynamics_module, "_c_day_loop", lambda: None)
        elif shutil.which("cc") is None:
            pytest.skip("no C compiler")
        else:
            assert dynamics_module._c_day_loop() is not None
        yield


@pytest.mark.usefixtures("day_loop")
class TestIntegrate:
    DAY_LOOP = "c"

    def test_day_zero_row_is_init(self):
        traj = integrate(TRUE, default_init(), 10)
        assert traj.states[0].tolist() == default_init().tolist()
        assert traj.times.tolist() == list(range(11))

    def test_steady_state_is_exactly_constant(self):
        state = np.array([1e6, 0.0, 0.0, 0.0, 0.0, 100.0, 10.0])
        traj = integrate(TRUE, state, 50)
        assert (traj.states == traj.states[0]).all()

    def test_zero_fatality_keeps_deceased_constant(self):
        params = TRUE.replace(p_fatal=0.0)
        traj = integrate(params, build_initial_state(params, N, defaults.INIT_OBSERVED), 100)
        assert (traj.states[:, COMPARTMENTS.index("a_fatal")] == 0.0).all()
        assert (traj.states[:, COMPARTMENTS.index("d")] == 0.0).all()

    def test_step_refinement_changes_little(self):
        coarse = integrate(TRUE, default_init(), defaults.HORIZON_DAYS, dt=0.1)
        fine = integrate(TRUE, default_init(), defaults.HORIZON_DAYS, dt=0.01)
        rel = np.abs(coarse.states - fine.states).max() / np.abs(fine.states).max()
        assert rel <= 1e-6

    def test_fourth_order_error_scaling(self):
        init = default_init()
        ref = integrate(TRUE, init, defaults.HORIZON_DAYS, dt=0.0125)
        err_coarse = np.abs(integrate(TRUE, init, defaults.HORIZON_DAYS, dt=0.1).states - ref.states).max()
        err_half = np.abs(integrate(TRUE, init, defaults.HORIZON_DAYS, dt=0.05).states - ref.states).max()
        assert 12.0 <= err_coarse / err_half <= 20.0

    def test_mass_conservation(self):
        traj = integrate(TRUE, default_init(), defaults.HORIZON_DAYS, dt=0.1)
        drift = np.abs(traj.states.sum(axis=1) - N)
        assert drift.max() <= 1e-6 * N

    def test_epidemic_curve_single_peak(self):
        traj = integrate(TRUE, default_init(), defaults.HORIZON_DAYS)
        i_curve = traj.states[:, COMPARTMENTS.index("i")]
        peak = int(np.argmax(i_curve))
        assert 0 < peak < defaults.HORIZON_DAYS
        assert (np.diff(i_curve[: peak + 1]) > 0).all()
        assert (np.diff(i_curve[peak:]) < 0).all()

    def test_monotone_terminal_compartments(self):
        traj = integrate(TRUE, default_init(), defaults.HORIZON_DAYS)
        assert (np.diff(traj.states[:, COMPARTMENTS.index("r")]) >= 0).all()
        assert (np.diff(traj.states[:, COMPARTMENTS.index("d")]) >= 0).all()
        assert (np.diff(traj.states[:, COMPARTMENTS.index("s")]) <= 0).all()

    def test_fatal_branch_bookkeeping_identity(self):
        # everyone leaving I splits by p_fatal, so at every instant
        # d + a_fatal == p_fatal * (cumulative outflow from S/E/I plus the
        # initially active pool), given the default initial split.
        traj = integrate(TRUE, default_init(), defaults.HORIZON_DAYS)
        s, e, i, a_fatal, d = (traj.states[:, COMPARTMENTS.index(k)]
                               for k in ("s", "e", "i", "a_fatal", "d"))
        lhs = d + a_fatal
        rhs = TRUE.p_fatal * (N - s - e - i)
        assert np.abs(lhs - rhs).max() <= 1e-6

    def test_final_deaths_approximate_fatality_share(self):
        traj = integrate(TRUE, default_init(), defaults.HORIZON_DAYS)
        ever_infected = N - traj.states[:, COMPARTMENTS.index("s")][-1]
        d_final = traj.states[:, COMPARTMENTS.index("d")][-1]
        assert d_final == pytest.approx(TRUE.p_fatal * ever_infected, rel=0.02)

    @pytest.mark.parametrize("horizon", [0, -3, 2.5])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError):
            integrate(TRUE, default_init(), horizon)

    @pytest.mark.parametrize("dt", [0.0, -0.1, 1.5])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            integrate(TRUE, default_init(), 10, dt=dt)

    def test_negative_init_rejected(self):
        bad = np.array([1e6, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ParameterDomainError, match="init.e must be >= 0"):
            integrate(TRUE, bad, 10)

    def test_population_must_be_positive(self):
        empty = np.zeros(7)
        with pytest.raises(ParameterDomainError, match="initial state has no population"):
            integrate(TRUE, empty, 10)

    def test_divergence_guard_clamps_noise(self):
        values = (1.0, -1e-12, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert _check_day(3, values) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_divergence_guard_rejects_real_dip(self):
        values = (1.0, -1e-6, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DivergenceError, match=r"e=.* day 7"):
            _check_day(7, values)

    def test_divergence_guard_rejects_nan(self):
        values = (1.0, 0.0, float("nan"), 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DivergenceError, match="day 2"):
            _check_day(2, values)


def _outcome(solve):
    """The bytes of a solve's states, or the message it diverged with."""
    try:
        return "states", solve().tobytes()
    except DivergenceError as error:
        return "diverged", str(error)


search_params = st.builds(
    ModelParams,
    **{name: st.floats(lo, hi) for name, (lo, hi) in defaults.SEARCH_BOUNDS.items()},
)

# Found by bisecting beta (beyond the search box) until one compartment ends a
# day inside the clamp band (-NEGATIVE_CLAMP, 0): (params, population, dt,
# day on which the clamp fires, horizon, divergence message or None).
CLAMP_CASES = [
    (ModelParams(beta=10.405948101752564, t_inc=1.412740069786893,
                 t_inf=2.7078885806229396, t_recov=10.091272826344765,
                 t_fatal=4.307021204512595, p_fatal=0.6331843992741164,
                 e0=4.837179762468383, i0=3.4153241115481263),
     368.5524752432372, 1.0, 3, 40, None),
    (ModelParams(beta=33.151001567530955, t_inc=2.553843960924553,
                 t_inf=1.5709773081978249, t_recov=1.809945603243822,
                 t_fatal=1.8698610679933805, p_fatal=0.6038055172624386,
                 e0=0.5631642755565913, i0=0.0995537441871075),
     21477.704197873303, 0.5, 5, 40, None),
    (ModelParams(beta=45.74963516610402, t_inc=2.7427496364176553,
                 t_inf=7.802613772341572, t_recov=8.328665260655306,
                 t_fatal=17.540185769829414, p_fatal=0.4980560549172479,
                 e0=3.462590659149867, i0=1.6951268732465503),
     1233.9967494479577, 0.5, 2, 10,
     "e=-2.8215701532104443e+18 fell below zero at day 3"),
]

RAISE_CASES = [
    (ModelParams(beta=38.35751720680286, t_inc=7.525530087421712,
                 t_inf=2.9642151278151507, t_recov=2.5767517692917634,
                 t_fatal=1.024796758188872, p_fatal=0.6457208955749478,
                 e0=3.5995469175434653, i0=4.177846082501371),
     491.2097338001176, 0.5, "e=-196.79752581978633 fell below zero at day 5"),
    (TRUE.replace(beta=1e300), N, 1.0, "non-finite s=nan at day 1"),
]


@pytest.mark.usefixtures("day_loop")
class TestKernelBitIdentity:
    """integrate reproduces the closure-based reference RK4 byte for byte."""

    DAY_LOOP = "c"

    # TestKernelBitIdentityPythonLoop runs this on the other day loop, which
    # Hypothesis sees as a second executor of the same test
    @given(params=search_params, dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
           horizon=st.integers(1, 120))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_matches_reference(self, params, dt, horizon):
        init = default_init(params)
        got = _outcome(lambda: integrate(params, init, horizon, dt).states)
        want = _outcome(lambda: integrate_reference(params, init, horizon, dt))
        assert got == want

    @pytest.mark.parametrize("params, population, dt, clamp_day, horizon, message",
                             CLAMP_CASES)
    def test_clamp_during_integration(self, params, population, dt, clamp_day,
                                      horizon, message, monkeypatch):
        init = build_initial_state(params, population, defaults.INIT_OBSERVED)
        clamped = []
        want = _outcome(lambda: integrate_reference(params, init, horizon, dt,
                                                    on_clamp=clamped.append))
        assert clamped == [clamp_day]
        checked = []

        def spy(day, values):
            checked.append(day)
            return _check_day(day, values)

        monkeypatch.setattr(dynamics_module, "_check_day", spy)
        got = _outcome(lambda: integrate(params, init, horizon, dt).states)
        assert got == want
        assert clamp_day in checked
        if message is None:
            row = integrate(params, init, clamp_day, dt).states[clamp_day]
            assert row.min() == 0.0
        else:
            assert got == ("diverged", message)

    @pytest.mark.parametrize("params, population, dt, message", RAISE_CASES)
    def test_divergence_during_integration(self, params, population, dt, message):
        init = build_initial_state(params, population, defaults.INIT_OBSERVED)
        got = _outcome(lambda: integrate(params, init, 40, dt).states)
        want = _outcome(lambda: integrate_reference(params, init, 40, dt))
        assert got == want == ("diverged", message)


class TestIntegratePythonLoop(TestIntegrate):
    """TestIntegrate on the Python day loop, the one that runs without a C
    compiler."""

    DAY_LOOP = "python"


class TestKernelBitIdentityPythonLoop(TestKernelBitIdentity):
    """TestKernelBitIdentity on the Python day loop."""

    DAY_LOOP = "python"


def _python_outcome(solve):
    """_outcome of a solve run on the Python day loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics_module, "_c_day_loop", lambda: None)
        return _outcome(solve)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty directory that a fresh _c_day_loop builds into and loads
    from; the process's own loop is loaded again after the test."""
    directory = tmp_path / "cache"
    monkeypatch.setattr(dynamics_module, "_cache_dirs", lambda: [directory])
    dynamics_module._c_day_loop.cache_clear()
    yield directory
    dynamics_module._c_day_loop.cache_clear()


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


class TestCompiledLoop:
    """The C day loop of _rk4.c: built once, cached, used only when it
    gives the Python loop's bytes."""

    def test_in_use_where_cc_exists(self):
        # a silent fallback would only make every solve slower
        if shutil.which("cc") is not None:
            assert dynamics_module._c_day_loop() is not None

    @needs_cc
    @given(params=search_params, dt=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
           horizon=st.integers(1, 400), population=st.floats(100.0, 1e8),
           observed=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 30.0),
                              st.floats(0.0, 10.0)),
           fraction=st.none() | st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_as_python_loop(self, params, dt, horizon, population,
                                       observed, fraction):
        init = build_initial_state(params, population, observed, fraction)
        got = _outcome(lambda: integrate(params, init, horizon, dt).states)
        assert got == _python_outcome(
            lambda: integrate(params, init, horizon, dt).states)

    @needs_cc
    @pytest.mark.parametrize("value", [-1e-12, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("k", range(7))
    def test_day_check_of_every_compartment(self, k, value):
        # compartment k starts outside the day check and nothing flows, so
        # it is still there at the end of day 1; integrate rejects such a
        # start, so the two loops are called directly
        init = [1000.0, 0.0, 0.0, 0.0, 0.0, 5.0, 1.0]
        init[k] = value
        loop = dynamics_module._c_day_loop()
        got = _outcome(lambda: dynamics_module._c_days(loop, TRUE, init, 1006.0, 3, 4))
        want = _outcome(lambda: dynamics_module._python_days(TRUE, init, 1006.0, 3, 4))
        assert got == want
        assert (want[0] == "diverged") == (value != -1e-12)

    @needs_cc
    def test_faulty_source_is_refused(self, cache_dir, tmp_path, monkeypatch):
        source = dynamics_module.KERNEL_SOURCE.read_text()
        assert source.count("h / 6.0;") == 1
        faulty = tmp_path / "_rk4.c"
        faulty.write_text(source.replace("h / 6.0;", "h / 6.0001;"))
        monkeypatch.setattr(dynamics_module, "KERNEL_SOURCE", faulty)
        with pytest.warns(RuntimeWarning, match="bit for bit"):
            states = integrate(TRUE, default_init(), 28).states
        assert len(list(cache_dir.glob("_rk4-*.so"))) == 1
        assert dynamics_module._c_day_loop() is None
        assert states.tobytes() == integrate_reference(
            TRUE, default_init(), 28, 0.1).tobytes()

    @needs_cc
    def test_second_load_runs_no_compiler(self, cache_dir, monkeypatch):
        assert dynamics_module._c_day_loop() is not None
        assert len(list(cache_dir.glob("_rk4-*.so"))) == 1
        dynamics_module._c_day_loop.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"ran {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert dynamics_module._c_day_loop() is not None

    @needs_cc
    def test_build_failure_warns_once(self, cache_dir, tmp_path, monkeypatch):
        broken = tmp_path / "_rk4.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(dynamics_module, "KERNEL_SOURCE", broken)
        with pytest.warns(RuntimeWarning, match="could not build"):
            first = integrate(TRUE, default_init(), 20).states
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = integrate(TRUE, default_init(), 20).states
        assert first.tobytes() == second.tobytes()
        assert not list(cache_dir.iterdir())

    def test_no_compiler_falls_back_silently(self, cache_dir, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = integrate(TRUE, default_init(), 20).states
        assert dynamics_module._c_day_loop() is None
        assert states.tobytes() == integrate_reference(
            TRUE, default_init(), 20, 0.1).tobytes()
        assert not cache_dir.exists()

    @needs_cc
    def test_unwritable_first_directory_falls_to_the_next(self, tmp_path):
        package = tmp_path / "package"
        package.write_text("")          # a file, so nothing can be made below it
        user = tmp_path / "home" / ".cache" / "seiard"
        command = [shutil.which("cc"), *dynamics_module.KERNEL_FLAGS]
        source = dynamics_module.KERNEL_SOURCE.read_bytes()
        library = dynamics_module._build(source, command,
                                         [package / "__pycache__", user])
        assert library.parent == user
        assert user.stat().st_mode & 0o777 == 0o700
        assert [p.name for p in user.iterdir()] == [library.name]
        # the same source and command find the same file
        assert dynamics_module._build(source, command, [user]) == library
        assert dynamics_module._build(source + b"\n", command, [user]) != library

    def test_user_cache_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        package_dir, user_dir = dynamics_module._cache_dirs()
        assert package_dir == dynamics_module.KERNEL_SOURCE.with_name("__pycache__")
        assert user_dir == tmp_path / ".cache" / "seiard"


def _assert_matches_integrate(params, scenario, horizon):
    """simulate_observed against observe(integrate(...)) from the scenario's
    fields: the same bytes, or the same DivergenceError message.  Returns
    that outcome."""
    init = build_initial_state(params, scenario.population_n,
                               scenario.init_observed, scenario.a0_fatal_fraction)
    got = _outcome(lambda: simulate_observed(params, scenario, horizon).values)
    want = _outcome(lambda: observe(integrate(params, init, horizon, scenario.dt)).values)
    assert got == want
    return got


class TestBatchKernel:
    """simulate_observed, the one path from parameters to observed series,
    gives observe(integrate(...)) on both day loops and through the day
    check's clamp and raise cases.  The class keeps the name of the batch
    kernel these checks were written for."""

    @given(params=search_params, dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
           horizon=st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_columns_match_integrate(self, params, dt, horizon):
        _assert_matches_integrate(params, default_config(dt=dt), horizon)

    @pytest.mark.parametrize("dt", [0.5, 1.0])
    def test_mixed_batch_with_clamps_and_divergences(self, dt):
        # each clamp or raise case fires at its own dt; at the other dt it is
        # one more vector that must still match
        for case in [*CLAMP_CASES, *RAISE_CASES]:
            params, population, case_dt = case[:3]
            message = case[-1]
            scenario = default_config(population_n=population, dt=dt)
            for finite in (TRUE, TRUE.replace(beta=0.0)):
                assert _assert_matches_integrate(finite, scenario, 40)[0] == "states"
            outcome = _assert_matches_integrate(params, scenario, 40)
            if case_dt == dt:
                assert (outcome[0] == "states" if message is None
                        else outcome == ("diverged", message))

    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_crossover_changes_no_bytes(self, dt, monkeypatch):
        # the compiled and the Python day loop give each vector the same bytes
        # or the same divergence message
        rng = np.random.default_rng(3)
        params = [ModelParams(**{name: float(rng.uniform(lo, hi))
                                 for name, (lo, hi) in defaults.SEARCH_BOUNDS.items()})
                  for _ in range(12)]
        params[4] = TRUE.replace(beta=1e300)
        scenario = default_config(a0_fatal_fraction=0.5, dt=dt, population_n=2e6)
        outcomes = []
        for loop in (dynamics_module._c_day_loop, lambda: None):
            monkeypatch.setattr(dynamics_module, "_c_day_loop", loop)
            outcomes.append([_outcome(lambda: simulate_observed(p, scenario, 40).values)
                             for p in params])
        assert outcomes[0] == outcomes[1]
        assert [kind for kind, _ in outcomes[0]] == [
            "diverged" if b == 4 else "states" for b in range(12)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simulate_observed(TRUE, default_config(), 0)
        with pytest.raises(ParameterDomainError):
            simulate_observed(TRUE, default_config(population_n=5.0), 10)


class TestObserve:
    def test_mapping_identities(self):
        traj = integrate(TRUE, default_init(), 50)
        obs = observe(traj)
        a_recov, a_fatal, r, d = (traj.states[:, COMPARTMENTS.index(k)]
                                  for k in ("a_recov", "a_fatal", "r", "d"))
        assert (obs.series("active") == a_recov + a_fatal).all()
        assert (obs.series("recovered") == r).all()
        assert (obs.series("deceased") == d).all()
        assert (obs.series("total") == obs.series("active") + obs.series("recovered")
                + obs.series("deceased")).all()

    def test_single_state_observation(self):
        state = np.array([100.0, 9.0, 8.0, 5.0, 2.0, 11.0, 3.0])
        traj = integrate(TRUE, state, 1)
        obs = observe(traj)
        assert obs.series("active")[0] == 7.0
        assert obs.series("recovered")[0] == 11.0
        assert obs.series("deceased")[0] == 3.0
        assert obs.series("total")[0] == 21.0

    def test_scenario_day_zero(self):
        obs = observe(integrate(TRUE, default_init(), 10))
        assert (obs.series("active")[0], obs.series("recovered")[0],
                obs.series("deceased")[0], obs.series("total")[0]) == (5.0, 0.0, 0.0, 5.0)

    def test_windowl_slicing(self):
        obs = observe(integrate(TRUE, default_init(), 50))
        win = obs.window(10, 20)
        assert win.times.tolist() == list(range(10, 21))
        assert (win.series("active") == obs.series("active")[10:21]).all()
        with pytest.raises(ValueError):
            obs.window(10, 60)

    def test_csv_round_trip(self, tmp_path):
        obs = observe(integrate(TRUE, default_init(), 30))
        path = tmp_path / "observed.csv"
        obs.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "active", "recovered", "deceased", "total"]
        back = np.array(rows[1:], dtype=float)
        want = np.column_stack([obs.times, obs.series("active"), obs.series("recovered"),
                                obs.series("deceased"), obs.series("total")])
        assert back.tobytes() == want.tobytes()


class TestInitialState:
    def test_active_pool_split_by_fatality(self):
        init = build_initial_state(TRUE, N, (5.0, 0.0, 0.0))
        assert init.shape == (len(COMPARTMENTS),)
        s, e, i, a_recov, a_fatal, r, d = init
        assert a_fatal == pytest.approx(0.15)
        assert a_recov == pytest.approx(4.85)
        assert e == 1.0 and i == 1.0
        assert s == N - 7.0
        assert r == 0.0 and d == 0.0
        assert init.sum() == pytest.approx(N)

    def test_split_override(self):
        init = build_initial_state(TRUE, N, (10.0, 0.0, 0.0), a0_fatal_fraction=0.5)
        assert init[3] == 5.0 and init[4] == 5.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ParameterDomainError):
            build_initial_state(TRUE, N, (-1.0, 0.0, 0.0))
        with pytest.raises(ParameterDomainError):
            build_initial_state(TRUE, N, (5.0, 0.0, 0.0), a0_fatal_fraction=1.5)
        with pytest.raises(ParameterDomainError):
            build_initial_state(TRUE, 5.0, (5.0, 0.0, 0.0))

