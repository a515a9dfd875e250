"""Command-line pipeline: config handling, artifact layout, exit codes, and
byte-stable manifest reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seiard import defaults, runconfig
from seiard.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from seiard.mcmc import run_chains
from seiard.optimize import SearchSpace
from seiard.runconfig import ConfigError


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults_validate(self):
        config = runconfig.load_config()
        runconfig.validate(config)

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"no_such_section": 1}')
        with pytest.raises(ConfigError, match="no_such_section"):
            runconfig.load_config(path)

    def test_manifest_unwrapped(self, tmp_path):
        manifest = {"command": "simulate",
                    "config": runconfig.resolve_config(runconfig.load_config())}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        config = runconfig.load_config(path)
        assert config["dataset"]["seed"] == manifest["config"]["dataset"]["seed"]

    def test_set_parses_json_and_strings(self):
        config = runconfig.load_config()
        runconfig.apply_set(config, "mcmc.n_samples=4000")
        runconfig.apply_set(config, "variant=original")
        runconfig.apply_set(config, 'profile.params=["beta","p_fatal"]')
        runconfig.apply_set(config, "pins.t_inc=5.0")
        assert config["mcmc"]["n_samples"] == 4000
        assert config["variant"] == "original"
        assert config["profile"]["params"] == ["beta", "p_fatal"]
        assert config["pins"]["t_inc"] == 5.0

    @pytest.mark.parametrize("assignment", [
        "mcmc.nope=1", "nope=1", "noequals", "window.0=1", "pins.t_inc.x=1",
    ])
    def test_set_rejects_bad_paths(self, assignment):
        config = runconfig.load_config()
        with pytest.raises(ConfigError):
            runconfig.apply_set(config, assignment)

    def test_validate_rejects(self):
        for assignment, match in [
            ("variant=neither", "variant"),
            ("window=[10,5]", "window"),
            ("window=[0,900]", "horizon"),
            ("fit.method=annealing", "method"),
            ("profile.threshold=magic", "threshold"),
            ('profile.params=["t_inc"]', "not free"),
            ("pins.zeta=1.0", "unknown parameter"),
            ("threads=0", "threads"),
            ('threads="2"', "threads"),
            ("window=5", "window"),
            ('window=["a","b"]', "window"),
            ('profile.params="beta"', "list of names"),
            ("forecast.horizons=5", "forecast.horizons"),
            ("forecast.seeds=5", "forecast.seeds"),
            ("profile.windows=5", "profile.windows"),
            ("dataset.init_observed=5", "init_observed"),
            ("report.times=5", "report.times"),
            ("report.params=5", "report.params"),
            ('report.params={"bogus":1}', "report.params"),
            ('dataset.true_params={"beta":0.3}', "dataset.true_params"),
            ("fit.budget=[1]", "fit.budget"),
            ("profile.grid_points=[3]", "profile.grid_points"),
            ("report.rel_step=[1]", "report.rel_step"),
            ("dataset.horizon=[5]", "dataset.horizon"),
            ("pins.beta=[1]", "pins"),
            ("mcmc.proposal_variances.beta=[1]", "mcmc.proposal_variances"),
            ("fit.budget=1.5", "fit.budget"),
            ("master_seed=[1]", "master_seed"),
            ("profile.warm_start=[1]", "profile.warm_start"),
            ("profile.warm_start=1", "profile.warm_start"),
            ("mcmc.n_samples=true", "mcmc.n_samples"),
            ('dataset.seed="4"', "dataset.seed"),
            ('dataset.a0_fatal_fraction="x"', "a0_fatal_fraction"),
            ("fit=5", "fit"),
            ("window=[false,5]", "window"),
            ("forecast.horizons=[true]", "forecast.horizons"),
            ("profile.alpha=1.5", "profile.alpha"),
            ("profile.alpha=0", "profile.alpha"),
            ("profile.alpha=1", "profile.alpha"),
            ("profile.grid_points=3", "profile.grid_points"),
            ("profile.grid_points=4", "profile.grid_points"),
        ]:
            config = runconfig.load_config()
            runconfig.apply_set(config, assignment)
            with pytest.raises(ConfigError, match=match):
                runconfig.validate(config)

    def test_component_seeds_stable_and_distinct(self):
        a = runconfig.component_seed(0, "synthdata")
        assert a == runconfig.component_seed(0, "synthdata")
        assert a != runconfig.component_seed(0, "mcmc")
        assert a != runconfig.component_seed(1, "synthdata")

    def test_resolve_fills_every_seed(self):
        resolved = runconfig.resolve_config(runconfig.load_config())
        for section in ("dataset", "fit", "profile", "mcmc"):
            assert isinstance(resolved[section]["seed"], int)
        assert resolved["forecast"]["seeds"] == [resolved["dataset"]["seed"]]


class TestSimulate:
    def test_writes_one_row_per_day(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", str(out)) == EXIT_OK
        rows = (out / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + defaults.HORIZON_DAYS + 1  # header + days 0..400
        assert rows[0] == "t,active,recovered,deceased,total"
        sidecar = read_json(out / "dataset.json")
        assert sidecar["horizon"] == defaults.HORIZON_DAYS

    def test_seed_repeat_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ("--set", "dataset.sigma_noise=0.05", "--set", "dataset.seed=4")
        assert run_cli("simulate", "--out", str(a), *args) == EXIT_OK
        assert run_cli("simulate", "--out", str(b), *args) == EXIT_OK
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()

    def test_window_beyond_horizon_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path / "r"),
                       "--set", "dataset.horizon=0")
        assert code == EXIT_USAGE


class TestFit:
    def test_malformed_window_is_usage_error(self, tmp_path):
        code = run_cli("fit", "--out", str(tmp_path / "r"), "--set", "window=5")
        assert code == EXIT_USAGE

    def test_reparam_noiseless_fit_is_tight(self, tmp_path):
        out = tmp_path / "fit"
        code = run_cli("fit", "--out", str(out), "--set", "fit.seed=1")
        assert code == EXIT_OK
        report = read_json(out / "fit.json")
        assert report["best_loss"] < 0.5
        assert report["pinned"] == dict(defaults.REPARAM_PINS)
        for name, value in defaults.REPARAM_PINS.items():
            assert report["best_params"][name] == value
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 + report["budget"]

    def test_original_variant_has_eight_free(self, tmp_path):
        out = tmp_path / "fit8"
        code = run_cli("fit", "--out", str(out), "--set", "variant=original",
                       "--set", "fit.budget=40", "--set", "fit.seed=0")
        assert code == EXIT_OK
        report = read_json(out / "fit.json")
        assert report["pinned"] == {}
        assert len(report["best_params"]) == 8


FAST_PROFILE = ("--set", "profile.inner_budget=40",
                "--set", "profile.grid_points=7",
                "--set", "profile.seed=3")


class TestProfile:
    def test_single_window_writes_one_curve(self, tmp_path):
        out = tmp_path / "prof"
        assert run_cli("profile", "--out", str(out), *FAST_PROFILE) == EXIT_OK
        payload = read_json(out / "pl_beta.json")
        assert len(payload["grid"]) == 7
        assert payload["interval"]["alpha"] == 0.95
        assert payload["verdict"] in ("identifiable", "non-identifiable",
                                      "inconclusive")
        assert not (out / "pl_beta_widths.json").exists()

    def test_window_sweep_writes_widths(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("profile", "--out", str(out), *FAST_PROFILE,
                       "--set", "profile.windows=[14,28]")
        assert code == EXIT_OK
        widths = read_json(out / "pl_beta_widths.json")["width_by_window"]
        assert sorted(widths) == ["14", "28"]
        assert (out / "pl_beta_w14.csv").exists()
        assert (out / "pl_beta_w28.json").exists()

    def test_posterior_threshold_mode_runs(self, tmp_path):
        out = tmp_path / "post"
        code = run_cli("profile", "--out", str(out), *FAST_PROFILE,
                       "--set", "dataset.sigma_noise=0.05",
                       "--set", "profile.threshold=posterior",
                       "--set", "mcmc.n_samples=600",
                       "--set", "mcmc.n_burn=100",
                       "--set", "mcmc.thin=5",
                       "--set", "mcmc.n_chains=1",
                       "--set", "mcmc.seed=2")
        assert code == EXIT_OK
        payload = read_json(out / "pl_beta.json")
        assert payload["interval"]["threshold"] >= min(payload["profiled_loss"])

    def test_posterior_threshold_chains_run_once_per_window(self, tmp_path,
                                                             monkeypatch):
        import seiard.cli as cli_module

        calls = []

        def counting_run_chains(*args, **kwargs):
            calls.append(args[1].window)
            return run_chains(*args, **kwargs)

        posterior = ("--set", "dataset.sigma_noise=0.05",
                     "--set", "profile.threshold=posterior",
                     "--set", "mcmc.n_samples=300", "--set", "mcmc.n_burn=50",
                     "--set", "mcmc.thin=5", "--set", "mcmc.n_chains=1",
                     "--set", "mcmc.seed=2")
        monkeypatch.setattr(cli_module, "run_chains", counting_run_chains)
        single = tmp_path / "single"
        for param in ("beta", "p_fatal"):
            assert run_cli("profile", "--out", str(single / param), *FAST_PROFILE,
                           *posterior, "--set", f'profile.params=["{param}"]') == EXIT_OK
        assert len(calls) == 2
        calls.clear()

        both = tmp_path / "both"
        assert run_cli("profile", "--out", str(both), *FAST_PROFILE, *posterior,
                       "--set", 'profile.params=["beta","p_fatal"]') == EXIT_OK
        assert len(calls) == 1
        for param in ("beta", "p_fatal"):
            got = read_json(both / f"pl_{param}.json")["interval"]
            want = read_json(single / param / f"pl_{param}.json")["interval"]
            assert got == want

    def test_warm_start_recorded_and_threads_leave_curves(self, tmp_path,
                                                           capsys):
        out = tmp_path / "one"
        assert run_cli("profile", "--out", str(out), *FAST_PROFILE,
                       "--set", "profile.windows=[14]") == EXIT_OK
        assert read_json(out / "pl_beta_w14.json")["warm_start"] is True
        assert read_json(out / "pl_beta_widths.json")["warm_start"] is True

        one, two = tmp_path / "threads1", tmp_path / "threads2"
        for out, threads in ((one, "1"), (two, "2")):
            assert run_cli("profile", "--out", str(out), *FAST_PROFILE,
                           "--threads", threads) == EXIT_OK
        assert capsys.readouterr().err == ""
        for name in ("pl_beta.csv", "pl_beta.json"):
            assert (two / name).read_bytes() == (one / name).read_bytes()
        assert read_json(two / "pl_beta.json")["warm_start"] is True

        out = tmp_path / "off"
        assert run_cli("profile", "--out", str(out), *FAST_PROFILE,
                       "--set", "profile.warm_start=false",
                       "--threads", "2") == EXIT_OK
        assert capsys.readouterr().err == ""
        assert read_json(out / "pl_beta.json")["warm_start"] is False

    def test_unknown_param_is_usage_error(self, tmp_path):
        code = run_cli("profile", "--out", str(tmp_path / "r"),
                       "--set", 'profile.params=["zeta"]')
        assert code == EXIT_USAGE


MCMC_FAST = ("--set", "dataset.sigma_noise=0.05",
             "--set", "mcmc.n_samples=900", "--set", "mcmc.n_burn=100",
             "--set", "mcmc.thin=4", "--set", "mcmc.seed=7")


class TestMcmc:
    def test_artifacts_and_diagnostics(self, tmp_path):
        out = tmp_path / "mc"
        code = run_cli("mcmc", "--out", str(out), *MCMC_FAST,
                       "--set", "mcmc.n_chains=2")
        assert code == EXIT_OK
        posterior = read_json(out / "posterior.json")
        free = set(SearchSpace(dict(defaults.SEARCH_BOUNDS),
                               pinned=defaults.REPARAM_PINS).free_names)
        assert set(posterior["params"]) == free
        for name in free:
            assert posterior["params"][name]["rhat"] is not None
        intervals = read_json(out / "hpdi.json")
        assert set(intervals) == free
        assert (out / "chains_0.csv").exists()
        assert (out / "chains_1.csv").exists()

    def test_original_correlation_matrix_is_8x8(self, tmp_path):
        out = tmp_path / "mc8"
        code = run_cli("mcmc", "--out", str(out), *MCMC_FAST,
                       "--set", "variant=original",
                       "--set", "mcmc.n_chains=1")
        assert code == EXIT_OK
        rows = (out / "correlation.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 8
        assert len(rows[1].split(",")) == 1 + 8
        posterior = read_json(out / "posterior.json")
        assert posterior["params"]["beta"]["rhat"] is None  # single chain


class TestReport:
    def test_reparam_screen_verdict(self, tmp_path):
        out = tmp_path / "rep"
        code = run_cli("report", "--out", str(out),
                       "--set", "report.times=[1,7,14,21,28]")
        assert code == EXIT_OK
        payload = read_json(out / "sensitivity.json")
        assert payload["numeric_rank"] == 5
        assert payload["classification"]["verdict"] == "identifiable"
        assert payload["evidence"] == "local numeric evidence"

    def test_original_screen_flags_entanglement(self, tmp_path):
        out = tmp_path / "rep8"
        code = run_cli("report", "--out", str(out),
                       "--set", "variant=original",
                       "--set", "report.times=[1,7,14,21,28]")
        assert code == EXIT_OK
        payload = read_json(out / "sensitivity.json")
        assert len(payload["free_names"]) == 8
        classification = payload["classification"]
        assert classification["verdict"] != "identifiable"
        assert classification["entangled"]


class TestForecastEval:
    def test_in_sample_edge_and_table(self, tmp_path):
        out = tmp_path / "fc"
        code = run_cli("forecast-eval", "--out", str(out),
                       "--set", "dataset.sigma_noise=0.05",
                       "--set", "forecast.horizons=[28,53]",
                       "--set", "forecast.seeds=[1,2]",
                       "--set", "forecast.budget=80")
        assert code == EXIT_OK
        rows = (out / "forecast.csv").read_text().strip().splitlines()
        assert rows[0] == "horizon,reparam,original"
        assert len(rows) == 3
        payload = read_json(out / "forecast.json")
        for variant in ("reparam", "original"):
            for seed in ("1", "2"):
                entry = payload["per_seed"][variant][seed]
                # at the last training day the total-series error is the same
                # kind of quantity as the training loss, just one series
                assert entry["mape"]["28"] < 5 * max(entry["fit_loss"], 1.0)

    def test_empty_horizons_usage_error(self, tmp_path):
        code = run_cli("forecast-eval", "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE

    def test_horizon_outside_dataset_usage_error(self, tmp_path):
        code = run_cli("forecast-eval", "--out", str(tmp_path / "r"),
                       "--set", "forecast.horizons=[500]")
        assert code == EXIT_USAGE


class TestManifestRerun:
    def test_simulate_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "sim"
        args = ("--set", "dataset.sigma_noise=0.05", "--set", "dataset.seed=9")
        assert run_cli("simulate", "--out", str(out), *args) == EXIT_OK
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("simulate", "--config", str(out / "manifest.json")) == EXIT_OK
        for name, blob in snapshot.items():
            assert (out / name).read_bytes() == blob, name

    def test_profile_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "prof"
        assert run_cli("profile", "--out", str(out), *FAST_PROFILE,
                       "--set", "dataset.sigma_noise=0.05") == EXIT_OK
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("profile", "--config", str(out / "manifest.json")) == EXIT_OK
        for name, blob in snapshot.items():
            assert (out / name).read_bytes() == blob, name


class TestEntryPoint:
    def test_module_invocation_and_exit_codes(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "seiard.cli", "simulate",
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True)
        assert result.returncode == EXIT_OK
        result = subprocess.run(
            [sys.executable, "-m", "seiard.cli", "no-such-command"],
            capture_output=True, text=True)
        assert result.returncode == EXIT_USAGE

    def test_missing_config_file_usage_error(self, tmp_path):
        code = run_cli("simulate", "--config", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE

    def test_import_leaves_scipy_stats_optimize_linalg_out(self):
        # scipy.stats and scipy.optimize (which loads scipy.linalg) each cost
        # a quarter to half a second of every start-up; the C day loop is
        # built and loaded on the first solve, not at import
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        heavy = ("scipy.stats", "scipy.optimize", "scipy.linalg")
        probe = (
            "import ctypes, subprocess, sys\n"
            "calls = []\n"
            "def refuse(*args, **kwargs):\n"
            "    calls.append(args)\n"
            "    raise OSError('refused')\n"
            "subprocess.Popen = ctypes.CDLL = refuse\n"
            "import seiard.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules], calls,\n"
            "      sys.modules['seiard.dynamics']._c_day_loop.cache_info().currsize)\n")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == "[] [] 0"

    def test_bad_threads_usage_error(self, tmp_path):
        code = run_cli("report", "--out", str(tmp_path / "r"), "--threads", "0")
        assert code == EXIT_USAGE

    def test_bad_threads_in_config_usage_error(self, tmp_path):
        # the flag, --set and a config file all meet the same check
        path = tmp_path / "cfg.json"
        path.write_text('{"threads": 0}')
        for argv in (["--set", "threads=0"], ["--config", str(path)]):
            out = tmp_path / argv[0].lstrip("-")
            assert run_cli("report", "--out", str(out), *argv) == EXIT_USAGE
            assert not (out / "manifest.json").exists()
