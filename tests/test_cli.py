"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: Every analysis subcommand shares the common flag set (--seed,
#: --days/--full, --cache-dir, --no-cache).
ANALYSIS_COMMANDS = (
    "simulate",
    "figures",
    "observations",
    "fleet-health",
    "calibration",
    "degradation",
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.seed == 20131001
        assert not args.full

    def test_figures_outdir(self, tmp_path):
        args = build_parser().parse_args(
            ["figures", "--outdir", str(tmp_path)]
        )
        assert args.outdir == tmp_path

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_corrupt_defaults(self, tmp_path):
        args = build_parser().parse_args(["corrupt", str(tmp_path / "x.log")])
        assert args.rate == 0.01
        assert args.out is None
        assert args.outages == 0

    def test_degradation_defaults(self):
        args = build_parser().parse_args(["degradation"])
        assert args.fail_level is None
        assert args.budget == 0.05

    def test_simulate_chaos_rate_default_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.chaos_rate == 0.0


class TestCommands:
    """Each command runs end-to-end on a small window."""

    ARGS = ["--days", "30", "--seed", "77"]

    def test_simulate_writes_log(self, tmp_path, capsys):
        log = tmp_path / "console.log"
        nvsmi = tmp_path / "nvsmi.csv"
        rc = main(["simulate", *self.ARGS, "--log-out", str(log),
                   "--nvsmi-out", str(nvsmi)])
        assert rc == 0
        assert log.exists() and log.stat().st_size > 1000
        assert "GPU XID" in log.read_text()[:5000]
        header = nvsmi.read_text().splitlines()[0]
        assert header == "slot,sbe,dbe,retired_pages,temp_c"

    def test_figures_prints_tables(self, tmp_path, capsys):
        rc = main(["figures", *self.ARGS, "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GPU Error" in out
        assert "Fig. 2" in out
        assert (tmp_path / "fig02.csv").exists()

    def test_observations_scorecard(self, capsys):
        rc = main(["observations", "--days", "90", "--seed", "20131001"])
        out = capsys.readouterr().out
        assert "observation checks pass" in out
        assert rc == 0

    def test_fleet_health(self, capsys):
        rc = main(["fleet-health", *self.ARGS, "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger anomalies" in out
        assert out.count("c") > 3  # cnames printed


class TestChaosCommands:
    """The corruption/degradation commands run end to end."""

    def test_corrupt_is_deterministic(self, tmp_path, capsys):
        log = tmp_path / "console.log"
        rc = main(["simulate", "--days", "10", "--seed", "77",
                   "--log-out", str(log)])
        assert rc == 0
        rc = main(["corrupt", str(log), "--rate", "0.05", "--seed", "5"])
        assert rc == 0
        first = (tmp_path / "console.log.corrupt").read_text()
        again = tmp_path / "again.log"
        rc = main(["corrupt", str(log), "--rate", "0.05", "--seed", "5",
                   "--out", str(again)])
        assert rc == 0
        assert again.read_text() == first  # byte-identical replay
        assert first != log.read_text()
        out = capsys.readouterr().out
        assert "corrupted" in out

    def test_corrupt_missing_file(self, tmp_path, capsys):
        rc = main(["corrupt", str(tmp_path / "nope.log")])
        assert rc == 2

    def test_simulate_chaos_rate(self, tmp_path, capsys):
        log = tmp_path / "chaos.log"
        rc = main(["simulate", "--days", "10", "--seed", "77",
                   "--chaos-rate", "0.02", "--log-out", str(log)])
        assert rc == 0
        assert "chaos: corrupted" in capsys.readouterr().out
        assert log.exists()

    def test_degradation_sweep(self, capsys):
        rc = main(["degradation", "--days", "20", "--seed", "77",
                   "--levels", "0,0.01", "--fail-level", "0.01"])
        out = capsys.readouterr().out
        assert "scorecard stable" in out
        assert "flips" in out
        assert rc == 0


class TestCalibrationCommand:
    def test_calibration_passes(self, capsys):
        rc = main(["calibration", "--days", "45", "--seed", "20131001"])
        out = capsys.readouterr().out
        assert "calibration checks pass" in out
        assert rc == 0


class TestCacheFlags:
    """Every analysis subcommand takes --seed/--cache-dir consistently."""

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_seed_and_cache_dir_accepted(self, command, tmp_path):
        args = build_parser().parse_args(
            [command, "--seed", "5", "--cache-dir", str(tmp_path)]
        )
        assert args.seed == 5
        assert args.cache_dir == tmp_path
        assert not args.no_cache

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_no_cache_accepted(self, command):
        args = build_parser().parse_args([command, "--no-cache"])
        assert args.no_cache
        assert args.cache_dir is None

    def test_observations_warm_run_identical(self, tmp_path, capsys):
        # rc is data-dependent on a short window (nonzero when a check
        # fails); the contract is cold and warm agree *exactly*.
        argv = ["observations", "--days", "30", "--seed", "77",
                "--cache-dir", str(tmp_path / "store")]
        rc_cold = main(argv)
        cold = capsys.readouterr().out
        assert "cache: miss (simulated, persisted)" in cold
        rc_warm = main(argv)
        warm = capsys.readouterr().out
        assert "cache: hit (warm)" in warm
        assert rc_warm == rc_cold

        def analysis(text):
            return [l for l in text.splitlines()
                    if not l.startswith("cache:")]

        assert analysis(warm) == analysis(cold)

    def test_no_cache_wins_over_env(self, tmp_path, capsys, monkeypatch):
        envstore = tmp_path / "envstore"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(envstore))
        main(["observations", "--days", "30", "--seed", "77", "--no-cache"])
        assert "cache:" not in capsys.readouterr().out
        assert not envstore.exists()

    def test_env_var_enables_cache(self, tmp_path, capsys, monkeypatch):
        envstore = tmp_path / "envstore"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(envstore))
        main(["observations", "--days", "30", "--seed", "77"])
        assert "cache: miss" in capsys.readouterr().out
        assert envstore.exists()

    def test_ground_truth_run_warms_store_for_analysis(self, tmp_path,
                                                       capsys):
        """fleet-health always simulates (ground truth) but persists the
        observable layers, so a later observables-only run is warm."""
        store = str(tmp_path / "store")
        rc = main(["fleet-health", "--days", "30", "--seed", "77",
                   "--cache-dir", store, "--top", "3"])
        assert rc == 0
        assert "miss (simulated, persisted)" in capsys.readouterr().out
        main(["observations", "--days", "30", "--seed", "77",
              "--cache-dir", store])
        assert "cache: hit (warm)" in capsys.readouterr().out


class TestCacheCommand:
    """python -m repro cache {info,clear,evict} end to end."""

    def _populate(self, tmp_path):
        store = str(tmp_path / "store")
        rc = main(["simulate", "--days", "20", "--seed", "77",
                   "--cache-dir", store,
                   "--log-out", str(tmp_path / "c.log")])
        assert rc == 0
        return store

    def test_info_empty_store(self, tmp_path, capsys):
        rc = main(["cache", "info", "--cache-dir", str(tmp_path), "--json"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_artifacts"] == 0
        assert info["datasets"] == []

    def test_info_clear_roundtrip(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        # Four dataset layers, the console manifest and one console shard.
        assert info["n_artifacts"] == 6
        assert len(info["datasets"]) == 1
        assert info["total_bytes"] > 0
        assert main(["cache", "clear", "--cache-dir", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 6
        assert main(["cache", "info", "--cache-dir", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_artifacts"] == 0

    def test_info_human_readable(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "artifacts    6" in out
        assert "datasets     1" in out

    def test_evict_requires_budget(self, tmp_path, capsys):
        rc = main(["cache", "evict", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "requires --max-mb" in capsys.readouterr().out

    def test_evict_to_zero(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        rc = main(["cache", "evict", "--cache-dir", store,
                   "--max-mb", "0", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["evicted"]) == 6
        assert out["total_bytes"] == 0

    def test_cache_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestRemovedOptions:
    """The result-neutral pipeline knobs are gone: passing one is a
    usage error, not a silently ignored flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--days", "3", "--streaming"], "--streaming"),
            (["sweep", "run", "--no-cache", "--streaming"], "--streaming"),
            (["profile", "--days", "3", "--parse-workers", "2"], "--parse-workers"),
        ],
    )
    def test_flag_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestFractionFlags:
    """Every fraction flag takes a value in [0, 1]; anything else is a
    usage error (exit 2), never a silently pristine run or a traceback."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--chaos-rate", "-0.5"], "--chaos-rate"),
            (["simulate", "--chaos-rate", "1.5"], "--chaos-rate"),
            (["simulate", "--chaos-rate", "nan"], "--chaos-rate"),
            (["corrupt", "x.log", "--rate", "-0.2"], "--rate"),
            (["corrupt", "x.log", "--rate", "half"], "--rate"),
            (["degradation", "--levels", "-0.1"], "--levels"),
            (["degradation", "--levels", "0,0.01,1.5"], "--levels"),
            (["degradation", "--levels", "0,x"], "--levels"),
            (["degradation", "--budget", "1.5"], "--budget"),
            (["degradation", "--budget", "-0.01"], "--budget"),
            (["degradation", "--fail-level", "-0.5"], "--fail-level"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_bounds_are_inclusive(self):
        args = build_parser().parse_args(
            ["degradation", "--levels", "0, 0.5 ,1", "--budget", "1"]
        )
        assert args.levels == (0.0, 0.5, 1.0)
        assert args.budget == 1.0
        assert build_parser().parse_args(
            ["simulate", "--chaos-rate", "1"]
        ).chaos_rate == 1.0
        assert build_parser().parse_args(
            ["corrupt", "x.log", "--rate", "0"]
        ).rate == 0.0

    def test_default_levels_parse(self):
        args = build_parser().parse_args(["degradation"])
        assert args.levels == (0.0, 0.001, 0.01, 0.05, 0.2)
