import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import musemc
import musemc.cli as cli
from musemc.cli import _build_parser, _rate_grid, main
from musemc.fixtures import mixing_three_stage
from musemc.parallel import BLOCK_SIZE, ReplicateError


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_without_wall_time(out):
    """summary.json without its ``wall_time_s`` key, re-serialized as the CLI writes it."""
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_time_s"]
    return json.dumps(summary, indent=2, sort_keys=True)


# ------------------------------------------------------------------ estimate


def test_estimate_writes_the_three_artifacts(tmp_path):
    code = run(
        ["estimate", "--process", "gaussian-iid", "--horizon", 2, "--rates", 0.6,
         "--replicates", 200, "--seed", 7, "--out-dir", tmp_path]
    )
    assert code == 0
    rows = read_csv(tmp_path / "replicates.csv")
    assert rows[0] == ["replicate_id", "value", "top_level", "cost"]
    assert len(rows) == 201
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(200)]

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {
        "n", "mean", "variance", "std_error", "ci_lo", "ci_hi",
        "ci_method", "level", "total_cost", "wall_time_s",
    }
    assert summary["n"] == 200
    assert summary["ci_method"] == "clt"
    assert summary["total_cost"] == sum(int(r[3]) for r in rows[1:])

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert manifest["total_replicates"] == 200


def test_estimate_single_replicate_row_count(tmp_path):
    assert run(["estimate", "--replicates", 1, "--out-dir", tmp_path]) == 0
    assert len(read_csv(tmp_path / "replicates.csv")) == 2


def test_estimate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["estimate", "--horizon", 3, "--replicates", 100, "--seed", 3, "--out-dir", out]) == 0
    assert (a / "replicates.csv").read_bytes() == (b / "replicates.csv").read_bytes()
    assert (a / "summary.json").read_text() != ""  # wall time differs; just exist


def test_estimate_worker_count_does_not_change_replicates(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w2"
    assert run(["estimate", "--replicates", 60, "--seed", 11, "--workers", 1, "--out-dir", a]) == 0
    assert run(["estimate", "--replicates", 60, "--seed", 11, "--workers", 2, "--out-dir", b]) == 0
    assert (a / "replicates.csv").read_bytes() == (b / "replicates.csv").read_bytes()


def test_estimate_partial_last_block_is_worker_count_independent(tmp_path):
    n = 2 * BLOCK_SIZE + 3
    blobs = {}
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        assert run(["estimate", "--replicates", n, "--seed", 12, "--workers", workers, "--out-dir", out]) == 0
        blobs[workers] = (out / "replicates.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["block_size"] == BLOCK_SIZE
        assert manifest["workers"] == workers
    assert blobs[2] == blobs[1] and blobs[4] == blobs[1]
    assert len(read_csv(tmp_path / "w1" / "replicates.csv")) == n + 1


def test_estimate_bootstrap_interval(tmp_path):
    code = run(
        ["estimate", "--replicates", 80, "--ci", "bootstrap", "--bootstrap-resamples", 120,
         "--seed", 5, "--out-dir", tmp_path]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ci_method"] == "bootstrap-percentile"
    assert summary["ci_lo"] <= summary["mean"] <= summary["ci_hi"]


def test_estimate_truncated_levels_cost_is_the_horizon(tmp_path):
    code = run(["estimate", "--horizon", 3, "--truncate-level", 0, "--replicates", 50, "--out-dir", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "replicates.csv")[1:]
    assert all(r[3] == "3" for r in rows)
    assert all(r[2] == "0" for r in rows)


def test_estimate_user_discrete_needs_config(tmp_path):
    assert run(["estimate", "--process", "user-discrete", "--out-dir", tmp_path]) == 1


def test_estimate_from_config_file(tmp_path):
    config = {
        "process": {
            "kind": "UserDiscrete",
            "support": [-1.0, 0.0, 1.0, 2.0, 3.0],
            "transitions": [
                [0.0, 0.5, 0.0, 0.5, 0.0],
                [
                    [1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.5, 0.0, 0.5, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.5, 0.0, 0.5],
                    [0.0, 0.0, 0.0, 0.0, 1.0],
                ],
            ],
        },
        "reward": {"kind": "identity"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = run(["estimate", "--config", cfg, "--rates", 0.6, "--replicates", 3000, "--seed", 2, "--out-dir", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the chain's exact stopping value is 1
    assert abs(summary["mean"] - 1.0) <= 4 * summary["std_error"]


def test_estimate_flag_validation(tmp_path):
    assert run(["estimate", "--rates", 0.4, "--out-dir", tmp_path]) == 1
    assert run(["estimate", "--rates", 0.6, "--delta-mom", 0.1, "--out-dir", tmp_path]) == 1
    assert run(["estimate", "--process", "gbm", "--out-dir", tmp_path]) == 1  # no dates
    assert run(["estimate", "--rates", "0.6,0.6", "--horizon", 4, "--out-dir", tmp_path]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--replicates", 300_000, "--ci", "bootstrap", "--bootstrap-resamples", 50],
         "resamples must be at least 100"),
        (["estimate", "--alpha", 0], "alpha must lie in (0, 1]"),
        (["estimate", "--ci", "bootstrap", "--alpha", 1], "alpha must lie in (0, 1)"),
        (["estimate", "--ci", "bootstrap", "--replicates", 1], "bootstrap needs at least two values"),
        (["bermudan", "--alpha", 1.5], "alpha must lie in (0, 1]"),
        (["gaussian-suite", "--alpha", 0], "alpha must lie in (0, 1]"),
    ],
)
def test_interval_flags_fail_before_any_replicate_runs(tmp_path, monkeypatch, capsys, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate ran before the interval flags were checked")

    monkeypatch.setattr(cli, "run_replicated", refuse)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--workers", 0], "--workers must be a positive integer"),
        (["stop", "--workers", -3], "--workers must be a positive integer"),
        (["gaussian-suite", "--mc1-paths", 0], "--mc1-paths must be a positive integer"),
        (["gaussian-suite", "--trees", 0], "--trees must be a positive integer"),
        (["gaussian-suite", "--arity", 0], "--arity must be a positive integer"),
        (["tune-rate", "--replicates", 1], "tune-rate needs at least two replicates per rate to estimate a variance"),
        (["estimate", "--truncate-level", -1], "max_level must be an integer >= 0, got -1"),
        (["tune-rate", "--horizon", 1],
         "tune-rate needs --horizon >= 2: below it no level is drawn, so every rate gives the same replicates"),
        # an instance flag the kind ignores is refused, not dropped
        (["estimate", "--sigma", 0.5, "--strike", 90], "process config field 'sigma' is 0.5, but the GaussianIID spec records 0.0"),
        (["stop", "--strike", 90], "reward config field 'strike' is 90.0, but the Identity spec records 0.0"),
        (["estimate", "--process", "gbm", "--horizon", 5, "--dates", "0,1,2"], "times must have one entry per stage (5), got 3"),
        (["stop", "--dates", "0,1,2"], "process config field 'times' is [0.0, 1.0, 2.0], but the GaussianIID spec records ()"),
        (["estimate", "--reward", "basket-put"],
         "--reward basket-put takes its times from a GBM; give any other basket put as a --config reward"),
        # an empty date list names --dates, not the horizon it would imply
        (["estimate", "--process", "gbm", "--dates="], "--dates must list at least one date, got ''"),
        (["bermudan", "--dates", ","], "--dates must list at least one date, got ','"),
    ],
)
def test_count_flags_fail_before_any_replicate_runs(tmp_path, monkeypatch, capsys, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate ran before the count flags were checked")

    monkeypatch.setattr(cli, "run_replicated", refuse)
    monkeypatch.setattr(cli, "_run_episodes", refuse)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["estimate"], {"process": {"kind": "gaussian", "horizon": 2.5}}, "horizon must be an integer >= 1, got 2.5"),
        (["stop"], {"process": {"kind": "gaussian", "horizon": 3, "dimension": 1.9}}, "dimension must be an integer >= 1, got 1.9"),
        (["gaussian-suite", "--horizons", "2,3.5"], None, "--horizons must be a comma-separated list of integers >= 2, got '2,3.5'"),
        # a misspelled key is refused, not dropped in favour of a default
        (["estimate"], {"proces": {"kind": "gbm", "sigma": 0.2, "spot": 100, "times": [1, 2]}},
         "unknown config key(s): 'proces'"),
        (["estimate"], {"process": {"kind": "gaussian", "horizon": 3, "dimesion": 2}}, "unknown process config key(s): 'dimesion'"),
        (["stop"], {"reward": {"kind": "basket-put", "strike": 95, "discunt": 0.05, "times": [1, 2, 3]}},
         "unknown reward config key(s): 'discunt'"),
        # a chain's horizon is its transition count, never a second value
        (["estimate"], {"process": {"kind": "UserDiscrete", "support": [0, 1], "horizon": 7,
                                    "transitions": [[0.5, 0.5], [[1, 0], [0, 1]]]}},
         "transitions must have one entry per stage (7), got 2"),
        # a field the kind ignores is refused, not dropped
        (["estimate"], {"process": {"kind": "gaussian", "horizon": 2, "sigma": 5.0}},
         "process config field 'sigma' is 5.0, but the GaussianIID spec records 0.0"),
        (["stop"], {"process": {"kind": "gaussian", "horizon": 2, "times": [1, 2]}},
         "process config field 'times' is [1, 2], but the GaussianIID spec records ()"),
        (["estimate"], {"reward": {"kind": "identity", "strike": 90}},
         "reward config field 'strike' is 90, but the Identity spec records 0.0"),
        # a config or field of the wrong JSON type is an error line, not a TypeError traceback
        (["estimate"], 5, "config must be a JSON object, got int"),
        (["estimate"], {"process": 5}, "config 'process' must be a JSON object, got int"),
        (["estimate"], {"process": {"kind": "gbm", "sigma": 0.2, "spot": 100, "times": 5}},
         "process config has a field of the wrong type: object of type 'int' has no len()"),
        (["estimate"], {"process": {"kind": "UserDiscrete", "support": 5, "transitions": [[1.0]]}},
         "process config has a field of the wrong type: 'int' object is not iterable"),
        (["estimate"], {"reward": {"kind": "basket-put", "strike": 100, "times": 3}},
         "reward config has a field of the wrong type: 'int' object is not iterable"),
        # a flag given next to the config object it would change is refused, not dropped
        (["estimate", "--horizon", 7, "--process", "user-discrete"],
         {"process": {"kind": "gbm", "sigma": 0.2, "spot": 100, "times": [0, 1, 2]}},
         "--process, --horizon would change the config's process object; set its fields there"),
        (["stop", "--strike", 90], {"reward": {"kind": "identity"}},
         "--strike would change the config's reward object; set its fields there"),
        # a missing required field is named, not printed as a bare key
        (["estimate"], {"process": {"kind": "gbm", "spot": 100, "times": [0, 1]}}, "process config requires a 'sigma' field"),
        (["estimate"], {"process": {"kind": "gbm", "sigma": 0.2, "spot": 100, "times": [0, 1]},
                        "reward": {"kind": "basket-put", "times": [0, 1]}}, "reward config requires a 'strike' field"),
    ],
)
def test_fractional_integer_fields_fail_before_any_replicate_runs(tmp_path, monkeypatch, capsys, argv, config, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate ran before the integer fields were checked")

    monkeypatch.setattr(cli, "run_replicated", refuse)
    monkeypatch.setattr(cli, "_run_episodes", refuse)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", path]
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["estimate", "tune-rate", "gaussian-suite", "bermudan", "stop"])
def test_unusable_out_dir_fails_before_any_replicate_runs(tmp_path, monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate ran before --out-dir was created")

    monkeypatch.setattr(cli, "run_replicated", refuse)
    monkeypatch.setattr(cli, "_run_episodes", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run([command, "--out-dir", blocker / "out"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, env", [(["estimate", "--replicates", 10], "0"), (["stop", "--workers", 2], "-3")])
def test_nonpositive_muse_workers_fails_before_any_replicate_runs(tmp_path, monkeypatch, capsys, argv, env):
    """The environment variable wins over ``--workers``, so it is checked as strictly."""
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate ran before MUSE_WORKERS was checked")

    monkeypatch.setattr(cli, "run_replicated", refuse)
    monkeypatch.setattr(cli, "_run_episodes", refuse)
    monkeypatch.setenv("MUSE_WORKERS", env)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: MUSE_WORKERS must be a positive integer, got {env}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["estimate", "tune-rate", "gaussian-suite", "bermudan", "stop"])
def test_a_failing_replicate_is_an_error_line_not_a_traceback(tmp_path, monkeypatch, capsys, command):
    def diverge(*args, **kwargs):
        raise ReplicateError(512, "in block 2: FloatingPointError: overflow")

    monkeypatch.setattr(cli, "run_replicated", diverge)
    monkeypatch.setattr(cli, "_run_episodes", diverge)
    assert run([command, "--out-dir", tmp_path]) == 1
    assert capsys.readouterr().err == "error: replicate 512 failed: in block 2: FloatingPointError: overflow\n"


def test_rate_counts_must_match_the_horizon(tmp_path):
    """A rate list of the wrong length is a user error, not a traceback."""
    assert run(["bermudan", "--dates", "0,1,2,3", "--geo-rate", "0.6,0.6", "--out-dir", tmp_path]) == 1
    assert run(["gaussian-suite", "--horizons", "2,4", "--rates", "0.6,0.6", "--out-dir", tmp_path]) == 1
    assert run(["gaussian-suite", "--horizons", "2,3", "--rates", "0.6,0.6,0.6", "--out-dir", tmp_path]) == 1


def test_config_is_only_read_by_estimate_and_stop(tmp_path):
    cfg = tmp_path / "x.json"
    cfg.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        run(["tune-rate", "--config", cfg, "--out-dir", tmp_path])
    assert exc.value.code == 2


def test_estimate_delta_mom_schedule(tmp_path):
    assert run(["estimate", "--horizon", 3, "--delta-mom", 0.1, "--replicates", 20, "--out-dir", tmp_path]) == 0


# ----------------------------------------------------------------- tune-rate


def test_tune_rate_grid_csv(tmp_path):
    code = run(
        ["tune-rate", "--horizon", 2, "--r-min", 0.58, "--r-max", 0.60, "--step", 0.01,
         "--replicates", 400, "--seed", 1, "--out-dir", tmp_path]
    )
    assert code == 0
    rows = read_csv(tmp_path / "rate_grid.csv")
    assert rows[0] == ["r", "mean_cost", "variance", "self_normalized_variance"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0.580000", "0.590000", "0.600000"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["points"]) == 3


def test_tune_rate_writes_pinned_bytes(tmp_path):
    """`muse tune-rate` at a fixed seed writes this exact grid: cost, variance and their product."""
    code = run(["tune-rate", "--horizon", 2, "--r-min", 0.55, "--r-max", 0.60, "--step", 0.025,
                "--replicates", 1500, "--seed", 21, "--out-dir", tmp_path])
    assert code == 0
    assert sha256(tmp_path / "rate_grid.csv") == "255682994c428e850cd7d2814d8b28fd6cf15e2336b332c1560f57f4f7384f95"


def test_tune_rate_default_grid_stays_inside_its_bounds():
    args = _build_parser().parse_args(["tune-rate"])
    grid = _rate_grid(args.r_min, args.r_max, args.step)
    assert grid.size == 20
    assert grid[0] == args.r_min
    assert np.all(grid <= args.r_max)
    assert np.allclose(np.diff(grid), args.step)


def test_tune_rate_grid_validation(tmp_path):
    assert run(["tune-rate", "--r-min", 0.5, "--out-dir", tmp_path]) == 1
    assert run(["tune-rate", "--r-min", 0.7, "--r-max", 0.6, "--out-dir", tmp_path]) == 1
    assert run(["tune-rate", "--step", 0, "--out-dir", tmp_path]) == 1


# ------------------------------------------------------------ gaussian-suite


def test_gaussian_suite_csv(tmp_path):
    code = run(
        ["gaussian-suite", "--horizons", "2,3", "--replicates", 2000, "--mc1-paths", 2000,
         "--trees", 50, "--arity", 5, "--seed", 4, "--out-dir", tmp_path]
    )
    assert code == 0
    rows = read_csv(tmp_path / "gaussian_suite.csv")
    assert rows[0] == [
        "horizon", "oracle", "muse_mean", "muse_se", "muse_ci_lo", "muse_ci_hi",
        "muse_total_cost", "mc1_mean", "mc1_bias", "mc2_mean", "mc2_bias",
    ]
    assert len(rows) == 3
    by_horizon = {int(r[0]): r for r in rows[1:]}
    assert float(by_horizon[3][1]) > float(by_horizon[2][1])  # oracle increases with T
    for r in rows[1:]:
        assert float(r[8]) > 0  # mc1 sits above the oracle at these path counts


def test_gaussian_suite_writes_pinned_bytes(tmp_path):
    """`muse gaussian-suite` at a fixed seed writes this exact table: MUSE, oracle and both baselines."""
    code = run(["gaussian-suite", "--horizons", "2,3", "--replicates", 1500, "--mc1-paths", 1000,
                "--trees", 30, "--arity", 4, "--seed", 22, "--out-dir", tmp_path])
    assert code == 0
    assert sha256(tmp_path / "gaussian_suite.csv") == "716f7e56e7cca0c3573e4190e2f25ec98075f5677550a5520d93aa745415b531"


def test_gaussian_suite_needs_valid_horizons(tmp_path):
    assert run(["gaussian-suite", "--horizons", "1,3", "--out-dir", tmp_path]) == 1
    assert run(["gaussian-suite", "--horizons", "", "--out-dir", tmp_path]) == 1


# ---------------------------------------------------------------- bermudan


def test_bermudan_runs_and_writes(tmp_path):
    code = run(
        ["bermudan", "--dim", 2, "--dates", "0,1,2", "--replicates", 300, "--seed", 6, "--out-dir", tmp_path]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n"] == 300
    assert math.isfinite(summary["mean"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["process"]["dimension"] == 2
    assert manifest["config"]["process"]["times"] == [0.0, 1.0, 2.0]


def test_bermudan_writes_pinned_bytes(tmp_path):
    """`muse bermudan` at a fixed seed writes these exact replicates and summary (without wall time)."""
    code = run(["bermudan", "--dim", 3, "--dates", "0,0.5,1", "--replicates", 1500, "--seed", 23,
                "--workers", 2, "--out-dir", tmp_path])
    assert code == 0
    got = (sha256(tmp_path / "replicates.csv"),
           hashlib.sha256(summary_without_wall_time(tmp_path).encode()).hexdigest())
    assert got == ("2ea11e529b585cb9586e492febbe9ddb113f087a6d17bcaefadc65e6973dfd4f",
                   "04ac3b319d158d50b55a1775ee91f9b36d729c647631dce72c0813decd37d17a")


def test_bermudan_is_estimate_with_gbm_defaults(tmp_path):
    """`bermudan` runs `estimate`'s pipeline: a GBM basket put at spot = strike = 100, sigma 0.2, rate 0.05."""
    a, b = tmp_path / "bermudan", tmp_path / "estimate"
    assert run(["bermudan", "--dim", 2, "--dates", "0,1,2", "--replicates", 600, "--seed", 6, "--out-dir", a]) == 0
    assert run(["estimate", "--process", "gbm", "--dimension", 2, "--dates", "0,1,2", "--replicates", 600,
                "--seed", 6, "--out-dir", b]) == 0
    assert (a / "replicates.csv").read_bytes() == (b / "replicates.csv").read_bytes()
    assert summary_without_wall_time(a) == summary_without_wall_time(b)
    configs = [json.loads((out / "manifest.json").read_text())["config"] for out in (a, b)]
    assert [c.pop("command") for c in configs] == ["bermudan", "estimate"]
    assert configs[0] == configs[1]


# -------------------------------------------------------------------- stop


def test_stop_writes_episode_log_and_summary(tmp_path):
    code = run(
        ["stop", "--horizon", 2, "--episodes", 25, "--inner-replicates", 100,
         "--seed", 8, "--out-dir", tmp_path]
    )
    assert code == 0
    rows = read_csv(tmp_path / "episodes.csv")
    assert rows[0] == ["episode_id", "tau", "realized_reward", "stage", "fx", "y_bar", "se", "decision"]
    assert {r[7] for r in rows[1:]} <= {"stop", "continue", "forced"}
    payload = json.loads((tmp_path / "policy_summary.json").read_text())
    assert set(payload) == {"episodes", "mean_reward", "std_error", "mean_tau", "total_inner_cost"}
    assert payload["episodes"] == 25
    assert 1.0 <= payload["mean_tau"] <= 2.0


def test_stop_infinite_tolerance(tmp_path):
    code = run(
        ["stop", "--horizon", 3, "--episodes", 10, "--tolerance", "inf", "--seed", 1, "--out-dir", tmp_path]
    )
    assert code == 0
    payload = json.loads((tmp_path / "policy_summary.json").read_text())
    assert payload["mean_tau"] == 1.0
    assert payload["total_inner_cost"] == 0


def test_stop_parallel_workers_agree(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w2"
    for workers, out in ((1, a), (2, b)):
        code = run(
            ["stop", "--horizon", 2, "--episodes", 12, "--inner-replicates", 40,
             "--seed", 9, "--workers", workers, "--out-dir", out]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == workers
        assert manifest["block_size"] == BLOCK_SIZE  # episodes are keyed in blocks, like replicates
        assert manifest["total_replicates"] == 12
    assert (a / "episodes.csv").read_bytes() == (b / "episodes.csv").read_bytes()


def test_stop_partial_last_block_is_worker_count_independent(tmp_path):
    n = 2 * BLOCK_SIZE + 3
    blobs = {}
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        code = run(
            ["stop", "--horizon", 3, "--episodes", n, "--inner-replicates", 8,
             "--seed", 13, "--workers", workers, "--out-dir", out]
        )
        assert code == 0
        blobs[workers] = [(out / name).read_bytes() for name in ("episodes.csv", "policy_summary.json")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["block_size"] == BLOCK_SIZE
        assert manifest["workers"] == workers
    assert blobs[2] == blobs[1] and blobs[4] == blobs[1]
    assert json.loads(blobs[1][1])["episodes"] == n


def test_stop_on_the_mixing_chain_writes_pinned_bytes(tmp_path):
    """`muse stop` on mixing_three_stage at a fixed seed writes these exact files.

    The digests pin the discrete stepper's draws and the estimator's
    reductions end to end: a rewrite of either must reproduce every bit.
    """
    chain = mixing_three_stage()
    transitions = [list(chain.transitions[0])] + [[list(row) for row in mat] for mat in chain.transitions[1:]]
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({"process": {"kind": "UserDiscrete", "support": list(chain.support), "transitions": transitions}}))
    code = run(["stop", "--config", cfg, "--rates", 0.6, "--inner-replicates", 2000, "--episodes", 12,
                "--seed", 2024, "--workers", 1, "--out-dir", tmp_path])
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("episodes.csv", "policy_summary.json")}
    assert digests == {
        "episodes.csv": "9f937205d874785d7db751152833fcde5f83e119a78bc3db38ef0a9493bdda34",
        "policy_summary.json": "15fc779da850e2abcba39c2139bfee901d1b143d4bdb87bb6dd94b76dbc72483",
    }


@pytest.mark.parametrize(
    "flags, digests",
    [
        (
            ["--horizon", 3, "--ci", "clt", "--replicates", 3000, "--seed", 11],
            ("895d8fb85a53e7cfdbb3a8798e4760cd38062ba408baa73868a918c73dcf36b8",
             "764c5b76c26bb1533668324cea5840403d604bad85eb05f7be441155c2d4c16a"),
        ),
        (
            ["--process", "gbm", "--dimension", 2, "--dates", "0,1,2,3", "--ci", "bootstrap",
             "--bootstrap-resamples", 200, "--workers", 2, "--replicates", 1200, "--seed", 12],
            ("b199321408b4e0fd5fb37af56b9b7d6b645ecbc9e3f807261356356cde8a70e4",
             "2b42f09718ae0ea19c4d52a39b49b457e876c104029fc876f56a617c280ba486"),
        ),
        (
            ["--horizon", 4, "--truncate-level", 3, "--replicates", 2000, "--seed", 13],
            ("7be07febf80f76ebe4c0ce3498854017a8c3c2ef3e28ce4432bae57bab3cbb75",
             "468ae5100ef70abef9cb8d9079075b4e16a664516ed8a64cac5e987aad274bc3"),
        ),
    ],
    ids=["gaussian-t3-clt", "gbm-d2-bootstrap-w2", "gaussian-t4-truncated"],
)
def test_estimate_writes_pinned_bytes(tmp_path, flags, digests):
    """`muse estimate` at a fixed seed writes these exact replicates and summary.

    The summary is hashed without its ``wall_time_s`` key, re-serialized as
    the CLI writes it, so every other value is pinned bit for bit.
    """
    assert run(["estimate", *flags, "--out-dir", tmp_path]) == 0
    got = (
        sha256(tmp_path / "replicates.csv"),
        hashlib.sha256(summary_without_wall_time(tmp_path).encode()).hexdigest(),
    )
    assert got == digests


def test_stop_from_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "process": {
                    "kind": "UserDiscrete",
                    "support": [1.0, 5.0],
                    "transitions": [[0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]]],
                }
            }
        )
    )
    code = run(["stop", "--config", cfg, "--episodes", 5, "--inner-replicates", 20, "--out-dir", tmp_path])
    assert code == 0
    payload = json.loads((tmp_path / "policy_summary.json").read_text())
    assert payload["mean_reward"] == 5.0  # start at 5, next value 1: stop at once
    assert payload["mean_tau"] == 1.0


# ------------------------------------------------------------------ plumbing


def test_import_leaves_scipy_special_unloaded():
    """Importing the package does not load scipy.special; its two call sites import it on first use."""
    src = os.path.dirname(os.path.dirname(musemc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    check = "import sys, musemc; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--horizon", 3, "--truncate-level", 2, "--replicates", 20],
        ["tune-rate", "--horizon", 2, "--r-min", 0.6, "--r-max", 0.61, "--step", 0.01, "--replicates", 20],
        ["gaussian-suite", "--horizons", "2,3", "--replicates", 20, "--mc1-paths", 20, "--trees", 2],
        ["bermudan", "--dim", 2, "--dates", "0,1", "--replicates", 20],
        ["stop", "--horizon", 2, "--episodes", 3, "--inner-replicates", 10],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_records_its_instance(tmp_path, argv):
    """Each harness run's manifest holds the command and the resolved instance in its
    ``config``, and names the bit generator that drew its numbers."""
    assert run(argv + ["--out-dir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    points = manifest.get("points", [manifest])
    assert [point["bit_generator"] for point in points] == ["PCG64DXSM"] * len(points)
    configs = [point["config"] for point in points]
    assert len(configs) == (2 if argv[0] in ("tune-rate", "gaussian-suite") else 1)
    for config in configs:
        assert set(config) == {"command", "process", "reward", "rates", "max_level"}
        assert config["command"] == argv[0]
        assert len(config["rates"]) == config["process"]["horizon"] - 1
    assert configs[-1]["max_level"] == (2 if argv[0] == "estimate" else None)
    assert configs[-1]["process"]["kind"] == ("GBM" if argv[0] == "bermudan" else "GaussianIID")
    assert configs[-1]["reward"]["kind"] == ("BasketPut" if argv[0] == "bermudan" else "Identity")


@pytest.mark.parametrize(
    "argv, log, objects",
    [
        (["estimate", "--process", "gbm", "--dimension", 3, "--dates", "0,1,2", "--ci", "bootstrap", "--replicates", 300],
         "replicates.csv", ("process", "reward")),
        (["bermudan", "--dim", 2, "--replicates", 300], "replicates.csv", ("process", "reward")),
        (["estimate", "--horizon", 4, "--rates", "0.6,0.7,0.8", "--truncate-level", 3, "--replicates", 300],
         "replicates.csv", ("process", "reward")),
        (["stop", "--config", "CHAIN", "--episodes", 6, "--inner-replicates", 200], "episodes.csv", ("process", "reward")),
        # a GBM's default reward is its basket put, from flags and from a config alike
        (["estimate", "--process", "gbm", "--dimension", 3, "--dates", "0,1,2", "--ci", "bootstrap", "--replicates", 300],
         "replicates.csv", ("process",)),
        (["bermudan", "--dim", 2, "--replicates", 300], "replicates.csv", ("process",)),
    ],
    ids=["gbm-bootstrap", "bermudan", "truncated", "chain-stop", "gbm-bootstrap-process-only", "bermudan-process-only"],
)
def test_a_recorded_instance_replays(tmp_path, argv, log, objects):
    """A manifest's ``config.process`` and ``config.reward`` (or its process alone), run
    as ``--config`` at the same seed, rates and level cap, redraw the same replicates or episodes."""
    chain = mixing_three_stage()
    transitions = [list(chain.transitions[0])] + [[list(row) for row in mat] for mat in chain.transitions[1:]]
    (tmp_path / "chain.json").write_text(json.dumps({"process": {"kind": "UserDiscrete", "support": list(chain.support),
                                                                 "transitions": transitions}}))
    argv = [tmp_path / "chain.json" if a == "CHAIN" else a for a in argv]
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run(argv + ["--seed", 5, "--workers", 1, "--out-dir", first]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    (tmp_path / "replay.json").write_text(json.dumps({name: config[name] for name in objects}))
    counts = argv[argv.index("--episodes"):] if argv[0] == "stop" else ["--replicates", 300]
    cap = [] if config["max_level"] is None else ["--truncate-level", config["max_level"]]
    command = "stop" if argv[0] == "stop" else "estimate"
    assert run([command, "--config", tmp_path / "replay.json", "--rates", ",".join(map(repr, config["rates"])), *counts,
                *cap, "--seed", 5, "--workers", 1, "--out-dir", replay]) == 0
    assert (replay / log).read_bytes() == (first / log).read_bytes()


def test_help_shows_the_instance_flag_defaults(capsys):
    """The instance flags default to None, so their help shows the defaults a flag-built instance takes."""
    with pytest.raises(SystemExit):
        run(["estimate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in ("default: gaussian-iid", "default: 3;", "GBM drift / discount rate (default: 0.05)",
                    "GBM dividend yield (default: 0.0)", "GBM volatility (default: 0.2)", "GBM spot (default: 100.0)"):
        assert default in text


def test_workers_env_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("MUSE_WORKERS", "1")
    assert run(["estimate", "--replicates", 30, "--workers", 8, "--out-dir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["workers"] == 1


def test_argparse_misuse_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_config_file_is_a_user_error(tmp_path):
    assert run(["estimate", "--config", tmp_path / "absent.json", "--out-dir", tmp_path]) == 1
