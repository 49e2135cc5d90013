import csv
import json
import math

import numpy as np
import pytest

import musemc.cli as cli
from musemc.cli import _build_parser, _rate_grid, main
from musemc.parallel import BLOCK_SIZE


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
    assert manifest["config"]["dim"] == 2
    assert manifest["config"]["dates"] == [0.0, 1.0, 2.0]


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
