"""Command-line front end.

Five subcommands cover the shipped experiments: ``estimate`` (one process /
reward / schedule), ``tune-rate`` (grid search of the geometric rate by
cost-adjusted variance), ``gaussian-suite`` (estimator vs. oracle vs. biased
baselines across horizons), ``bermudan`` (max-timing of a discounted basket
put under GBM), and ``stop`` (episodes of the estimator-driven stopping
policy).  Every command honors ``--seed``, ``--workers`` (overridden by the
``MUSE_WORKERS`` environment variable) and ``--out-dir``; ``estimate`` and
``stop`` also read ``--config``.  ``main`` creates ``--out-dir`` before any
replicate runs, so an unusable directory fails at once; a bad flag and a
failing replicate alike end in one ``error:`` line and exit status 1.  The
commands share one pipeline: flags become an instance and a rate schedule
(``_resolve_instance``, ``_resolve_schedule``), and ``_run`` runs and
summarizes the replicates.  An instance is built by the config readers
alone: the process and reward flags given become config objects, so a flag
the kind ignores is refused as a config field would be, and so is a flag
given next to the ``--config`` object it would change; the default reward
follows the resolved process.  ``bermudan`` is ``estimate``'s handler with GBM
and basket-put defaults and a CLT interval.  Every harness run stores
``_record`` -- the command, the resolved process and reward, the rates and
the level cap -- as its manifest's ``config``, and every CSV goes through
``_write_csv``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .baselines import TreeSpec, gaussian_dp_oracle, mc1_estimate, mc2_estimate
from .estimator import MuseReplicateTask, RateSchedule, theoretical_rate_schedule
from .inference import bootstrap_ci, check_interval_args, clt_ci, self_normalized_variance, summarize, summary_to_json
from .parallel import ReplicateError, run_replicated, resolve_workers
from .policy import PolicyConfig, _run_episodes, run_stopping_policy  # noqa: F401 (perfbench wraps cli.run_stopping_policy)
from .processes import GBM, GBM_DEFAULTS, gaussian_iid, process_spec_from_dict
from .rewards import identity_reward, reward_spec_from_dict
from .streams import check_keys, derive_substream

_BOOTSTRAP_KEY = 1 << 62  # reserved stream namespace; never collides with replicate paths


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers is not None and args.workers < 1:
            raise ValueError("--workers must be a positive integer")
        args.workers = resolve_workers(args.workers)
        os.makedirs(args.out_dir, exist_ok=True)
        return args.handler(args)
    except (ValueError, OSError, KeyError, ReplicateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``muse`` parser, built once per process.

    Each subcommand binds its handler here, once.  Nothing that tests or
    tracers patch is bound: ``run_replicated``, ``_run_episodes``,
    ``summarize``, ``bootstrap_ci`` and ``run_stopping_policy`` are module
    globals that the handlers look up at call time.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed keying every stream in the run")
    common.add_argument("--workers", type=int, default=None, help="worker processes (MUSE_WORKERS overrides)")
    common.add_argument("--out-dir", default=".", help="directory for CSV/JSON outputs")

    parser = argparse.ArgumentParser(prog="muse", description="Unbiased multilevel estimation for optimal stopping")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[common], help="estimate the stopping value of one instance")
    _add_config_flag(p)
    _add_process_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--ci", choices=["clt", "bootstrap"], default="clt")
    p.add_argument("--bootstrap-resamples", type=int, default=1000)
    p.add_argument("--truncate-level", type=int, default=None, help="cap levels at M (biased diagnostic mode)")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("tune-rate", parents=[common], help="grid-search the geometric rate")
    p.add_argument("--horizon", type=int, default=3)
    p.add_argument("--r-min", type=float, default=0.51)
    p.add_argument("--r-max", type=float, default=0.70)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--replicates", type=int, default=100_000)
    p.set_defaults(handler=_cmd_tune_rate)

    p = sub.add_parser("gaussian-suite", parents=[common], help="estimator vs oracle vs baselines across horizons")
    p.add_argument("--horizons", default="2,3,4", help="comma-separated horizons")
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--rates", default="0.6", help="constant rate or per-stage list for the longest horizon")
    p.add_argument("--mc1-paths", type=int, default=100_000)
    p.add_argument("--trees", type=int, default=1000)
    p.add_argument("--arity", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_cmd_gaussian_suite, delta_mom=None)

    p = sub.add_parser("bermudan", parents=[common], help="discounted basket put under multi-asset GBM")
    # read into the names the shared instance/schedule path uses; bermudan's own presets are --dim and
    # --dates, and the other instance flags default to None, so they take estimate's GBM defaults
    gbm = _GBM_FLAG_DEFAULTS
    p.add_argument("--dim", dest="dimension", type=int, default=5)
    p.add_argument("--strike", type=float, help="basket-put strike (default: the spot)")
    p.add_argument("--spot", type=float, help=f"default: {gbm['spot']}")
    p.add_argument("--sigma", type=float, help=f"default: {gbm['sigma']}")
    p.add_argument("--rate", dest="gamma", type=float, help=f"risk-free rate (drift and discount; default: {gbm['gamma']})")
    p.add_argument("--div", type=float, help=f"dividend yield (default: {gbm['div_yield']})")
    p.add_argument("--dates", default="0,1,2,3", help="comma-separated exercise dates (years)")
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--geo-rate", dest="rates", default="0.6", help="geometric rate(s) for the level draws")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_cmd_estimate, process="gbm", horizon=None, reward=None, delta_mom=None,
                   config=None, truncate_level=None, ci="clt", bootstrap_resamples=None)

    p = sub.add_parser("stop", parents=[common], help="run the estimator-driven stopping policy")
    _add_config_flag(p)
    _add_process_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--inner-replicates", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=None, help="fixed slack; omit for the adaptive CI slack")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_cmd_stop)

    return parser


def _add_config_flag(p):
    p.add_argument("--config", default=None, help="JSON file with 'process'/'reward' objects")


# The defaults of the process flags for the fields a config requires, by kind (--process itself defaults to
# gaussian-iid); a GBM's other fields take processes.GBM_DEFAULTS in the config reader.  The flags default
# to None, so only a flag that is given becomes a config field.
_FLAG_DEFAULTS = {"gaussian-iid": {"horizon": 3, "dimension": 1}, "gbm": {"sigma": 0.2, "spot": 100.0}}
_GBM_FLAG_DEFAULTS = {**GBM_DEFAULTS, **_FLAG_DEFAULTS["gbm"]}  # for the help strings
_PROCESS_FIELDS = {"horizon": "horizon", "dimension": "dimension", "gamma": "gamma", "div": "div_yield",
                   "sigma": "sigma", "spot": "spot", "dates": "times"}  # flag -> ProcessSpec field


def _add_process_flags(p):
    gauss, gbm = _FLAG_DEFAULTS["gaussian-iid"], _GBM_FLAG_DEFAULTS
    p.add_argument("--process", choices=["gaussian-iid", "gbm", "user-discrete"], help="default: gaussian-iid")
    p.add_argument("--horizon", type=int, help=f"default: {gauss['horizon']}; a GBM's is its number of --dates")
    p.add_argument("--dimension", type=int, help=f"default: {gauss['dimension']}")
    p.add_argument("--gamma", type=float, help=f"GBM drift / discount rate (default: {gbm['gamma']})")
    p.add_argument("--div", type=float, help=f"GBM dividend yield (default: {gbm['div_yield']})")
    p.add_argument("--sigma", type=float, help=f"GBM volatility (default: {gbm['sigma']})")
    p.add_argument("--spot", type=float, help=f"GBM spot (default: {gbm['spot']})")
    p.add_argument("--dates", help="comma-separated stage times of a GBM (required for one)")
    p.add_argument("--reward", choices=["identity", "basket-put"], help="default: basket-put for a GBM, else identity")
    p.add_argument("--strike", type=float, help="basket-put strike (default: the process's spot)")


def _add_schedule_flags(p):
    p.add_argument("--rates", default=None, help="constant geometric rate or comma-separated per-stage rates")
    p.add_argument("--delta-mom", type=float, default=None, help="derive rates from the moment-budget formula")


def _parse_floats(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _load_config(args) -> dict:
    if not args.config:
        return {}
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    check_keys(config, ("process", "reward"), "config")
    return config


def _resolve_instance(args, config):
    """Build (process, reward) through the config readers, from the config's objects or from the flags given.

    A flag given next to the config object it would change is refused.  The
    default reward follows the process: a GBM's is a basket put struck at its
    spot, discounted at its gamma over its times; any other's is the identity.
    """
    for name, flags in (("process", ("process", *_PROCESS_FIELDS)), ("reward", ("reward", "strike"))):
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if name in config and given:
            raise ValueError(f"{', '.join(given)} would change the config's {name} object; set its fields there")
    process = process_spec_from_dict(config["process"] if "process" in config else _process_from_flags(args))
    return process, reward_spec_from_dict(config["reward"] if "reward" in config else _reward_from_flags(args, process))


def _process_from_flags(args) -> dict:
    """The process config of the flags given, over their kind's defaults; a field the kind ignores is kept, so refused."""
    kind = args.process or "gaussian-iid"
    if kind == "user-discrete":
        raise ValueError("user-discrete processes are configured via --config (support and transitions)")
    if kind == "gbm" and args.dates is None:
        raise ValueError("GBM needs --dates (one calendar time per stage)")
    flags = {**_FLAG_DEFAULTS[kind], **{f: getattr(args, f) for f in _PROCESS_FIELDS if getattr(args, f) is not None}}
    if "dates" in flags:
        flags["dates"] = _parse_floats(flags["dates"])
        if not flags["dates"]:
            raise ValueError(f"--dates must list at least one date, got {args.dates!r}")
    return {"kind": kind, **{_PROCESS_FIELDS[flag]: value for flag, value in flags.items()}}


def _reward_from_flags(args, process) -> dict:
    data = {"kind": args.reward or ("basket-put" if process.kind == GBM else "identity")}
    if data["kind"] == "basket-put":
        if process.kind != GBM:
            raise ValueError("--reward basket-put takes its times from a GBM; give any other basket put as a --config reward")
        data.update(strike=process.spot, discount=process.gamma, times=process.times)
    if args.strike is not None:
        data["strike"] = args.strike
    return data


def _resolve_schedule(args, horizon) -> RateSchedule:
    if args.delta_mom is not None and args.rates is not None:
        raise ValueError("give either --rates or --delta-mom, not both")
    if args.delta_mom is not None:
        return theoretical_rate_schedule(args.delta_mom, horizon)
    rates = _parse_floats(args.rates if args.rates is not None else "0.6")
    if len(rates) == 1:
        return RateSchedule.constant(rates[0], horizon)
    if len(rates) != horizon - 1:
        raise ValueError(f"need 1 or {horizon - 1} rates for horizon {horizon}, got {len(rates)}")
    return RateSchedule(rates=tuple(rates))


def _write_csv(args, name, header, rows):
    """The one CSV writer: ``header`` and ``rows`` to ``name`` under ``--out-dir``; returns the path.

    The format is the ``csv`` module's defaults, with ``\\r\\n`` line ends.
    Each float cell, numpy's ``float64`` included, arrives as a float and is
    written as its shortest round-trip ``repr``, so ``float(cell)`` reads
    back the exact value.
    """
    path = os.path.join(args.out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_json(args, name, payload):
    with open(os.path.join(args.out_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record(args, process, reward_spec, schedule, max_level=None):
    """The run's manifest ``config``: the command and the instance it resolved to."""
    return {
        "command": args.command,
        "process": asdict(process),
        "reward": asdict(reward_spec),
        "rates": list(schedule.rates),
        "max_level": max_level,
    }


def _run(args, process, reward_spec, schedule, max_level=None):
    """Run ``args.replicates`` replicates of one instance; returns (samples, summary, manifest)."""
    task = MuseReplicateTask(process, reward_spec, schedule, max_level)
    record = _record(args, process, reward_spec, schedule, max_level)
    samples, values, costs, manifest = run_replicated(task, args.replicates, args.seed, workers=args.workers, config=record)
    return samples, summarize(values, costs, wall_time=manifest.wall_time), manifest


def _cmd_estimate(args) -> int:
    """``estimate``, and ``bermudan`` through its parser defaults."""
    process, reward_spec = _resolve_instance(args, _load_config(args))
    schedule = _resolve_schedule(args, process.horizon)
    resamples = args.bootstrap_resamples if args.ci == "bootstrap" else None
    check_interval_args(args.alpha, resamples, args.replicates)
    samples, summary, manifest = _run(args, process, reward_spec, schedule, args.truncate_level)
    if resamples is not None:
        ci = bootstrap_ci(samples.values, alpha=args.alpha, resamples=resamples,
                          stream=derive_substream(args.seed, (_BOOTSTRAP_KEY,)))
    else:
        ci = clt_ci(summary, alpha=args.alpha)
    rows = zip(range(summary.n), samples.values.tolist(), samples.top_levels.tolist(), samples.costs.tolist())
    _write_csv(args, "replicates.csv", ["replicate_id", "value", "top_level", "cost"], rows)
    _write_json(args, "summary.json", summary_to_json(summary, ci))
    _write_json(args, "manifest.json", manifest.to_json())
    print(
        f"n={summary.n}  mean={summary.mean:.6f}  se={summary.std_error:.6f}  "
        f"{100 * ci.level:.0f}% CI [{ci.lo:.6f}, {ci.hi:.6f}]  cost={summary.total_cost}  "
        f"wall={summary.wall_time:.2f}s  -> {args.out_dir}"
    )
    return 0


_MAX_GRID_POINTS = 10_000  # the default grid has 20


def _rate_grid(r_min, r_max, step):
    """r_min, r_min + step, ... up to r_max, built by integer index so no point passes r_max.

    A grid of more than ``_MAX_GRID_POINTS`` points is refused before it is allocated.
    """
    count = np.floor((r_max - r_min) / step + 1e-9) + 1
    if not count <= _MAX_GRID_POINTS:
        raise ValueError(f"--step {step!r} gives more than {_MAX_GRID_POINTS} rate grid points between --r-min and --r-max")
    return np.minimum(r_min + step * np.arange(int(count)), r_max)


def _cmd_tune_rate(args) -> int:
    if not 0.5 < args.r_min <= args.r_max < 1.0:
        raise ValueError("the rate grid must satisfy 0.5 < r_min <= r_max < 1")
    if not args.step > 0:
        raise ValueError("step must be positive")
    if args.replicates < 2:
        raise ValueError("tune-rate needs at least two replicates per rate to estimate a variance")
    if args.horizon < 2:
        raise ValueError("tune-rate needs --horizon >= 2: below it no level is drawn, so every rate gives the same replicates")
    process = gaussian_iid(horizon=args.horizon)
    reward_spec = identity_reward()
    grid = _rate_grid(args.r_min, args.r_max, args.step)
    rows = []
    manifests = []
    for r in grid:
        samples, summary, manifest = _run(args, process, reward_spec, RateSchedule.constant(float(r), args.horizon))
        merit = self_normalized_variance(samples.values, samples.costs)
        rows.append((float(r), float(samples.costs.mean()), summary.variance, merit))
        manifests.append(manifest.to_json())
    path = _write_csv(args, "rate_grid.csv", ["r", "mean_cost", "variance", "self_normalized_variance"], rows)
    _write_json(args, "manifest.json", {"command": "tune-rate", "points": manifests})
    best = min(rows, key=lambda row: row[3])
    print(f"minimum self-normalized variance {best[3]:.4f} at r={best[0]:.3f}  -> {path}")
    return 0


def _cmd_gaussian_suite(args) -> int:
    tokens = [tok.strip() for tok in str(args.horizons).split(",") if tok.strip()]
    if not tokens or not all(tok.isdecimal() and int(tok) >= 2 for tok in tokens):
        raise ValueError(f"--horizons must be a comma-separated list of integers >= 2, got {args.horizons!r}")
    horizons = [int(tok) for tok in tokens]
    check_interval_args(args.alpha)
    for flag, count in (("--mc1-paths", args.mc1_paths), ("--trees", args.trees), ("--arity", args.arity)):
        if count < 1:
            raise ValueError(f"{flag} must be a positive integer")
    longest = _resolve_schedule(args, max(horizons))
    rows = []
    manifests = []
    for horizon in horizons:
        process = gaussian_iid(horizon=horizon)
        reward_spec = identity_reward()
        schedule = RateSchedule(rates=longest.rates[: horizon - 1])
        _, summary, manifest = _run(args, process, reward_spec, schedule)
        manifests.append(manifest.to_json())
        ci = clt_ci(summary, alpha=args.alpha)
        oracle = gaussian_dp_oracle(horizon)
        mc1 = mc1_estimate(process, reward_spec, args.mc1_paths, derive_substream(args.seed, (_BOOTSTRAP_KEY + 1, horizon)))
        tree = TreeSpec(arity=args.arity, forest_size=args.trees)
        mc2 = mc2_estimate(process, reward_spec, tree, derive_substream(args.seed, (_BOOTSTRAP_KEY + 2, horizon)))
        rows.append(
            {
                "horizon": horizon,
                "oracle": oracle,
                "muse_mean": summary.mean,
                "muse_se": summary.std_error,
                "muse_ci_lo": ci.lo,
                "muse_ci_hi": ci.hi,
                "muse_total_cost": summary.total_cost,
                "mc1_mean": mc1,
                "mc1_bias": mc1 - oracle,
                "mc2_mean": mc2,
                "mc2_bias": mc2 - oracle,
            }
        )
        print(
            f"T={horizon}: oracle={oracle:.6f}  muse={summary.mean:.6f} (se {summary.std_error:.6f})  "
            f"mc1={mc1:.6f} (bias {mc1 - oracle:+.4f})  mc2={mc2:.6f} (bias {mc2 - oracle:+.4f})"
        )
    path = _write_csv(args, "gaussian_suite.csv", list(rows[0]), (row.values() for row in rows))
    _write_json(args, "manifest.json", {"command": "gaussian-suite", "points": manifests})
    print(f"-> {path}")
    return 0


def _cmd_stop(args) -> int:
    config = _load_config(args)
    process, reward_spec = _resolve_instance(args, config)
    schedule = _resolve_schedule(args, process.horizon)
    policy_config = PolicyConfig(
        schedule=schedule,
        inner_replicates=args.inner_replicates,
        tolerance=args.tolerance,
        alpha=args.alpha,
    )
    record = _record(args, process, reward_spec, schedule)
    outcomes, reward_summary, manifest = _run_episodes(
        process, reward_spec, policy_config, args.episodes, args.seed, args.workers, record
    )
    _write_csv(args, "episodes.csv", ["episode_id", "tau", "realized_reward", "stage", "fx", "y_bar", "se", "decision"],
               ([o.episode, o.tau, o.realized_reward, d.stage, d.fx, d.y_bar, d.std_error, d.decision]
                for o in outcomes for d in o.diagnostics))
    taus = np.array([o.tau for o in outcomes], dtype=float)
    payload = {
        "episodes": len(outcomes),
        "mean_reward": reward_summary.mean,
        "std_error": reward_summary.std_error,
        "mean_tau": float(taus.mean()),
        "total_inner_cost": reward_summary.total_cost,
    }
    _write_json(args, "policy_summary.json", payload)
    _write_json(args, "manifest.json", manifest.to_json())
    print(
        f"episodes={len(outcomes)}  mean reward={reward_summary.mean:.6f} (se {reward_summary.std_error:.6f})  "
        f"mean tau={taus.mean():.3f}  -> {args.out_dir}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
