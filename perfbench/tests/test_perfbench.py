"""Guards for the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests

Tracing must not change what the program writes, the basket workload must
write the same replicates at one and two workers, the gates must be able
to fail, and BENCHMARK.json must match perfbench/spec.py.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from musemc import cli, estimator
from musemc.baselines import discrete_dp_oracle
from musemc.rewards import identity_reward
from perfbench import spec
from perfbench.tracing import Tracer
from perfbench.workloads import (
    WORKLOADS,
    BasketD10CliW2,
    ChainStopCli,
    Call,
    GaussT3Lib,
    continuation_values,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def _no_worker_override(monkeypatch):
    monkeypatch.delenv("MUSE_WORKERS", raising=False)


def _tiny(workload_cls, seed, out_dir):
    workload = workload_cls(seed, out_dir)
    workload.replicates_per_call = 40
    workload.inner_replicates = 500
    workload.episodes_per_call = 3
    workload.prepare()
    return workload


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert fh.read() == spec.render()


def test_spec_within_contract():
    bench = spec.benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in bench["end_to_end"] + bench["per_layer"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert set(WORKLOADS) == {w["name"] for w in bench["workloads"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_writes_the_same_bytes(name, tmp_path):
    workload = _tiny(WORKLOADS[name], 3, str(tmp_path / "out"))
    workload.call(0)
    plain = workload.record(0)
    originals = (estimator._run_batch, cli.main, estimator.compile_stepper)
    tracer = Tracer(str(tmp_path / "workers"))
    with tracer:
        workload.call(0)
        traced = workload.record(0)
    assert (estimator._run_batch, cli.main, estimator.compile_stepper) == originals
    assert traced.outputs == plain.outputs and traced.outputs
    assert tracer.merge_workers() == (name == BasketD10CliW2.name)
    # the spans saw the estimator's work, and counted the same draws the program reports
    assert tracer.counts["estimator.draws"] == plain.draws or name == ChainStopCli.name
    assert tracer.counts["processes.step_calls"] > 0 and tracer.cost_hist


def test_basket_replicates_same_at_one_and_two_workers(tmp_path):
    written = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        workload = BasketD10CliW2(5, str(out))
        assert cli.main(workload.argv(0, workers=workers, replicates=48)) == 0
        written.append((out / "replicates.csv").read_bytes())
    assert written[0] == written[1]


def test_continuation_values_agree_with_the_dp_oracle():
    process = ChainStopCli(0, "unused").process
    cont = continuation_values(process)
    support = np.asarray(process.support)
    first = np.maximum(support, [cont[1][x] for x in support.tolist()])
    value = float(np.asarray(process.transitions[0]) @ first)
    assert value == pytest.approx(discrete_dp_oracle(process, identity_reward()), abs=1e-12)


def test_gates_fail_on_wrong_output():
    gauss = GaussT3Lib(0, "unused")
    assert gauss.check([Call(1000, 1, sample=(1000, 0.63, 1.0))])[0]
    assert not gauss.check([Call(1000, 1, sample=(1000, 1.0, 1.0))])[0]
    basket = BasketD10CliW2(0, "unused")
    assert not basket.check([Call(10**6, 1, sample=(10**6, 1.1, 1.0))])[0]
    chain = ChainStopCli(0, "unused")
    right = (1, -2.0, chain.continuation[1][-2.0], 0.01)
    assert chain.check([Call(1, 1, sample=((right,), (1.0, 0.0)))])[0]
    wrong = (1, -2.0, chain.continuation[1][-2.0] + 0.1, 0.01)
    assert not chain.check([Call(1, 1, sample=((wrong,), (1.0, 0.0)))])[0]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gauss-t3-lib", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
