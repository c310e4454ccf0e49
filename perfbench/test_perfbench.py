"""Self-tests of the benchmark at toy size.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SEARCH_LAYER = (
    "search.synthesize_s", "search.self_s", "search.moves_s", "search.proposals",
    "search.evaluations", "search.memo_hits", "search.cutoff_truncations",
    "search.checkpoint_hit_ratio", "search.reused_rounds", "search.engine_share",
    "certify.s",
)
FAULTS_LAYER = (
    "faults.sample_s", "faults.kernel_s", "faults.adversarial_s", "faults.trials",
    "faults.batches", "faults.compactions", "faults.exact_replays", "faults.replay_ratio",
)
BYPASSED = {
    "simulate-large": SEARCH_LAYER + FAULTS_LAYER,
    "optimize-small": FAULTS_LAYER,
    "faults-mc": SEARCH_LAYER,
}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "toy",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert lines[-2].startswith("host ")
    host = json.loads(lines[-2][len("host "):])
    assert {"cpu", "nproc", "python", "numpy", "git_rev", "source_sha256"} <= set(host)


def _traced_summary(workload):
    passes = [
        worker.run_pass(workload, 5, traced=traced, scale="toy") for traced in (False, True)
    ]
    return passes, run.summarize(passes, trace=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_account_for_wall_and_skip_bypassed_layers(workload):
    passes, result = _traced_summary(workload)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert result["correct"] and metrics["failed_ratio"] == 0
    assert 0.9 <= metrics["trace.accounted_ratio"] <= 1.0
    assert metrics["engines.calls"] > 0
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, name
    # the traced pass leaves no wrapper behind
    from repro.gossip.engines import available_engines, get_engine
    from repro.gossip.engines.base import RoundProgram
    from repro.search.moves import Neighborhood

    assert not hasattr(RoundProgram.from_schedule, "__wrapped__")
    assert not hasattr(Neighborhood.propose, "__wrapped__")
    for name in available_engines():
        assert not hasattr(type(get_engine(name)).run_checkpointed, "__wrapped__")


def _off_by_one(function):
    return lambda *args, **kwargs: function(*args, **kwargs) + 1


def _looped_without_completions(function):
    def corrupted(*args, **kwargs):
        result = function(*args, **kwargs)
        if kwargs.get("method") == "looped":
            return dataclasses.replace(
                result, completion_rounds=(None,) * len(result.completion_rounds)
            )
        return result

    return corrupted


@pytest.mark.parametrize(
    "workload, attr, corrupt",
    [
        # the plain gossip time the tracked jobs are checked against
        ("simulate-large", "gossip_time", _off_by_one),
        # the reference re-simulation of every search winner
        ("optimize-small", "gossip_time", _off_by_one),
        # the looped Monte-Carlo oracle
        ("faults-mc", "monte_carlo", _looped_without_completions),
    ],
)
def test_corrupted_expected_value_raises_failed_ratio(monkeypatch, workload, attr, corrupt):
    monkeypatch.setattr(workloads, attr, corrupt(getattr(workloads, attr)))
    passes, result = _traced_summary(workload)
    assert not result["correct"]
    assert result["metrics"]["failed_ratio"]["value"] > 0
    assert all(p["failures"] for p in passes)
