"""CLI surface of the telemetry layer: --trace, --metrics, stats, logging.

Every test drives :func:`repro.cli.main` in-process, so the suite covers
the real flag plumbing (global ``--trace``/``-v``/``-q``, per-command
``--metrics``, the ``stats`` subcommand and its Chrome export) and the
acceptance contract: a traced ``optimize`` run emits a
schema-valid JSONL stream whose spans and counters cover engine-resolution
rationale, checkpoint reuse and per-phase wall time, and a traced
``robustness`` run one whose Monte-Carlo span nests under the command —
each while printing output bit-identical to the untraced run.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main
from repro.telemetry import TRACE_ENV_VAR
from repro.telemetry.trace import iter_trace, read_stats

OPTIMIZE_ARGS = [
    "optimize",
    "--family",
    "cycle",
    "--size",
    "8",
    "--iterations",
    "30",
    "--engine",
    "frontier",
]


def test_traced_optimize_output_identical_and_trace_valid(tmp_path, capsys):
    assert main(OPTIMIZE_ARGS) == 0
    untraced = capsys.readouterr().out

    trace = tmp_path / "trace.jsonl"
    assert main(["--trace", str(trace), *OPTIMIZE_ARGS]) == 0
    traced = capsys.readouterr().out

    assert traced == untraced, "tracing changed the optimize output"

    events = list(iter_trace(str(trace)))  # every line validates
    assert events[0]["type"] == "meta"
    stats = read_stats(str(trace))

    # Per-phase wall time: the CLI phases nest under the command span.
    spans = {s.name: s for s in stats.spans}
    assert {"cli.command", "cli.synthesize", "cli.certify"} <= set(spans)
    command = spans["cli.command"]
    assert spans["cli.synthesize"].parent_id == command.span_id
    assert spans["cli.certify"].parent_id == command.span_id
    assert command.duration_ns >= spans["cli.synthesize"].duration_ns

    # Engine-resolution rationale.
    resolves = [e for e in stats.events if e.name == "engine.resolve"]
    assert resolves and all(e.attrs["rationale"] for e in resolves)

    # Checkpoint-reuse counters from the search evaluator.
    assert stats.counter("search.incremental", "evaluations") > 0
    hits = stats.counter("search.incremental", "checkpoint_hits")
    misses = stats.counter("search.incremental", "checkpoint_misses")
    assert hits + misses > 0

    # Engine run counters flushed once per run.
    assert stats.counter("engine.frontier", "runs") > 0


ROBUSTNESS_ARGS = ["robustness", "--family", "cycle", "--size", "16", "--trials", "20"]


def test_traced_robustness_output_identical_and_trace_valid(tmp_path, capsys):
    assert main(ROBUSTNESS_ARGS) == 0
    untraced = capsys.readouterr().out

    trace = tmp_path / "trace.jsonl"
    assert main(["--trace", str(trace), *ROBUSTNESS_ARGS]) == 0
    traced = capsys.readouterr().out

    assert traced == untraced, "tracing changed the robustness output"
    assert list(iter_trace(str(trace)))  # every line validates
    stats = read_stats(str(trace))
    spans = {s.name: s for s in stats.spans}
    assert spans["faults.monte_carlo"].parent_id == spans["cli.command"].span_id
    assert spans["faults.monte_carlo"].attrs["method"] == "batched"
    assert stats.counter("faults.montecarlo", "trials") == 20


def test_trace_env_var_is_the_fallback(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "env-trace.jsonl"
    monkeypatch.setenv(TRACE_ENV_VAR, str(trace))
    assert main(OPTIMIZE_ARGS) == 0
    capsys.readouterr()
    assert trace.exists()
    assert list(iter_trace(str(trace)))


def test_metrics_prints_runstats_table(capsys):
    assert main([*OPTIMIZE_ARGS, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "cli.synthesize" in out
    assert "engine.frontier.runs" in out
    assert "engine.resolve:" in out


def test_stats_subcommand_summarises_and_exports(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["--trace", str(trace), *OPTIMIZE_ARGS]) == 0
    capsys.readouterr()

    chrome = tmp_path / "trace.chrome.json"
    assert main(["stats", str(trace), "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "cli.command" in out
    assert "search.incremental.checkpoint_hits" in out

    converted = json.loads(chrome.read_text())
    assert converted["traceEvents"], "Chrome export is empty"
    assert {e["ph"] for e in converted["traceEvents"]} <= {"X", "i"}


def test_stats_subcommand_rejects_bad_traces(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing.jsonl")]) == 1
    assert "cannot read trace" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "mystery"}\n')
    assert main(["stats", str(bad)]) == 1
    assert "invalid trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("flags", "expected_level"),
    [([], logging.WARNING), (["-v"], logging.INFO), (["-vv"], logging.DEBUG), (["-q"], logging.ERROR)],
)
def test_verbosity_flags_set_root_level(flags, expected_level, capsys, monkeypatch):
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    old_level = root.level
    try:
        assert main([*flags, "fig4"]) == 0
    finally:
        capsys.readouterr()
        level = root.level
        root.setLevel(old_level)
    assert level == expected_level
