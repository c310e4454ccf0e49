"""Unit and neutrality tests for the :mod:`repro.telemetry` subsystem.

Two families:

* **mechanics** — the recorder registry (NullRecorder default, ``recording``
  scoping), span nesting and parent attribution, the flush-once counter
  contract, :class:`RunStats` merging/formatting, the JSONL sink, schema
  validation and the Chrome trace exporter.
* **neutrality** — recording telemetry must never change results.  Engine
  neutrality is registry-parametrized (whole-``SimulationResult`` equality:
  telemetry lives only in the recorder, never on a result); search
  neutrality compares outcome fields (``SystolicSchedule`` equality is
  identity, so whole-result comparison is meaningless); Monte-Carlo
  neutrality compares whole :class:`FaultTrialResult` objects.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro import telemetry
from repro.faults import BernoulliArcFaults, monte_carlo, monte_carlo_stacked
from repro.gossip.engines import (
    available_engines,
    explain_engine_selection,
    get_engine,
    resolve_engine,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, make_round
from repro.protocols.generic import coloring_systolic_schedule
from repro.search import hill_climb, synthesize_schedule
from repro.telemetry.trace import (
    EVENT_TYPES,
    TraceError,
    chrome_trace,
    iter_trace,
    read_stats,
    validate_event,
)
from repro.topologies.classic import cycle_graph, grid_2d


def _cycle_program(n: int) -> RoundProgram:
    schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
    return RoundProgram.from_schedule(schedule)


# --------------------------------------------------------------------- #
# Recorder registry


def test_default_recorder_is_null():
    rec = telemetry.get_recorder()
    assert isinstance(rec, telemetry.NullRecorder)
    assert rec.enabled is False
    assert rec.stats is None


def test_recording_scopes_the_recorder():
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder) as installed:
        assert installed is recorder
        assert telemetry.get_recorder() is recorder
    assert isinstance(telemetry.get_recorder(), telemetry.NullRecorder)


def test_recording_restores_on_exception():
    recorder = telemetry.StatsRecorder()
    with pytest.raises(RuntimeError):
        with telemetry.recording(recorder):
            raise RuntimeError("boom")
    assert isinstance(telemetry.get_recorder(), telemetry.NullRecorder)


def test_module_level_helpers_are_noops_when_disabled():
    # Must not raise and must not record anywhere.
    telemetry.counters("engine.test", {"runs": 1})
    telemetry.event("nothing", detail=1)
    telemetry.record_span("nothing", 0)
    with telemetry.span("nothing") as span_id:
        assert span_id is None
    assert telemetry.current_span_id() is None


# --------------------------------------------------------------------- #
# Spans


def test_span_nesting_records_parent_ids():
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        with telemetry.span("outer") as outer_id:
            assert telemetry.current_span_id() == outer_id
            with telemetry.span("inner") as inner_id:
                assert telemetry.current_span_id() == inner_id
        assert telemetry.current_span_id() is None
    spans = {s.name: s for s in recorder.stats.spans}
    assert set(spans) == {"outer", "inner"}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None
    # Inner finishes first, so it is recorded first.
    assert recorder.stats.spans[0].name == "inner"
    assert spans["outer"].duration_ns >= spans["inner"].duration_ns >= 0


def test_record_span_attributes_to_enclosing_span():
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        with telemetry.span("outer") as outer_id:
            import time

            telemetry.record_span("leaf", time.perf_counter_ns(), engine="x")
            # record_span never becomes the current span.
            assert telemetry.current_span_id() == outer_id
    leaf = next(s for s in recorder.stats.spans if s.name == "leaf")
    assert leaf.parent_id == outer_id
    assert leaf.attrs["engine"] == "x"


# --------------------------------------------------------------------- #
# Counters and RunStats


@pytest.mark.parametrize("name", available_engines())
def test_engine_flushes_counters_once_per_run(name):
    program = _cycle_program(12)
    engine = get_engine(name)
    recorder = _CountingRecorder()
    with telemetry.recording(recorder):
        engine.run(program)
    assert recorder.flushes == [(f"engine.{name}", 1)]


def _one_arc_program() -> RoundProgram:
    """One arc per period on C(8), 20 rounds: nothing moves after round 1."""
    return RoundProgram(
        cycle_graph(8), (make_round([(0, 1)]),), cyclic=True, max_rounds=20
    )


@pytest.mark.parametrize("name", available_engines())
@pytest.mark.parametrize("case", ["cold", "resumed", "fixed-point"])
def test_engine_round_counters_cover_the_executed_rounds(name, case):
    # Every executed round is either simulated or synthesized after a
    # fixed-point exit, and the run's span names the round it resumed at.
    engine = get_engine(name)
    program = _one_arc_program() if case == "fixed-point" else _cycle_program(12)
    state = None
    if case == "resumed":
        (state,) = engine.run_checkpointed(program, checkpoint_rounds=(3,)).checkpoints
    base = 0 if state is None else state.round
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        result = engine.run_checkpointed(program, resume_from=state).result
    counts = recorder.stats.counters[f"engine.{name}"]
    assert counts["runs"] == 1
    synthesized = counts.get("rounds_synthesized", 0)
    assert counts["rounds_simulated"] + synthesized == result.rounds_executed - base
    early_exit = recorder.stats.histograms.get(f"engine.{name}.early_exit_round")
    if case == "fixed-point":
        assert (result.rounds_executed, result.completion_round) == (20, None)
        # Frontier stops after a round without news (period 1); vectorized
        # at the end of its first unchanged batch, rounds 2-3.
        exit_round = {"frontier": 2, "vectorized": 3}.get(name)
        if exit_round is None:
            assert synthesized == 0 and early_exit is None
        else:
            assert (counts["rounds_simulated"], synthesized) == (exit_round, 20 - exit_round)
            assert (early_exit.count, early_exit.min, early_exit.max) == (1, exit_round, exit_round)
    else:
        assert result.completion_round is not None and synthesized == 0
        assert early_exit is None
    (span,) = [s for s in recorder.stats.spans if s.name == "engine.run"]
    assert span.attrs == {"engine": name, "n": program.graph.n, "resumed_round": base}


@pytest.mark.parametrize("name", available_engines())
def test_engine_counter_names_do_not_depend_on_the_start(name):
    # A run resumed from its completed state never enters the round loop,
    # yet it flushes the same counters as the run that reached completion.
    engine = get_engine(name)
    program = _cycle_program(12)
    done = engine.run(program).completion_round
    cold_recorder, finished_recorder = telemetry.StatsRecorder(), telemetry.StatsRecorder()
    with telemetry.recording(cold_recorder):
        cold = engine.run_checkpointed(program, checkpoint_rounds=(done,))
    with telemetry.recording(finished_recorder):
        finished = engine.run_checkpointed(program, resume_from=cold.checkpoints[0]).result
    component = f"engine.{name}"
    assert finished.rounds_executed == done
    assert finished_recorder.stats.counters[component] == {
        **dict.fromkeys(cold_recorder.stats.counters[component], 0),
        "runs": 1,
    }


class _CountingRecorder(telemetry.Recorder):
    """Counts how many times each component flushed (the once-per-run contract)."""

    def __init__(self) -> None:
        super().__init__()
        self.flushes: list[tuple[str, int]] = []

    def counters(self, component, counts):
        super().counters(component, counts)
        for i, (seen, n) in enumerate(self.flushes):
            if seen == component:
                self.flushes[i] = (seen, n + 1)
                break
        else:
            self.flushes.append((component, 1))


def test_runstats_merge_sums_counters():
    a = telemetry.RunStats(counters={"engine.x": {"runs": 1, "rounds": 5}})
    b = telemetry.RunStats(counters={"engine.x": {"runs": 2, "slots": 7}})
    a.merge(b).merge(None)
    assert a.counters["engine.x"] == {"runs": 3, "rounds": 5, "slots": 7}
    assert a.counter("engine.x", "slots") == 7
    assert a.counter("engine.x", "missing", 42) == 42


def test_runstats_format_table_mentions_counters_and_spans():
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        with telemetry.span("phase.one"):
            telemetry.counters("engine.x", {"runs": 3})
    table = recorder.stats.format_table()
    assert "phase.one" in table
    assert "engine.x.runs" in table
    assert telemetry.RunStats().format_table() == "(no telemetry recorded)"


def test_recorder_logs_at_debug(caplog):
    recorder = telemetry.StatsRecorder()
    with caplog.at_level(logging.DEBUG, logger="repro.telemetry"):
        with telemetry.recording(recorder):
            telemetry.counters("engine.x", {"runs": 1})
    assert any("engine.x" in message for message in caplog.messages)


# --------------------------------------------------------------------- #
# JSONL sink, validation, Chrome export


def _traced_run(n: int = 12) -> tuple[telemetry.JsonlRecorder, str]:
    buffer = io.StringIO()
    recorder = telemetry.JsonlRecorder(buffer)
    program = _cycle_program(n)
    with telemetry.recording(recorder):
        with telemetry.span("test.root", n=n):
            resolve_engine("auto", program).run(program)
    recorder.close()
    return recorder, buffer.getvalue()


def test_jsonl_lines_all_validate():
    _, text = _traced_run()
    lines = [json.loads(line) for line in text.splitlines() if line]
    assert lines[0]["type"] == "meta"
    assert lines[0]["schema"] == telemetry.SCHEMA_TAG
    kinds = set()
    for lineno, obj in enumerate(lines, start=1):
        validate_event(obj, lineno)
        kinds.add(obj["type"])
    assert {"meta", "span", "counters", "event"} <= kinds


def test_read_stats_round_trips(tmp_path):
    recorder, text = _traced_run()
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    stats = read_stats(str(path))
    assert stats.counters == recorder.stats.counters
    assert [s.name for s in stats.spans] == [s.name for s in recorder.stats.spans]
    assert [e.name for e in stats.events] == [e.name for e in recorder.stats.events]


def test_validate_event_rejects_malformed():
    with pytest.raises(TraceError):
        validate_event(["not", "a", "dict"])
    with pytest.raises(TraceError):
        validate_event({"type": "mystery"})
    with pytest.raises(TraceError):
        validate_event({"type": "span", "name": "x"})  # missing keys
    with pytest.raises(TraceError):
        validate_event({"type": "meta", "schema": "other/9"})
    with pytest.raises(TraceError):
        validate_event(
            {"type": "counters", "component": "c", "counters": {"bad": "str"}}
        )
    for kind, keys in EVENT_TYPES.items():
        assert isinstance(keys, tuple)


def test_iter_trace_reports_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(TraceError, match="line 1"):
        list(iter_trace(str(path)))


def test_chrome_trace_structure(tmp_path):
    _, text = _traced_run()
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    converted = chrome_trace(iter_trace(str(path)))
    assert converted["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in converted["traceEvents"]}
    assert phases == {"X", "i"}
    complete = [e for e in converted["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in complete}
    assert {"test.root", "engine.run"} <= names
    child = next(e for e in complete if e["name"] == "engine.run")
    root = next(e for e in complete if e["name"] == "test.root")
    assert child["args"]["parent_span"] is not None
    assert root["dur"] >= child["dur"] > 0


# --------------------------------------------------------------------- #
# Neutrality: recording never changes results


@pytest.mark.parametrize("engine_name", available_engines())
def test_engine_results_identical_under_recording(engine_name):
    program = _cycle_program(20)
    engine = get_engine(engine_name)
    off = engine.run(program, track_arrivals=True, track_item_completion=True)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        on = engine.run(program, track_arrivals=True, track_item_completion=True)
    assert off == on
    component = f"engine.{engine_name}"
    assert recorder.stats.counter(component, "runs") == 1
    assert recorder.stats.counter(component, "rounds_simulated") > 0


def test_search_outcomes_identical_under_recording():
    graph = cycle_graph(10)
    off = synthesize_schedule(graph, Mode.HALF_DUPLEX, seed=1, max_iters=20)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        on = synthesize_schedule(graph, Mode.HALF_DUPLEX, seed=1, max_iters=20)
    # SystolicSchedule equality is identity; compare outcome fields.
    assert on.schedule.base_rounds == off.schedule.base_rounds
    assert on.objective == off.objective
    assert on.history == off.history
    assert on.evaluations == off.evaluations
    assert on.iterations == off.iterations
    assert any(c.startswith("search.") for c in recorder.stats.counters)
    assert any(c.startswith("engine.") for c in recorder.stats.counters)


def test_incremental_search_reports_checkpoint_reuse():
    schedule = coloring_systolic_schedule(cycle_graph(16), Mode.HALF_DUPLEX)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        hill_climb(schedule, seed=0, engine="frontier", max_iters=25)
    stats = recorder.stats
    assert stats.counter("search.incremental", "evaluations") > 0
    hits = stats.counter("search.incremental", "checkpoint_hits")
    misses = stats.counter("search.incremental", "checkpoint_misses")
    assert hits + misses > 0
    if hits:
        assert stats.counter("search.incremental", "reused_rounds") > 0


def test_monte_carlo_identical_under_recording():
    schedule = coloring_systolic_schedule(cycle_graph(24), Mode.HALF_DUPLEX)
    model = BernoulliArcFaults(0.1)
    off = monte_carlo(schedule, model, trials=20, seed=3)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        on = monte_carlo(schedule, model, trials=20, seed=3)
    assert off == on
    counters = recorder.stats.counters["faults.montecarlo"]
    assert counters["trials"] == 20
    assert counters["batches"] > 0
    assert counters["exact_replays"] == counters["completed"]
    assert any(s.name == "faults.monte_carlo" for s in recorder.stats.spans)


def test_monte_carlo_horizon_is_one_histogram_sample_per_call():
    # The horizon is a round limit: two calls with horizon 48 read 48, not
    # the 96 a summed counter would.
    schedule = coloring_systolic_schedule(cycle_graph(12), Mode.HALF_DUPLEX)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        for seed in (1, 2):
            result = monte_carlo(
                schedule, BernoulliArcFaults(0.1), trials=4, seed=seed, max_rounds=48
            )
            assert result.horizon == 48
    assert "horizon" not in recorder.stats.counters["faults.montecarlo"]
    horizon = recorder.stats.histograms["faults.montecarlo.horizon"]
    assert (horizon.count, horizon.min, horizon.max) == (2, 48, 48)


def test_each_monte_carlo_call_flushes_one_counter_set_and_one_span():
    # A batched monte_carlo is the one-candidate stacked call, and the looped
    # path flushes through the same helper: every call leaves one
    # faults.montecarlo counter set and one faults.monte_carlo span.
    schedule = coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX)
    candidates = [
        schedule,
        coloring_systolic_schedule(cycle_graph(9), Mode.FULL_DUPLEX),
        coloring_systolic_schedule(grid_2d(3, 3), Mode.HALF_DUPLEX),
    ]
    model = BernoulliArcFaults(0.2)
    calls = [
        ("batched", 1, lambda: [monte_carlo(schedule, model, trials=5, seed=1)]),
        ("batched", 3, lambda: list(monte_carlo_stacked(candidates, model, trials=4, seed=1))),
        (
            "looped",
            1,
            lambda: [
                monte_carlo(
                    schedule, model, trials=3, seed=1, engine="reference", method="looped"
                )
            ],
        ),
    ]
    for method, candidate_count, call in calls:
        recorder = _CountingRecorder()
        with telemetry.recording(recorder):
            results = call()
        fault_flushes = [f for f in recorder.flushes if f[0].startswith("faults.")]
        assert fault_flushes == [("faults.montecarlo", 1)], method
        counters = recorder.stats.counters["faults.montecarlo"]
        assert counters["candidates"] == candidate_count == len(results)
        assert counters["trials"] == sum(result.trials for result in results)
        assert counters["completed"] == sum(result.completed for result in results)
        (span,) = [s for s in recorder.stats.spans if s.name.startswith("faults.")]
        assert span.name == "faults.monte_carlo"
        assert span.attrs["method"] == method
        assert span.attrs["engine"] == results[0].engine_name


# --------------------------------------------------------------------- #
# Engine-resolution rationale


def test_engine_resolve_event_explains_auto_choice():
    program = _cycle_program(16)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        resolved = resolve_engine("auto", program)
    events = [e for e in recorder.stats.events if e.name == "engine.resolve"]
    assert len(events) == 1
    attrs = events[0].attrs
    assert attrs["resolved"] == resolved.name
    assert attrs["source"] == "auto-program"
    expected_name, expected_rationale = explain_engine_selection(
        program, track_arrivals=False
    )
    assert attrs["resolved"] == expected_name
    assert attrs["rationale"] == expected_rationale
    assert attrs["n"] == program.graph.n


def test_engine_resolve_event_explicit_and_env(monkeypatch):
    program = _cycle_program(16)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        resolve_engine("reference", program)
    assert recorder.stats.events[-1].attrs["source"] == "explicit"

    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        resolved = resolve_engine("auto", program)
    assert resolved.name == "reference"
    assert recorder.stats.events[-1].attrs["source"] == "env"
