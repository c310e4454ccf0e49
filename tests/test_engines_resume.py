"""Differential checkpoint/resume suite: resume is bit-exact by construction.

The checkpoint layer (:mod:`repro.gossip.engines.checkpoint`) promises that
resuming an :class:`EngineState` on a program whose executed prefix matches
the producing run's returns a result **bit-identical to the cold run** —
and that the snapshot encoding is canonical, so any checkpointable backend
can resume any other's state.  This suite certifies both claims
differentially, per backend drawn from the registry:

* **every-prefix roundtrips** — each program is run with a checkpoint
  after *every* round; every captured state of every engine is resumed on
  every checkpointable engine (all ordered producer → consumer pairs) and
  the continuation must equal the reference cold run on every observable
  field, including item completions and the arrival matrix;
* **state canonicality** — all engines capture identical state sequences
  (rounds, knowledge, completion stamps, tracked prefixes) for the same
  program, which is what makes the cross-engine resumes above meaningful;
* **all tracking-flag combinations** — the option signature is part of the
  state; all four flag combos roundtrip on at least one program, and
  subset / unreachable target masks ride along;
* **edge programs** — finite (non-cyclic) budgets, fixed-point runs that
  never complete (whose tail states the frontier and vectorized engines
  *synthesize* after their early exit, in both vectorized kernel regimes),
  trivially complete round-0 programs;
* **validation** — mismatched vertex counts, budgets, masks, flags and
  malformed tracked prefixes are rejected with :class:`SimulationError`
  before any simulation runs, as is `resume_from`+`initial` together; a
  checkpoint round past the end of a run captures no state;
* **kernel regimes** — the roundtrip and semantics classes run once per
  vectorized kernel regime (source map and row-permuted), and a state
  captured in one regime resumes in the other.

A future backend registered with checkpoint support inherits the whole
suite through the registry scan, exactly like the differential and fuzz
suites.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import (
    EngineState,
    available_engines,
    get_engine,
    vectorized,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule, make_round
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d, path_graph

from test_engines_differential import assert_results_identical

#: Every registered engine: checkpointing is part of the engine protocol.
CHECKPOINTABLE = available_engines()


def _directed_program() -> RoundProgram:
    """Asymmetric directed rounds (non-matchings included) on a chorded cycle."""
    n = 6
    graph = Digraph(
        range(n),
        [((i, (i + 1) % n)) for i in range(n)] + [(0, 3), (2, 5)],
        name="C6-chords",
    )
    rounds = (
        make_round([(0, 1), (2, 3), (0, 3)]),  # deliberately non-matching
        make_round([(1, 2), (4, 5)]),
        make_round([(3, 4), (5, 0), (2, 5)]),
    )
    return RoundProgram(graph, rounds, cyclic=True, max_rounds=40)


def _never_completing_program() -> RoundProgram:
    """Forward-only path rounds: knowledge saturates without completing."""
    n = 7
    graph = path_graph(n)
    rounds = [[(i, i + 1)] for i in range(n - 1)]
    schedule = SystolicSchedule(graph, rounds, mode=Mode.DIRECTED)
    return RoundProgram.from_schedule(schedule, 30)


PROGRAMS = {
    "cycle-coloring": lambda: RoundProgram.from_schedule(
        coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX)
    ),
    "grid-full-duplex": lambda: RoundProgram.from_schedule(
        coloring_systolic_schedule(grid_2d(3, 3), Mode.FULL_DUPLEX)
    ),
    "random-sparse": lambda: RoundProgram.from_schedule(
        random_systolic_schedule(
            grid_2d(3, 4), 4, Mode.HALF_DUPLEX, seed=5, activation_probability=0.6
        )
    ),
    "directed-chords": _directed_program,
    "finite-prefix": lambda: RoundProgram(
        cycle_graph(8),
        coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX).base_rounds * 3,
        cyclic=False,
        max_rounds=6,
    ),
    "never-completing": _never_completing_program,
}

#: All four tracking-flag combinations.
FLAG_COMBOS = [
    dict(zip(("track_item_completion", "track_arrivals"), bits))
    for bits in itertools.product((False, True), repeat=2)
]


def _flag_id(options: dict) -> str:
    return "".join("1" if options[k] else "0" for k in sorted(options)) or "plain"


def run_all_checkpointed(program: RoundProgram, options: dict) -> dict:
    """Every checkpointable engine's run with a state captured per round."""
    every = range(program.max_rounds + 1)
    return {
        name: get_engine(name).run_checkpointed(
            program, checkpoint_rounds=every, **options
        )
        for name in CHECKPOINTABLE
    }


def assert_states_identical(a: EngineState, b: EngineState, context="") -> None:
    assert a.round == b.round, context
    assert a.knowledge == b.knowledge, (context, a.round)
    assert a.completion_round == b.completion_round, (context, a.round)
    assert a.target_mask == b.target_mask, (context, a.round)
    assert a.item_completion == b.item_completion, (context, a.round)
    assert a.arrivals == b.arrivals, (context, a.round)


def check_roundtrip(program: RoundProgram, options: dict, context="") -> None:
    """Every prefix state of every engine resumes on every engine, exactly."""
    runs = run_all_checkpointed(program, options)
    cold = runs["reference"].result
    reference_states = runs["reference"].checkpoints
    assert reference_states, context  # round 0 is always capturable
    for name, run in runs.items():
        assert_results_identical(cold, run.result, (context, name))
        assert [s.round for s in run.checkpoints] == [
            s.round for s in reference_states
        ], (context, name)
        for expected, got in zip(reference_states, run.checkpoints):
            assert_states_identical(expected, got, (context, name))
    for producer, run in runs.items():
        for state in run.checkpoints:
            for consumer in CHECKPOINTABLE:
                resumed = get_engine(consumer).run_checkpointed(
                    program, resume_from=state, **options
                ).result
                assert_results_identical(
                    cold, resumed, (context, producer, "->", consumer, state.round)
                )


def test_registry_checkpoint_support():
    """Every registered backend — tiled kernel included — checkpoints."""
    assert set(CHECKPOINTABLE) == {"reference", "vectorized", "frontier"}


@pytest.mark.usefixtures("vectorized_regime")
class TestEveryPrefixRoundtrip:
    @pytest.mark.parametrize("options", FLAG_COMBOS, ids=_flag_id)
    def test_all_flag_combos_on_cycle(self, options):
        check_roundtrip(PROGRAMS["cycle-coloring"](), dict(options), "cycle")

    @pytest.mark.parametrize(
        "name", [k for k in sorted(PROGRAMS) if k != "cycle-coloring"]
    )
    @pytest.mark.parametrize(
        "options",
        [{"track_arrivals": True}, {"track_item_completion": True}],
        ids=["arrivals", "items"],
    )
    def test_program_zoo(self, name, options):
        check_roundtrip(PROGRAMS[name](), dict(options), name)

    @pytest.mark.parametrize(
        "target_mask", [0b101, 1 << 9], ids=["subset", "unreachable"]
    )
    def test_target_masks_roundtrip(self, target_mask):
        program = PROGRAMS["cycle-coloring"]()
        options = {"target_mask": target_mask}
        check_roundtrip(program, options, f"mask={target_mask:b}")

    def test_custom_initial_state_roundtrips(self):
        # High bits above n exercise word widths, and every engine must
        # carry them through every round's state, not only the final one;
        # `initial` is dropped from the resume call because the state
        # carries the knowledge vector.
        program = PROGRAMS["cycle-coloring"]()
        n = program.graph.n
        initial = [(1 << i) | (1 << (n + 2)) for i in range(n)]
        runs = run_all_checkpointed(program, {"initial": initial})
        cold = runs["reference"].result
        reference_states = runs["reference"].checkpoints
        for producer, run in runs.items():
            assert len(run.checkpoints) == len(reference_states), producer
            for expected, got in zip(reference_states, run.checkpoints):
                assert_states_identical(expected, got, producer)
            for state in run.checkpoints:
                for consumer in CHECKPOINTABLE:
                    resumed = get_engine(consumer).run_checkpointed(
                        program, resume_from=state
                    ).result
                    assert_results_identical(
                        cold, resumed, (producer, "->", consumer, state.round)
                    )

    def test_trivially_complete_program(self):
        # n = 1 completes at round 0; the only state is the completed one
        # and resuming it short-circuits to the finished result.
        graph = Digraph([0], [], name="K1")
        program = RoundProgram(graph, (make_round([]),), cyclic=True, max_rounds=8)
        for name in CHECKPOINTABLE:
            run = get_engine(name).run_checkpointed(program, checkpoint_rounds=range(9))
            assert run.result.completion_round == 0
            assert [s.round for s in run.checkpoints] == [0], name
            state = run.checkpoints[0]
            assert state.completion_round == 0
            for consumer in CHECKPOINTABLE:
                resumed = get_engine(consumer).run_checkpointed(
                    program, resume_from=state
                ).result
                assert_results_identical(run.result, resumed, (name, consumer))


@pytest.mark.usefixtures("vectorized_regime")
class TestCheckpointSemantics:
    def test_completing_run_stops_capturing(self):
        """No state exists past the completion round, and the completing
        round's state carries the completion stamp."""
        program = PROGRAMS["cycle-coloring"]()
        for name in CHECKPOINTABLE:
            run = run_all_checkpointed(program, {})[name]
            c = run.result.completion_round
            assert c is not None
            rounds = [s.round for s in run.checkpoints]
            assert rounds == list(range(c + 1)), name
            for state in run.checkpoints:
                expected = c if state.round == c else None
                assert state.completion_round == expected, (name, state.round)

    def test_fixed_point_tail_states_are_synthesized(self):
        """States inside a sparse engine's early-exit region exist and equal
        the saturated knowledge (the run is a fixed point there)."""
        program = _never_completing_program()
        runs = run_all_checkpointed(program, {})
        for name, run in runs.items():
            assert run.result.completion_round is None
            rounds = [s.round for s in run.checkpoints]
            assert rounds == list(range(program.max_rounds + 1)), name
            tail = run.checkpoints[-1]
            assert tail.knowledge == run.result.knowledge, name

    def test_single_checkpoint_round_captures_one_state(self):
        program = PROGRAMS["cycle-coloring"]()
        for name in CHECKPOINTABLE:
            run = get_engine(name).run_checkpointed(program, checkpoint_rounds=(3,))
            (state,) = run.checkpoints
            assert state.round == 3
            assert state.completion_round is None

    def test_checkpoint_past_completion_is_absent(self):
        program = PROGRAMS["cycle-coloring"]()
        completion = get_engine("reference").run(program).completion_round
        assert completion is not None
        for name in CHECKPOINTABLE:
            run = get_engine(name).run_checkpointed(
                program, checkpoint_rounds=(completion + 1,)
            )
            assert run.checkpoints == (), name

    def test_unreached_checkpoint_rounds_are_skipped(self):
        program = PROGRAMS["cycle-coloring"]()
        for name in CHECKPOINTABLE:
            run = get_engine(name).run_checkpointed(program, checkpoint_rounds=(2, 10_000))
            assert [s.round for s in run.checkpoints] == [2], name

    def test_resumed_budget_extension_matches_longer_cold_run(self):
        """Resuming under a larger budget equals the cold run of that budget
        — the state is a true mid-run snapshot, not tied to one horizon."""
        program = _never_completing_program()
        longer = RoundProgram(
            program.graph, program.rounds, cyclic=program.cyclic, max_rounds=45
        )
        cold = get_engine("reference").run(longer)
        for name in CHECKPOINTABLE:
            (state,) = get_engine(name).run_checkpointed(
                program, checkpoint_rounds=(12,)
            ).checkpoints
            for consumer in CHECKPOINTABLE:
                resumed = get_engine(consumer).run_checkpointed(
                    longer, resume_from=state
                ).result
                assert_results_identical(cold, resumed, (name, consumer))


class TestKernelRegimeResume:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_capture_in_one_regime_resume_in_the_other(self, name, monkeypatch):
        """The source-map and permuted kernels capture identical states, and
        each regime resumes the other's states bit-exactly.  Both regimes
        share one slot cache, as a search walk's evaluator would."""
        program = PROGRAMS[name]()
        assert vectorized._uses_source_map(program.graph.n, 1)
        options = {"track_item_completion": True, "track_arrivals": True}
        cold = get_engine("reference").run(program, **options)
        engine = get_engine("vectorized")
        every = range(program.max_rounds + 1)
        slot_cache: dict = {}
        source_map = engine.run_checkpointed(
            program, checkpoint_rounds=every, slot_cache=slot_cache, **options
        )
        monkeypatch.setattr(vectorized, "_SOURCE_MAP_MAX_BYTES", 0)
        permuted = engine.run_checkpointed(
            program, checkpoint_rounds=every, slot_cache=slot_cache, **options
        )
        assert_results_identical(cold, source_map.result, (name, "source-map"))
        assert_results_identical(cold, permuted.result, (name, "permuted"))
        assert len(source_map.checkpoints) == len(permuted.checkpoints)
        for a, b in zip(source_map.checkpoints, permuted.checkpoints):
            assert_states_identical(a, b, name)
        for state in source_map.checkpoints:
            resumed = engine.run_checkpointed(
                program, resume_from=state, slot_cache=slot_cache, **options
            ).result
            assert_results_identical(cold, resumed, (name, "source-map->permuted", state.round))
        monkeypatch.undo()
        for state in permuted.checkpoints:
            resumed = engine.run_checkpointed(
                program, resume_from=state, slot_cache=slot_cache, **options
            ).result
            assert_results_identical(cold, resumed, (name, "permuted->source-map", state.round))

    def test_permuted_run_stops_at_its_fixed_point(self, monkeypatch):
        """A never-completing run above the source-map threshold stops at its
        fixed point, and the synthesized tail equals the reference run's, at
        the default tile and at 32-row tiles (a many-chunk comparison)."""
        n = 1100
        rounds = (
            make_round([(i, i + 1) for i in range(0, n - 1, 2)]),
            make_round([(i, i + 1) for i in range(1, n - 1, 2)]),
        )
        # Forward-only: nothing moves after item 0 reaches the end at round
        # 1099, which also completes item 0 (the only item that completes).
        program = RoundProgram(path_graph(n), rounds, cyclic=True, max_rounds=1300)
        assert not vectorized._uses_source_map(n, (n + 63) // 64)
        options = {"checkpoint_rounds": (500, 1150, 1250), "track_item_completion": True}
        expected = get_engine("reference").run_checkpointed(program, **options)
        assert expected.result.completion_round is None
        assert [s.round for s in expected.checkpoints] == [500, 1150, 1250]
        cases = [("frontier", None), ("vectorized", None), ("vectorized", 1 << 10)]
        for name, tile_bytes in cases:
            if tile_bytes is not None:
                monkeypatch.setattr(vectorized, "_TILE_TARGET_BYTES", tile_bytes)
            recorder = telemetry.StatsRecorder()
            with telemetry.recording(recorder):
                got = get_engine(name).run_checkpointed(program, **options)
            assert_results_identical(expected.result, got.result, (name, tile_bytes))
            assert len(got.checkpoints) == len(expected.checkpoints), name
            for a, b in zip(expected.checkpoints, got.checkpoints):
                assert_states_identical(a, b, (name, tile_bytes))
            assert recorder.stats.counters[f"engine.{name}"]["rounds_synthesized"] > 0


class TestResumeValidation:
    def _state(self, **options) -> EngineState:
        (state,) = get_engine("reference").run_checkpointed(
            PROGRAMS["cycle-coloring"](), checkpoint_rounds=(4,), **options
        ).checkpoints
        return state

    def test_vertex_count_mismatch_rejected(self):
        state = self._state()
        other = RoundProgram.from_schedule(
            coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        )
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match="vertices"):
                get_engine(name).run_checkpointed(other, resume_from=state)

    def test_budget_before_resume_point_rejected(self):
        state = self._state()
        program = PROGRAMS["cycle-coloring"]()
        short = RoundProgram(program.graph, program.rounds, cyclic=True, max_rounds=3)
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match="budget"):
                get_engine(name).run_checkpointed(short, resume_from=state)

    def test_negative_round_rejected(self):
        state = dataclasses.replace(self._state(), round=-1)
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match="negative"):
                get_engine(name).run_checkpointed(
                    PROGRAMS["cycle-coloring"](), resume_from=state
                )

    def test_target_mask_mismatch_rejected(self):
        state = self._state()
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match="target mask"):
                get_engine(name).run_checkpointed(
                    PROGRAMS["cycle-coloring"](), resume_from=state, target_mask=0b11
                )

    @pytest.mark.parametrize(
        "captured, asked",
        [(c, a) for c in FLAG_COMBOS for a in FLAG_COMBOS if c != a],
        ids=_flag_id,
    )
    def test_tracking_flag_mismatch_rejected(self, captured, asked):
        # The state's signature is which prefixes it carries; every other
        # flag combination is refused, whichever flag differs.
        state = self._state(**captured)
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match="tracking flags"):
                get_engine(name).run_checkpointed(
                    PROGRAMS["cycle-coloring"](), resume_from=state, **asked
                )

    @pytest.mark.parametrize(
        "dropped, kept",
        [
            ("item_completion", {"track_arrivals": True}),
            ("arrivals", {"track_item_completion": True}),
        ],
        ids=["items", "arrivals"],
    )
    def test_dropping_a_prefix_drops_its_tracking(self, dropped, kept):
        # With no flag stored beside the prefixes, a fully tracked state
        # stripped of one prefix is a valid state of a run that tracked
        # only the other, and continues exactly as that run does.
        program = PROGRAMS["cycle-coloring"]()
        state = self._state(track_item_completion=True, track_arrivals=True)
        stripped = dataclasses.replace(state, **{dropped: None})
        cold = get_engine("reference").run(program, **kept)
        for name in CHECKPOINTABLE:
            resumed = get_engine(name).run_checkpointed(
                program, resume_from=stripped, **kept
            ).result
            assert_results_identical(cold, resumed, (name, dropped))

    def test_state_fields_are_the_snapshot_and_its_prefixes(self):
        # The option signature is read from the prefixes, so the state
        # stores no tracking flag that could disagree with them.
        assert [f.name for f in dataclasses.fields(EngineState)] == [
            "round",
            "knowledge",
            "completion_round",
            "target_mask",
            "item_completion",
            "arrivals",
            "engine_name",
        ]

    @pytest.mark.parametrize("name", CHECKPOINTABLE)
    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("item_completion", lambda prefix: None),
            ("item_completion", lambda prefix: prefix[:-2]),
            ("arrivals", lambda prefix: None),
            ("arrivals", lambda prefix: prefix[:-1]),
            ("arrivals", lambda prefix: (prefix[0][:-1], *prefix[1:])),
            # Entries must be None or a round in 0 … 4, the state's round.
            ("item_completion", lambda prefix: (-2, *prefix[1:])),
            ("item_completion", lambda prefix: (5, *prefix[1:])),
            ("item_completion", lambda prefix: (40_000, *prefix[1:])),
            ("arrivals", lambda prefix: ((-2, *prefix[0][1:]), *prefix[1:])),
            ("arrivals", lambda prefix: ((5, *prefix[0][1:]), *prefix[1:])),
            ("arrivals", lambda prefix: ((40_000, *prefix[0][1:]), *prefix[1:])),
        ],
        ids=[
            "items-missing",
            "items-short",
            "arrivals-missing",
            "arrivals-row-missing",
            "arrivals-row-short",
            "items-negative",
            "items-after-state",
            "items-past-int16",
            "arrivals-negative",
            "arrivals-after-state",
            "arrivals-past-int16",
        ],
    )
    def test_malformed_tracked_prefix_rejected(self, name, field, corrupt):
        # A corrupted item or arrival prefix is rejected up front, never
        # turned into a raw TypeError/IndexError/OverflowError or a wrong
        # continuation.
        tracked = dict(track_item_completion=True, track_arrivals=True)
        state = self._state(**tracked)
        bad = dataclasses.replace(state, **{field: corrupt(getattr(state, field))})
        with pytest.raises(SimulationError, match="cannot resume"):
            get_engine(name).run_checkpointed(
                PROGRAMS["cycle-coloring"](), resume_from=bad, **tracked
            )

    def test_resume_from_and_initial_are_mutually_exclusive(self):
        state = self._state()
        program = PROGRAMS["cycle-coloring"]()
        initial = [1 << i for i in range(program.graph.n)]
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match="mutually exclusive"):
                get_engine(name).run_checkpointed(
                    program, resume_from=state, initial=initial
                )

    def test_negative_checkpoint_round_rejected(self):
        program = PROGRAMS["cycle-coloring"]()
        for name in CHECKPOINTABLE:
            with pytest.raises(SimulationError, match=">= 0"):
                get_engine(name).run_checkpointed(program, checkpoint_rounds=(-1,))
