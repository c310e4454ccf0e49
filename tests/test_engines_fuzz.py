"""Randomized differential fuzzing: every engine vs. the reference oracle.

Seeded Hypothesis strategies generate arbitrary periodic round programs —
random vertex counts, periods, arc sets (including deliberately invalid
non-matching rounds), duplex and half-duplex schedules, random initial
states, target masks and round budgets — and every registered engine must
reproduce the reference engine's results bit-for-bit on all of them.

The candidate list is drawn from the engine registry, so a future backend
registered via ``register_engine`` gets this fuzz coverage for free; the
suite is ``derandomize``d so CI failures replay deterministically.  It runs
once per vectorized kernel regime (source map and row-permuted), so both
answer to the oracle although every drawn matrix is small.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, make_round
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d, path_graph

# Single source of truth for "every observable field agrees" — extending
# SimulationResult only requires updating the differential suite's helper.
from test_engines_differential import assert_results_identical
from test_engines_resume import assert_states_identical

CANDIDATES = tuple(name for name in available_engines() if name != "reference")
assert {"vectorized", "frontier"} <= set(CANDIDATES)

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

#: Both vectorized kernel regimes answer to the oracle (see conftest.py).
pytestmark = pytest.mark.usefixtures("vectorized_regime")


def check_all_engines(program: RoundProgram, options: dict, context=""):
    """Every candidate matches the oracle on every field, under the drawn
    options and again with the ``arrival_rounds`` matrix forced on, so
    arrival tracking is checked under every drawn flag combination."""
    runs = [options]
    if not options.get("track_arrivals"):
        runs.append(dict(options, track_arrivals=True))
    for run_options in runs:
        reference = get_engine("reference").run(program, **run_options)
        assert reference.engine_name == "reference"
        for candidate in CANDIDATES:
            got = get_engine(candidate).run(program, **run_options)
            assert got.engine_name == candidate
            assert_results_identical(reference, got, (context, candidate, run_options))


@st.composite
def run_options(draw, n: int):
    """Tracking flags, optional custom initial state, optional target mask."""
    options: dict = {
        "track_item_completion": draw(st.booleans()),
        "track_arrivals": draw(st.booleans()),
    }
    # Occasionally override the initial state, including bits above n to
    # exercise the engines' word-width widening.
    if draw(st.booleans()):
        options["initial"] = [
            (1 << i) | draw(st.integers(0, (1 << (n + 2)) - 1)) for i in range(n)
        ]
    # Target masks: full (None), empty (trivially complete), a strict subset
    # (broadcast-style) or one with unreachable high bits (never completes).
    options["target_mask"] = draw(
        st.one_of(
            st.none(),
            st.just(0),
            st.integers(1, (1 << n) - 1),
            st.integers(1 << n, (1 << (n + 2)) - 1),
        )
    )
    return options


@st.composite
def directed_programs(draw):
    """Arbitrary (possibly non-matching) rounds on a complete digraph."""
    n = draw(st.integers(1, 7))
    graph = Digraph(
        range(n),
        [(i, j) for i in range(n) for j in range(n) if i != j],
        name=f"fuzz-K{n}",
    )
    all_arcs = list(graph.arcs)
    period = draw(st.integers(1, 4))
    rounds = []
    for _ in range(period):
        if all_arcs:
            arcs = draw(
                st.lists(
                    st.sampled_from(all_arcs), unique=True, max_size=min(len(all_arcs), 8)
                )
            )
        else:
            arcs = []
        rounds.append(make_round(arcs))
    cyclic = draw(st.booleans())
    # Cyclic budgets may exceed the period (the schedule repeats); finite
    # budgets are clamped to the round count like RoundProgram.from_protocol.
    max_rounds = draw(st.integers(0, 3 * n + 2)) if cyclic else draw(st.integers(0, period))
    program = RoundProgram(graph, tuple(rounds), cyclic=cyclic, max_rounds=max_rounds)
    return program, draw(run_options(n))


@st.composite
def duplex_programs(draw):
    """Random matchings on symmetric topologies, half- and full-duplex."""
    graph = draw(
        st.sampled_from(
            [path_graph(5), cycle_graph(6), cycle_graph(9), grid_2d(3, 3)]
        )
    )
    mode = draw(st.sampled_from([Mode.HALF_DUPLEX, Mode.FULL_DUPLEX]))
    period = draw(st.integers(1, 5))
    schedule = random_systolic_schedule(
        graph,
        period,
        mode,
        seed=draw(st.integers(0, 10_000)),
        activation_probability=draw(st.sampled_from([0.5, 0.9, 1.0])),
    )
    max_rounds = draw(st.integers(0, 6 * graph.n))
    program = RoundProgram.from_schedule(schedule, max_rounds)
    return program, draw(run_options(graph.n))


@FUZZ
@given(case=directed_programs())
def test_directed_fuzz_agreement(case):
    program, options = case
    check_all_engines(program, options, "directed")


@FUZZ
@given(case=duplex_programs())
def test_duplex_fuzz_agreement(case):
    program, options = case
    check_all_engines(program, options, "duplex")


@FUZZ
@given(
    n=st.integers(3, 9),
    period=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    max_rounds=st.integers(0, 50),
)
def test_cycle_schedule_fuzz_agreement(n, period, seed, max_rounds):
    """Dense flag-free runs on random cycle schedules (the default call path)."""
    schedule = random_systolic_schedule(cycle_graph(n), period, Mode.HALF_DUPLEX, seed=seed)
    program = RoundProgram.from_schedule(schedule, max_rounds)
    check_all_engines(program, {}, "cycle")


def check_resume_roundtrip(program: RoundProgram, options: dict, prefix_fraction: float, context=""):
    """Checkpoint every checkpointable engine after every round, hold each
    engine's states to the reference's (so bits above n from a custom
    ``initial`` are checked round by round), resume a drawn prefix on
    *every* checkpointable engine (cross-engine pairs included), and hold
    the resumed results to the cold run bit for bit."""
    every = range(program.max_rounds + 1)
    cold = {}
    runs = {}
    for name in ("reference",) + CANDIDATES:
        engine = get_engine(name)
        runs[name] = engine.run_checkpointed(program, checkpoint_rounds=every, **options)
        cold[name] = runs[name].result
    reference_states = runs["reference"].checkpoints
    for name, run in runs.items():
        assert_results_identical(cold["reference"], run.result, (context, name, options))
        assert len(run.checkpoints) == len(reference_states), (context, name, options)
        for expected, got in zip(reference_states, run.checkpoints):
            assert_states_identical(expected, got, (context, name, options))
        if not run.checkpoints:
            continue
        state = run.checkpoints[
            min(int(prefix_fraction * len(run.checkpoints)), len(run.checkpoints) - 1)
        ]
        # ``initial`` describes round 0; the resumed run starts from the
        # state's knowledge instead, and the two are mutually exclusive.
        resume_options = {k: v for k, v in options.items() if k != "initial"}
        for other in runs:
            resumed = get_engine(other).run_checkpointed(
                program, resume_from=state, **resume_options
            ).result
            assert_results_identical(
                cold["reference"], resumed, (context, name, "->", other, state.round, options)
            )


@FUZZ
@given(case=directed_programs(), prefix_fraction=st.floats(0.0, 1.0))
def test_directed_fuzz_resume_roundtrip(case, prefix_fraction):
    """Checkpoint/resume at a drawn prefix of arbitrary directed programs."""
    program, options = case
    check_resume_roundtrip(program, options, prefix_fraction, "directed-resume")


@FUZZ
@given(case=duplex_programs(), prefix_fraction=st.floats(0.0, 1.0))
def test_duplex_fuzz_resume_roundtrip(case, prefix_fraction):
    """Checkpoint/resume at a drawn prefix of random duplex matchings."""
    program, options = case
    check_resume_roundtrip(program, options, prefix_fraction, "duplex-resume")
