"""Differential tests: every engine must match the reference bit-for-bit.

The reference engine (pure-Python arbitrary-precision integers) is the
semantic oracle; every other registered engine (the packed uint64 NumPy
kernel, the sparse frontier-propagation engine, and any future backend)
must reproduce its ``knowledge``, ``completion_round``, ``rounds_executed``,
``item_completion_rounds`` and ``arrival_rounds`` exactly — on every
topology builder, both duplex modes, explicit and systolic protocols,
complete and incomplete runs, matching and deliberately non-matching
rounds.  An untracked run must also reach the outcome of a
fully tracked one (``TestTrackingInvariance``).  The engine lists below are
drawn from the registry, so newly registered backends are covered
automatically, and the suite runs once per vectorized kernel regime
(source map and row-permuted).
"""

from __future__ import annotations

import pytest

from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import GossipProtocol, Mode, SystolicSchedule
from repro.gossip.simulation import (
    broadcast_time,
    broadcast_times_all,
    gossip_time,
    simulate,
    simulate_systolic,
)
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.butterfly import butterfly, wrapped_butterfly
from repro.topologies.classic import (
    complete_binary_tree,
    complete_graph,
    cube_connected_cycles,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    star_graph,
    torus_2d,
)
from repro.topologies.debruijn import de_bruijn, de_bruijn_digraph
from repro.topologies.kautz import kautz, kautz_digraph

ENGINES = available_engines()
assert set(ENGINES) >= {"reference", "vectorized", "frontier"}

#: Every registered engine that must be held to the reference's results.
CANDIDATES = tuple(name for name in ENGINES if name != "reference")

#: One builder per topology family: the paper's networks, plus the torus,
#: tree and cube-connected-cycles families that ``auto``'s BFS-depth rule
#: sends to different engines at scale, and the dense and hub-centred
#: extremes (complete graph, star).
TOPOLOGIES = {
    "path": lambda: path_graph(7),
    "cycle-even": lambda: cycle_graph(8),
    "cycle-odd": lambda: cycle_graph(9),
    "grid": lambda: grid_2d(3, 4),
    "torus": lambda: torus_2d(3, 4),
    "hypercube": lambda: hypercube(3),
    "binary-tree": lambda: complete_binary_tree(3),
    "ccc": lambda: cube_connected_cycles(3),
    "complete": lambda: complete_graph(5),
    "star": lambda: star_graph(6),
    "butterfly": lambda: wrapped_butterfly(2, 3),
    "butterfly-unwrapped": lambda: butterfly(2, 2),
    "debruijn": lambda: de_bruijn(2, 3),
    "kautz": lambda: kautz(2, 3),
}

MODES = (Mode.HALF_DUPLEX, Mode.FULL_DUPLEX)

#: Both vectorized kernel regimes answer to the oracle (see conftest.py).
pytestmark = pytest.mark.usefixtures("vectorized_regime")


def assert_results_identical(a, b, context=""):
    """Every externally observable field must agree exactly."""
    assert a.completion_round == b.completion_round, context
    assert a.rounds_executed == b.rounds_executed, context
    assert a.knowledge == b.knowledge, context
    assert a.item_completion_rounds == b.item_completion_rounds, context
    assert a.arrival_rounds == b.arrival_rounds, context


def _arrival_run(program: RoundProgram, engine: str):
    """An arrival-tracked run: the round-by-round record of every pair."""
    return get_engine(engine).run(program, track_arrivals=True)


def assert_arrivals_identical(program: RoundProgram, candidate: str, context="") -> None:
    """``candidate`` matches the reference on an arrival-tracked run."""
    assert_results_identical(
        _arrival_run(program, "reference"), _arrival_run(program, candidate), context
    )


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("family", sorted(TOPOLOGIES))
class TestSystolicAgreement:
    def test_systolic_simulation_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        ref = simulate_systolic(schedule, engine="reference")
        got = simulate_systolic(schedule, engine=candidate)
        assert ref.engine_name == "reference"
        assert got.engine_name == candidate
        assert_results_identical(ref, got, (family, mode, candidate))

    def test_truncated_incomplete_run_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        ref = simulate_systolic(schedule, max_rounds=3, engine="reference")
        got = simulate_systolic(schedule, max_rounds=3, engine=candidate)
        assert_results_identical(ref, got, (family, mode, candidate))
        program = RoundProgram.from_schedule(schedule, 3)
        assert_arrivals_identical(program, candidate, (family, mode, candidate))

    def test_unrolled_protocol_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        protocol = schedule.unroll(2 * schedule.period)
        ref = simulate(protocol, engine="reference")
        got = simulate(protocol, engine=candidate)
        assert_results_identical(ref, got, (family, mode, candidate))
        program = RoundProgram.from_protocol(protocol)
        assert_arrivals_identical(program, candidate, (family, mode, candidate))

    def test_gossip_time_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        assert gossip_time(schedule, engine="reference") == gossip_time(
            schedule, engine=candidate
        )

    def test_arrival_tracking_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        program = RoundProgram.from_schedule(schedule)
        ref = get_engine("reference").run(program, track_arrivals=True)
        got = get_engine(candidate).run(program, track_arrivals=True)
        assert ref.arrival_rounds is not None
        assert_results_identical(ref, got, (family, mode, candidate))

    def test_broadcast_times_match_per_source(self, family, mode, candidate):
        graph = TOPOLOGIES[family]()
        schedule = coloring_systolic_schedule(graph, mode)
        per_source = {
            v: broadcast_time(schedule, v, engine="reference") for v in graph.vertices
        }
        batched = broadcast_times_all(schedule, engine=candidate)
        assert batched == per_source, (family, mode, candidate)
        assert max(per_source.values()) == gossip_time(schedule, engine=candidate)


@pytest.mark.parametrize("builder", [de_bruijn_digraph, kautz_digraph], ids=["debruijn", "kautz"])
def test_directed_protocol_matches(builder):
    """Directed mode on genuinely asymmetric digraphs, non-matching rounds.

    Chunking the arc list into fixed-size groups deliberately violates the
    matching constraint (a vertex may send and receive in the same round),
    which stresses the engines' snapshot semantics: all arcs of a round must
    read the pre-round state.
    """
    graph = builder(2, 3)
    arcs = list(graph.arcs)
    rounds = [arcs[i : i + 3] for i in range(0, len(arcs), 3)]
    protocol = GossipProtocol(graph, rounds * 4, mode=Mode.DIRECTED)
    ref = simulate(protocol, engine="reference")
    program = RoundProgram.from_protocol(protocol)
    for candidate in CANDIDATES:
        got = simulate(protocol, engine=candidate)
        assert_results_identical(ref, got, (builder.__name__, candidate))
        assert_arrivals_identical(program, candidate, (builder.__name__, candidate))


@pytest.mark.parametrize("seed", range(6))
def test_random_schedules_match(seed):
    """Seeded random systolic schedules, including ones that never complete."""
    for graph in (cycle_graph(9), de_bruijn(2, 3)):
        schedule = random_systolic_schedule(graph, 5, Mode.HALF_DUPLEX, seed=seed)
        ref = simulate_systolic(schedule, max_rounds=40, engine="reference")
        program = RoundProgram.from_schedule(schedule, 40)
        for candidate in CANDIDATES:
            got = simulate_systolic(schedule, max_rounds=40, engine=candidate)
            assert_results_identical(ref, got, (graph.name, seed, candidate))
            assert_arrivals_identical(program, candidate, (graph.name, seed, candidate))


@pytest.mark.parametrize("engine", ENGINES)
class TestEdgeCases:
    def test_single_vertex_completes_immediately(self, engine):
        protocol = GossipProtocol(path_graph(1), [])
        tracked = _arrival_run(RoundProgram.from_protocol(protocol), engine)
        for result in (simulate(protocol, engine=engine), tracked):
            assert result.completion_round == 0
            assert result.rounds_executed == 0
            assert result.knowledge == (1,)
        assert tracked.arrival_rounds == ((0,),)

    def test_empty_round_advances_time_without_knowledge(self, engine):
        # Round 1 delivers nothing; round 2 hands item 0 to vertex 1 only.
        protocol = GossipProtocol(path_graph(3), [[], [(0, 1)]])
        tracked = _arrival_run(RoundProgram.from_protocol(protocol), engine)
        for result in (simulate(protocol, engine=engine), tracked):
            assert result.rounds_executed == 2
            assert result.completion_round is None
            assert result.knowledge == (0b001, 0b011, 0b100)
        assert tracked.arrival_rounds == (
            (0, None, None),
            (2, 0, None),
            (None, None, 0),
        )

    def test_snapshot_semantics_on_chained_arcs(self, engine):
        # With arcs (0,1) and (1,2) in the same round, vertex 2 must NOT
        # receive item 0: transfers read the pre-round knowledge.
        g = path_graph(3)
        result = simulate(GossipProtocol(g, [[(0, 1), (1, 2)]]), engine=engine)
        assert result.known_items(2) == {1, 2}

    def test_duplicate_head_accumulates_both_tails(self, engine):
        # Two arcs into the same head in one (invalid as a matching) round:
        # the head must learn from both tails simultaneously.
        g = cycle_graph(3)
        result = simulate(GossipProtocol(g, [[(0, 2), (1, 2)]], mode=Mode.DIRECTED), engine=engine)
        assert result.known_items(2) == {0, 1, 2}

    def test_broadcast_only_waits_for_source_item(self, engine):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)]])
        assert broadcast_time(protocol, 0, engine=engine) == 2


@pytest.mark.parametrize("candidate", CANDIDATES)
class TestTrackingInvariance:
    """Tracking only adds records.  The untracked run — the path every
    ``gossip_time`` call takes, and the vectorized engine's batched loop —
    must reach the same completion round, executed rounds and knowledge as
    a fully tracked run, which takes the round-by-round loop, and capture
    the same checkpoint states.  The untracked side is also pinned to the
    reference engine, which shares none of the candidates' completion
    accounting."""

    CASES = {
        "cycle": lambda: coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX),
        "grid-full-duplex": lambda: coloring_systolic_schedule(
            grid_2d(3, 4), Mode.FULL_DUPLEX
        ),
        "random-sparse": lambda: random_systolic_schedule(
            grid_2d(3, 5), 5, Mode.HALF_DUPLEX, seed=11, activation_probability=0.6
        ),
    }
    TRACK_ALL = {"track_item_completion": True, "track_arrivals": True}

    @staticmethod
    def _same_outcome(plain, tracked, context):
        assert plain.completion_round == tracked.completion_round, context
        assert plain.rounds_executed == tracked.rounds_executed, context
        assert plain.knowledge == tracked.knowledge, context

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_untracked_matches_tracked_and_reference(self, case, candidate):
        program = RoundProgram.from_schedule(self.CASES[case]())
        engine = get_engine(candidate)
        plain = engine.run(program)
        tracked = engine.run(program, **self.TRACK_ALL)
        self._same_outcome(plain, tracked, (case, candidate))
        ref = get_engine("reference").run(program)
        assert_results_identical(ref, plain, (case, candidate, "reference"))

    def test_untracked_never_completing_run(self, candidate):
        # Forward-only path rounds saturate without completing: the
        # post-loop completeness check must answer "no" on an untracked run
        # and still report the full budget.
        n = 7
        rounds = [[(i, i + 1)] for i in range(n - 1)]
        schedule = SystolicSchedule(path_graph(n), rounds, mode=Mode.DIRECTED)
        program = RoundProgram.from_schedule(schedule, 90)
        engine = get_engine(candidate)
        plain = engine.run(program)
        assert plain.completion_round is None
        assert plain.rounds_executed == 90
        self._same_outcome(
            plain, engine.run(program, **self.TRACK_ALL), (candidate, "never-completing")
        )
        ref = get_engine("reference").run(program)
        assert_results_identical(ref, plain, (candidate, "never-completing"))

    @pytest.mark.parametrize(
        "options",
        [
            {"track_arrivals": True},
            {"track_item_completion": True},
            {"track_arrivals": True, "target_mask": 0b1011},
            {"track_item_completion": True, "target_mask": 0b1011},
        ],
        ids=["arrivals", "items", "subset-mask", "items-subset-mask"],
    )
    def test_each_tracking_option_leaves_the_outcome(self, options, candidate):
        program = RoundProgram.from_schedule(self.CASES["cycle"]())
        engine = get_engine(candidate)
        mask = {"target_mask": options["target_mask"]} if "target_mask" in options else {}
        plain = engine.run(program, **mask)
        tracked = engine.run(program, **options)
        assert plain.completion_round is not None
        self._same_outcome(plain, tracked, (candidate, options))
        ref = get_engine("reference").run(program, **options)
        assert_results_identical(ref, tracked, (candidate, options))

    def test_untracked_checkpoints_match_tracked(self, candidate):
        # A checkpoint after every round: no state past the completion
        # round, the completing round's state carries the stamp, and the
        # captured knowledge does not depend on what the run records.
        program = RoundProgram.from_schedule(self.CASES["cycle"]())
        every = range(program.max_rounds + 1)
        engine = get_engine(candidate)
        plain = engine.run_checkpointed(program, checkpoint_rounds=every)
        tracked = engine.run_checkpointed(program, checkpoint_rounds=every, track_arrivals=True)
        completion = plain.result.completion_round
        assert completion is not None
        assert [s.round for s in plain.checkpoints] == list(range(completion + 1))
        assert [s.round for s in tracked.checkpoints] == list(range(completion + 1))
        for sp, st in zip(plain.checkpoints, tracked.checkpoints):
            assert sp.knowledge == st.knowledge, sp.round
            expected = completion if sp.round == completion else None
            assert sp.completion_round == st.completion_round == expected, sp.round
