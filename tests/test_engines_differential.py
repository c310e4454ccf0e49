"""Differential tests: every engine must match the reference bit-for-bit.

The reference engine (pure-Python arbitrary-precision integers) is the
semantic oracle; every other registered engine (the packed uint64 NumPy
kernel, the sparse frontier-propagation engine, and any future backend)
must reproduce its ``knowledge``, ``completion_round``, ``rounds_executed``,
``coverage_history``, ``item_completion_rounds`` and ``arrival_rounds``
exactly — on every topology builder, both duplex modes, explicit and
systolic protocols, complete and incomplete runs, matching and deliberately
non-matching rounds.  The engine lists below are drawn from the registry,
so newly registered backends are covered automatically, and the suite runs
once per vectorized kernel regime (source map and row-permuted).
"""

from __future__ import annotations

import pytest

from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import GossipProtocol, Mode
from repro.gossip.simulation import (
    broadcast_time,
    broadcast_times_all,
    gossip_time,
    simulate,
    simulate_systolic,
)
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.butterfly import wrapped_butterfly
from repro.topologies.classic import cycle_graph, grid_2d, hypercube, path_graph
from repro.topologies.debruijn import de_bruijn, de_bruijn_digraph
from repro.topologies.kautz import kautz, kautz_digraph

ENGINES = available_engines()
assert set(ENGINES) >= {"reference", "vectorized", "frontier"}

#: Every registered engine that must be held to the reference's results.
CANDIDATES = tuple(name for name in ENGINES if name != "reference")

#: One builder per topology family used by the paper's experiments.
TOPOLOGIES = {
    "path": lambda: path_graph(7),
    "cycle-even": lambda: cycle_graph(8),
    "cycle-odd": lambda: cycle_graph(9),
    "grid": lambda: grid_2d(3, 4),
    "hypercube": lambda: hypercube(3),
    "butterfly": lambda: wrapped_butterfly(2, 3),
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
    assert a.coverage_history == b.coverage_history, context
    assert a.item_completion_rounds == b.item_completion_rounds, context
    assert a.arrival_rounds == b.arrival_rounds, context


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("family", sorted(TOPOLOGIES))
class TestSystolicAgreement:
    def test_systolic_simulation_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        ref = simulate_systolic(schedule, track_history=True, engine="reference")
        got = simulate_systolic(schedule, track_history=True, engine=candidate)
        assert ref.engine_name == "reference"
        assert got.engine_name == candidate
        assert_results_identical(ref, got, (family, mode, candidate))

    def test_truncated_incomplete_run_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        ref = simulate_systolic(schedule, max_rounds=3, track_history=True, engine="reference")
        got = simulate_systolic(schedule, max_rounds=3, track_history=True, engine=candidate)
        assert_results_identical(ref, got, (family, mode, candidate))

    def test_unrolled_protocol_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        protocol = schedule.unroll(2 * schedule.period)
        ref = simulate(protocol, engine="reference")
        got = simulate(protocol, engine=candidate)
        assert_results_identical(ref, got, (family, mode, candidate))

    def test_gossip_time_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        assert gossip_time(schedule, engine="reference") == gossip_time(
            schedule, engine=candidate
        )

    def test_arrival_tracking_matches(self, family, mode, candidate):
        schedule = coloring_systolic_schedule(TOPOLOGIES[family](), mode)
        program = RoundProgram.from_schedule(schedule)
        ref = get_engine("reference").run(program, track_arrivals=True, track_history=False)
        got = get_engine(candidate).run(program, track_arrivals=True, track_history=False)
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
    for candidate in CANDIDATES:
        got = simulate(protocol, engine=candidate)
        assert_results_identical(ref, got, (builder.__name__, candidate))


@pytest.mark.parametrize("seed", range(6))
def test_random_schedules_match(seed):
    """Seeded random systolic schedules, including ones that never complete."""
    for graph in (cycle_graph(9), de_bruijn(2, 3)):
        schedule = random_systolic_schedule(graph, 5, Mode.HALF_DUPLEX, seed=seed)
        ref = simulate_systolic(schedule, max_rounds=40, track_history=True, engine="reference")
        for candidate in CANDIDATES:
            got = simulate_systolic(schedule, max_rounds=40, track_history=True, engine=candidate)
            assert_results_identical(ref, got, (graph.name, seed, candidate))


@pytest.mark.parametrize("engine", ENGINES)
class TestEdgeCases:
    def test_single_vertex_completes_immediately(self, engine):
        result = simulate(GossipProtocol(path_graph(1), []), engine=engine)
        assert result.completion_round == 0
        assert result.rounds_executed == 0
        assert result.knowledge == (1,)
        assert result.coverage_history == (1,)

    def test_empty_round_advances_time_without_knowledge(self, engine):
        g = path_graph(3)
        result = simulate(GossipProtocol(g, [[], [(0, 1)]]), engine=engine)
        assert result.rounds_executed == 2
        assert result.coverage_history == (3, 3, 4)

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
