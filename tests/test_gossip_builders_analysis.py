"""Tests for protocol builders and analysis helpers (repro.gossip.builders / .analysis)."""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolError, SimulationError
from repro.gossip.analysis import (
    BOTH,
    IDLE,
    LEFT,
    RIGHT,
    activation_counts,
    all_arrival_times,
    arrival_times,
    eccentricities,
    local_activation_sequence,
    protocol_summary,
)
from repro.gossip.builders import (
    edge_coloring_rounds,
    full_duplex_rounds_from_coloring,
    greedy_edge_coloring,
    half_duplex_rounds_from_coloring,
    random_systolic_schedule,
)
from repro.gossip.engines import available_engines
from repro.gossip.model import GossipProtocol, Mode
from repro.gossip.simulation import broadcast_times_all, gossip_time, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.gossip.validation import validate_protocol
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.topologies.classic import cycle_graph, path_graph, star_graph
from repro.topologies.debruijn import de_bruijn, de_bruijn_digraph


class TestGreedyEdgeColoring:
    def test_coloring_is_proper(self):
        g = de_bruijn(2, 3)
        coloring = greedy_edge_coloring(g)
        for edge_a, color_a in coloring.items():
            for edge_b, color_b in coloring.items():
                if edge_a != edge_b and edge_a & edge_b:
                    assert color_a != color_b

    def test_every_edge_colored(self):
        g = cycle_graph(6)
        coloring = greedy_edge_coloring(g)
        assert len(coloring) == len(g.undirected_edges())

    def test_path_uses_two_colors(self):
        coloring = greedy_edge_coloring(path_graph(6))
        assert max(coloring.values()) + 1 == 2

    def test_star_uses_degree_colors(self):
        coloring = greedy_edge_coloring(star_graph(5))
        assert max(coloring.values()) + 1 == 4

    def test_directed_graph_rejected(self):
        with pytest.raises(ProtocolError):
            greedy_edge_coloring(de_bruijn_digraph(2, 3))


class TestColoringRounds:
    def test_half_duplex_rounds_are_valid(self):
        g = de_bruijn(2, 3)
        coloring = greedy_edge_coloring(g)
        rounds = half_duplex_rounds_from_coloring(g, coloring)
        protocol = GossipProtocol(g, rounds, mode=Mode.HALF_DUPLEX)
        validate_protocol(protocol)

    def test_half_duplex_round_count(self):
        g = cycle_graph(6)
        coloring = greedy_edge_coloring(g)
        rounds = half_duplex_rounds_from_coloring(g, coloring)
        assert len(rounds) == 2 * (max(coloring.values()) + 1)

    def test_full_duplex_rounds_are_valid(self):
        g = de_bruijn(2, 3)
        coloring = greedy_edge_coloring(g)
        rounds = full_duplex_rounds_from_coloring(g, coloring)
        protocol = GossipProtocol(g, rounds, mode=Mode.FULL_DUPLEX)
        validate_protocol(protocol)

    def test_all_arcs_covered_by_half_duplex_rounds(self):
        g = cycle_graph(5)
        rounds = edge_coloring_rounds(g, Mode.HALF_DUPLEX)
        activated = {arc for rnd in rounds for arc in rnd}
        assert activated == set(g.arcs)

    def test_directed_mode_rejected(self):
        with pytest.raises(ProtocolError):
            edge_coloring_rounds(cycle_graph(4), Mode.DIRECTED)

    def test_schedule_completes_gossip(self):
        schedule = coloring_systolic_schedule(de_bruijn(2, 3), Mode.HALF_DUPLEX)
        assert gossip_time(schedule) > 0


class TestRandomSystolicSchedule:
    def test_rounds_are_valid_half_duplex(self):
        g = de_bruijn(2, 3)
        schedule = random_systolic_schedule(g, 5, Mode.HALF_DUPLEX, seed=3)
        protocol = schedule.unroll(5)
        validate_protocol(protocol)

    def test_rounds_are_valid_full_duplex(self):
        g = cycle_graph(8)
        schedule = random_systolic_schedule(g, 4, Mode.FULL_DUPLEX, seed=1)
        validate_protocol(schedule.unroll(4))

    def test_deterministic_for_fixed_seed(self):
        g = cycle_graph(8)
        a = random_systolic_schedule(g, 4, seed=7)
        b = random_systolic_schedule(g, 4, seed=7)
        assert a.base_rounds == b.base_rounds

    def test_different_seeds_generally_differ(self):
        g = de_bruijn(2, 4)
        a = random_systolic_schedule(g, 6, seed=1)
        b = random_systolic_schedule(g, 6, seed=2)
        assert a.base_rounds != b.base_rounds

    def test_invalid_period(self):
        with pytest.raises(ProtocolError):
            random_systolic_schedule(cycle_graph(4), 0)

    def test_invalid_probability(self):
        with pytest.raises(ProtocolError):
            random_systolic_schedule(cycle_graph(4), 3, activation_probability=0.0)

    def test_directed_graph_rejected_for_half_duplex(self):
        with pytest.raises(ProtocolError):
            random_systolic_schedule(de_bruijn_digraph(2, 3), 3, Mode.HALF_DUPLEX)

    def test_directed_mode_on_digraph(self):
        schedule = random_systolic_schedule(
            de_bruijn_digraph(2, 3), 4, Mode.DIRECTED, seed=5
        )
        validate_protocol(schedule.unroll(4))


class TestLocalActivationSequence:
    def test_path_schedule_sequence_symbols(self):
        schedule = path_systolic_schedule(4, Mode.HALF_DUPLEX)
        word = local_activation_sequence(schedule, 0)
        assert len(word) == schedule.period
        assert set(word) <= {LEFT, RIGHT, IDLE}

    def test_full_duplex_marks_both(self):
        schedule = hypercube_dimension_exchange(2, Mode.FULL_DUPLEX)
        word = local_activation_sequence(schedule, "00")
        assert set(word) == {BOTH}

    def test_endpoint_alternates_on_path(self):
        schedule = path_systolic_schedule(2, Mode.HALF_DUPLEX)
        # P_2 half-duplex: round 1 sends 0 -> 1, round 2 sends 1 -> 0.
        assert local_activation_sequence(schedule, 0) == RIGHT + LEFT
        assert local_activation_sequence(schedule, 1) == LEFT + RIGHT

    def test_explicit_protocol_and_custom_length(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)], [(2, 1)]])
        assert local_activation_sequence(protocol, 1) == LEFT + RIGHT + LEFT
        assert local_activation_sequence(protocol, 1, length=2) == LEFT + RIGHT

    def test_unknown_vertex_raises(self):
        schedule = path_systolic_schedule(3, Mode.HALF_DUPLEX)
        with pytest.raises(SimulationError):
            local_activation_sequence(schedule, 99)

    def test_wrong_type_raises(self):
        with pytest.raises(SimulationError):
            local_activation_sequence([], 0)


class TestActivationAnalysis:
    def test_activation_counts(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)], [(0, 1)]])
        counts = activation_counts(protocol)
        assert counts[(0, 1)] == 2
        assert counts[(1, 2)] == 1

    def test_arrival_times_on_path(self):
        g = path_graph(4)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)], [(2, 3)]])
        times = arrival_times(protocol, 0)
        assert times == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_arrival_times_incomplete_broadcast(self):
        g = path_graph(4)
        protocol = GossipProtocol(g, [[(0, 1)]])
        times = arrival_times(protocol, 0)
        assert 3 not in times

    def test_arrival_times_unknown_source(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)]])
        with pytest.raises(SimulationError):
            arrival_times(protocol, 99)

    def test_protocol_summary_fields(self):
        schedule = path_systolic_schedule(5, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(8)
        summary = protocol_summary(protocol)
        assert summary["n"] == 5
        assert summary["length"] == 8
        assert summary["minimal_period"] == 4
        assert summary["total_activations"] > 0
        assert summary["mode"] == "half-duplex"

    def test_protocol_summary_empty_protocol(self):
        g = path_graph(3)
        summary = protocol_summary(GossipProtocol(g, []))
        assert summary["length"] == 0
        assert summary["mean_activations_per_round"] == 0.0
        assert summary["gossip_rounds"] is None
        assert summary["broadcast_times"] == {0: None, 1: None, 2: None}


class TestBatchedArrivalAnalyses:
    """The single-pass arrival/eccentricity helpers and their engine kwarg."""

    def _schedule(self):
        return cycle_systolic_schedule(8, Mode.HALF_DUPLEX)

    def test_protocol_summary_c8_regression(self):
        """Pinned output of the batched summary on the C(8) cycle protocol."""
        schedule = self._schedule()
        protocol = schedule.unroll(8)
        summary = protocol_summary(protocol)
        assert summary == {
            "name": "C(8)-systolic-half-duplex[t=8]",
            "graph": "C(8)",
            "n": 8,
            "mode": "half-duplex",
            "length": 8,
            "minimal_period": 4,
            "distinct_arcs_used": 16,
            "total_activations": 32,
            "mean_activations_per_round": 4.0,
            "idle_vertex_rounds": 0,
            "gossip_rounds": 8,
            "broadcast_times": {v: 8 for v in range(8)},
        }

    def test_summary_broadcast_times_match_batched_helper(self):
        schedule = self._schedule()
        protocol = schedule.unroll(gossip_time(schedule))
        summary = protocol_summary(protocol)
        assert summary["broadcast_times"] == broadcast_times_all(protocol)
        assert summary["gossip_rounds"] == gossip_time(protocol)

    def test_truncated_protocol_reports_unfinished_sources_as_none(self):
        schedule = self._schedule()
        protocol = schedule.unroll(3)  # too short to broadcast anything
        summary = protocol_summary(protocol)
        assert summary["gossip_rounds"] is None
        assert all(t is None for t in summary["broadcast_times"].values())

    def test_eccentricities_match_broadcast_times_all(self):
        schedule = self._schedule()
        for engine in available_engines():
            assert eccentricities(schedule, engine=engine) == broadcast_times_all(schedule)

    def test_eccentricities_tolerate_incomplete_protocols(self):
        g = path_graph(4)
        forward_only = GossipProtocol(
            g, [[(0, 1)], [(1, 2)], [(2, 3)]], mode=Mode.DIRECTED
        )
        ecc = eccentricities(forward_only)
        assert ecc == {0: 3, 1: None, 2: None, 3: None}
        with pytest.raises(SimulationError):
            broadcast_times_all(forward_only)

    def test_all_arrival_times_matches_per_source_sweeps(self):
        schedule = self._schedule()
        protocol = schedule.unroll(2 * gossip_time(schedule))
        for engine in available_engines():
            batched = all_arrival_times(protocol, engine=engine)
            for source in protocol.graph.vertices:
                assert batched[source] == arrival_times(protocol, source), (engine, source)

    def test_arrival_times_accepts_systolic_schedules_and_engines(self):
        schedule = self._schedule()
        results = {
            engine: arrival_times(schedule, 0, engine=engine)
            for engine in available_engines()
        }
        first = next(iter(results.values()))
        assert all(r == first for r in results.values())
        assert first[0] == 0
        assert set(first) == set(schedule.graph.vertices)
        assert max(first.values()) == 8  # C(8) broadcast time from any source

    def test_all_arrival_times_omits_unreached_vertices(self):
        g = path_graph(4)
        protocol = GossipProtocol(g, [[(0, 1)]], mode=Mode.DIRECTED)
        batched = all_arrival_times(protocol)
        assert batched[0] == {0: 0, 1: 1}
        assert batched[3] == {3: 0}
