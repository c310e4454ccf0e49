"""Tests for the dissemination simulator (repro.gossip.simulation)."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.gossip.engines import get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import GossipProtocol, Mode, SystolicSchedule
from repro.gossip.simulation import (
    broadcast_time,
    gossip_time,
    is_complete_gossip,
    knowledge_counts,
    simulate,
    simulate_systolic,
)
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.topologies.classic import cycle_graph, path_graph


class TestSimulate:
    def test_initially_each_vertex_knows_itself(self):
        g = path_graph(3)
        result = simulate(GossipProtocol(g, []))
        assert result.knowledge == (0b001, 0b010, 0b100)
        assert not result.complete
        assert result.known_items(1) == {1}

    def test_single_arc_transfers_knowledge(self):
        g = path_graph(2)
        result = simulate(GossipProtocol(g, [[(0, 1)]]))
        assert result.known_items(1) == {0, 1}
        assert result.known_items(0) == {0}

    def test_two_vertex_gossip_needs_two_half_duplex_rounds(self):
        g = path_graph(2)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 0)]])
        result = simulate(protocol)
        assert result.complete
        assert result.completion_round == 2

    def test_rounds_act_on_snapshot(self):
        # With arcs (0,1) and (1,2) in the same (invalid as a matching, but
        # structurally buildable) round, vertex 2 must NOT receive item 0 in
        # that round: transfers read the pre-round knowledge.
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1), (1, 2)]])
        result = simulate(protocol)
        assert result.known_items(2) == {1, 2}

    def test_completion_stops_execution(self):
        g = path_graph(2)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 0)], [(0, 1)], [(1, 0)]])
        result = simulate(protocol)
        assert result.completion_round == 2
        assert result.rounds_executed == 2

    def test_knowledge_counts(self):
        g = path_graph(3)
        result = simulate(GossipProtocol(g, [[(0, 1)]]))
        assert knowledge_counts(result) == [1, 2, 1]


class TestSimulateSystolic:
    def test_path_gossip_completes(self):
        schedule = path_systolic_schedule(5, Mode.HALF_DUPLEX)
        result = simulate_systolic(schedule)
        assert result.complete

    def test_incomplete_schedule_reports_incomplete(self):
        # A schedule that only ever sends 0 -> 1 can never complete gossip.
        g = path_graph(3)
        schedule = SystolicSchedule(g, [[(0, 1)]])
        result = simulate_systolic(schedule, max_rounds=50)
        assert not result.complete
        assert result.rounds_executed == 50

    def test_max_rounds_budget_respected(self):
        schedule = path_systolic_schedule(20, Mode.HALF_DUPLEX)
        result = simulate_systolic(schedule, max_rounds=3)
        assert not result.complete
        assert result.rounds_executed == 3


class TestDefaultCallPath:
    """Default-argument runs track nothing beyond completion, so the
    vectorized engine takes its batched loop (one completion scan per
    doubling batch) rather than the round-by-round one."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda schedule: simulate(schedule.unroll(40), engine="vectorized"),
            lambda schedule: simulate_systolic(schedule, engine="vectorized"),
            lambda schedule: get_engine("vectorized").run(
                RoundProgram.from_schedule(schedule)
            ),
        ],
        ids=["simulate", "simulate_systolic", "engine-run"],
    )
    def test_default_run_takes_the_batched_loop(self, run):
        from repro import telemetry

        schedule = path_systolic_schedule(12, Mode.HALF_DUPLEX)
        recorder = telemetry.StatsRecorder()
        with telemetry.recording(recorder):
            result = run(schedule)
        assert result.complete
        assert recorder.stats.counter("engine.vectorized", "batches") > 0


class TestGossipTime:
    def test_hypercube_full_duplex_is_exactly_dim(self):
        for dim in (2, 3, 4):
            schedule = hypercube_dimension_exchange(dim, Mode.FULL_DUPLEX)
            assert gossip_time(schedule) == dim

    def test_hypercube_half_duplex_is_exactly_two_dim(self):
        schedule = hypercube_dimension_exchange(3, Mode.HALF_DUPLEX)
        assert gossip_time(schedule) == 6

    def test_explicit_protocol_accepted(self):
        g = path_graph(2)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 0)]])
        assert gossip_time(protocol) == 2

    def test_incomplete_protocol_raises(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)]])
        with pytest.raises(SimulationError):
            gossip_time(protocol)

    def test_wrong_type_raises(self):
        with pytest.raises(SimulationError):
            gossip_time("not a protocol")

    def test_gossip_time_at_least_diameter_times_one(self):
        # The gossip time can never beat the cycle's diameter.
        from repro.protocols.cycle import cycle_systolic_schedule
        from repro.topologies.properties import diameter

        schedule = cycle_systolic_schedule(10, Mode.FULL_DUPLEX)
        assert gossip_time(schedule) >= diameter(cycle_graph(10))


class TestBroadcastTime:
    def test_broadcast_from_path_end(self):
        schedule = path_systolic_schedule(5, Mode.HALF_DUPLEX)
        time_from_end = broadcast_time(schedule, 0)
        assert time_from_end >= 4  # at least the eccentricity

    def test_broadcast_le_gossip(self):
        schedule = path_systolic_schedule(6, Mode.HALF_DUPLEX)
        g_time = gossip_time(schedule)
        for v in range(6):
            assert broadcast_time(schedule, v) <= g_time

    def test_broadcast_on_explicit_protocol(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)]])
        assert broadcast_time(protocol, 0) == 2

    def test_broadcast_incomplete_raises(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)]])
        with pytest.raises(SimulationError):
            broadcast_time(protocol, 0)

    def test_broadcast_wrong_type_raises(self):
        with pytest.raises(SimulationError):
            broadcast_time(42, 0)


class TestIsCompleteGossip:
    def test_true_case(self):
        g = path_graph(2)
        assert is_complete_gossip(GossipProtocol(g, [[(0, 1)], [(1, 0)]]))

    def test_false_case(self):
        g = path_graph(2)
        assert not is_complete_gossip(GossipProtocol(g, [[(0, 1)]]))


class TestKnownItemsBitIteration:
    """Regression tests for known_items: it iterates over *set* bits.

    The original implementation scanned all of ``range(n)`` per call, which
    is quadratic over a full sweep on large sparse knowledge sets; the fix
    walks only the set bits (O(popcount) per call).
    """

    def test_sparse_knowledge_on_large_graph(self):
        from repro.gossip.simulation import SimulationResult

        n = 50_000
        g = path_graph(n)
        bits = (1 << 0) | (1 << 31337) | (1 << (n - 1))
        knowledge = tuple(
            bits if i == 0 else 1 << i for i in range(n)
        )
        result = SimulationResult(
            graph=g,
            rounds_executed=0,
            completion_round=None,
            knowledge=knowledge,
        )
        assert result.known_items(0) == {0, 31337, n - 1}
        assert result.known_items(n - 1) == {n - 1}

    def test_all_bits_set(self):
        g = path_graph(4)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)], [(2, 3)]])
        result = simulate(protocol)
        assert result.known_items(3) == {0, 1, 2, 3}

    def test_matches_per_index_scan(self):
        schedule = path_systolic_schedule(6, Mode.HALF_DUPLEX)
        result = simulate(schedule.unroll(4))
        for v in range(6):
            bits = result.knowledge[v]
            expected = {j for j in range(6) if bits >> j & 1}
            assert result.known_items(v) == expected
