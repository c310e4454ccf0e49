"""Tests for delay digraphs of concrete protocols (repro.core.delay)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delay import DelayDigraph, full_duplex_local_matrix
from repro.core.norms import euclidean_norm
from repro.core.polynomials import (
    full_duplex_norm_bound,
    half_duplex_norm_bound,
)
from repro.core.roots import solve_unit_root
from repro.exceptions import BoundComputationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.model import GossipProtocol, Mode
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.topologies.classic import cycle_graph, grid_2d, hypercube, path_graph
from repro.topologies.debruijn import de_bruijn

DIFFERENTIAL_GRAPHS = {
    "C(10)": lambda: cycle_graph(10),
    "grid3x4": lambda: grid_2d(3, 4),
    "Q3": lambda: hypercube(3),
    "DB(2,3)": lambda: de_bruijn(2, 3),
}


class TestConstruction:
    def test_nodes_are_arc_activations(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)], [(0, 1)]])
        delay = DelayDigraph(protocol, period=3)
        assert delay.num_nodes == 3
        labels = {delay.node_label(node) for node in delay.nodes}
        assert labels == {(0, 1, 1), (1, 2, 2), (0, 1, 3)}

    def test_arcs_respect_window(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [], [(1, 2)], [(0, 1)], [], [(1, 2)]])
        # The protocol is 3-systolic.  With the window s = 3, only the two
        # delay-2 arcs (0,1,i) -> (1,2,i+2) qualify; widening the window to
        # the whole protocol (s = 6) additionally admits (0,1,1) -> (1,2,6).
        assert DelayDigraph(protocol, period=3).num_arcs() == 2
        assert DelayDigraph(protocol, period=6).num_arcs() == 3

    def test_arcs_require_shared_middle_vertex(self):
        g = path_graph(4)
        protocol = GossipProtocol(g, [[(0, 1)], [(2, 3)]])
        assert DelayDigraph(protocol, period=2).num_arcs() == 0

    def test_wrong_period_rejected(self):
        schedule = path_systolic_schedule(4, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(8)
        with pytest.raises(BoundComputationError):
            DelayDigraph(protocol, period=3)

    def test_default_period_is_minimal(self):
        schedule = path_systolic_schedule(4, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(8)
        delay = DelayDigraph(protocol)
        assert delay.period == 4

    def test_invalid_lambda_rejected(self):
        schedule = path_systolic_schedule(4, Mode.HALF_DUPLEX)
        delay = DelayDigraph(schedule.unroll(4))
        with pytest.raises(BoundComputationError):
            delay.norm(1.0)
        with pytest.raises(BoundComputationError):
            delay.delay_matrix(-0.1)


class TestDelayMatrix:
    def test_entries_are_lambda_powers(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)], [(1, 2)]])
        delay = DelayDigraph(protocol, period=2)
        lam = 0.5
        matrix = delay.delay_matrix(lam)
        assert matrix.shape == (2, 2)
        assert sorted(matrix.flatten().tolist()) == [0.0, 0.0, 0.0, 0.5]

    def test_blockwise_norm_equals_global_norm(self):
        # Norm property 8: the max local-block norm equals the norm of the
        # full delay matrix (after permutation, which does not change it).
        schedule = cycle_systolic_schedule(6, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(3 * schedule.period)
        delay = DelayDigraph(protocol, period=schedule.period)
        lam = 0.6
        assert delay.norm(lam) == pytest.approx(
            euclidean_norm(delay.delay_matrix(lam)), rel=1e-9
        )

    def test_local_block_shape(self):
        schedule = path_systolic_schedule(4, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(8)
        delay = DelayDigraph(protocol, period=4)
        block = delay.local_block(1, 0.5)
        # vertex 1 of P(4) has incoming and outgoing activations every period
        assert block.shape[0] > 0 and block.shape[1] > 0

    def test_vertex_without_throughput_has_zero_norm_contribution(self):
        g = path_graph(3)
        protocol = GossipProtocol(g, [[(0, 1)]])
        delay = DelayDigraph(protocol, period=1)
        assert delay.vertices_with_activity() == []
        assert delay.norm(0.5) == 0.0

    @pytest.mark.parametrize("period", range(3, 9))
    @pytest.mark.parametrize(
        "mode", [Mode.HALF_DUPLEX, Mode.FULL_DUPLEX], ids=lambda mode: mode.value
    )
    @pytest.mark.parametrize("graph_name", sorted(DIFFERENTIAL_GRAPHS))
    def test_compiled_blocks_match_dense_matrix(self, graph_name, mode, period):
        # The dense matrix is built from arcs(), independently of the
        # compiled exponent patterns behind norm() and local_block().
        graph = DIFFERENTIAL_GRAPHS[graph_name]()
        schedule = random_systolic_schedule(graph, period, mode, seed=period)
        delay = DelayDigraph(schedule.unroll(3 * period), period=period)
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            dense = delay.delay_matrix(lam)
            assert delay.norm(lam) == pytest.approx(euclidean_norm(dense), rel=1e-9)
            for x in range(graph.n):
                rows = [i for i, node in enumerate(delay.nodes) if node.head_index == x]
                cols = [i for i, node in enumerate(delay.nodes) if node.tail_index == x]
                block = delay.local_block(graph.vertex(x), lam)
                assert np.array_equal(block, dense[np.ix_(rows, cols)])

    @pytest.mark.parametrize(
        "schedule_factory",
        [
            # Blocks of shapes 6x6, 9x9 and 12x12.
            lambda: coloring_systolic_schedule(de_bruijn(2, 4), Mode.HALF_DUPLEX),
            # Eight shapes, non-square ones included.
            lambda: random_systolic_schedule(hypercube(4), 6, Mode.HALF_DUPLEX, seed=1),
        ],
        ids=["DB(2,4)-coloring", "Q4-random"],
    )
    def test_batched_norm_is_the_largest_local_norm_exactly(self, schedule_factory):
        # norm() factors each shape's stack of blocks in one batched call;
        # LAPACK still factors every block on its own, so the value is the
        # one-block local_norm() bit for bit, not just to a tolerance.
        schedule = schedule_factory()
        s = schedule.period
        delay = DelayDigraph(schedule.unroll(3 * s), period=s)
        vertices = delay.vertices_with_activity()
        for lam in (0.1, 0.35, 0.5, 0.72, 0.9):
            assert delay.norm(lam) == max(delay.local_norm(v, lam) for v in vertices)

    def test_norm_monotone_in_lambda(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(2 * schedule.period)
        delay = DelayDigraph(protocol, period=schedule.period)
        values = [delay.norm(lam) for lam in (0.2, 0.4, 0.6, 0.8)]
        assert values == sorted(values)


class TestLemma43OnConcreteProtocols:
    """``‖M(λ*)‖ ≤ 1`` at the analytic root, for real half-duplex schedules."""

    @pytest.mark.parametrize(
        "schedule_factory",
        [
            lambda: path_systolic_schedule(8, Mode.HALF_DUPLEX),
            lambda: cycle_systolic_schedule(8, Mode.HALF_DUPLEX),
            lambda: random_systolic_schedule(de_bruijn(2, 3), 6, Mode.HALF_DUPLEX, seed=11),
            lambda: random_systolic_schedule(de_bruijn(2, 3), 5, Mode.HALF_DUPLEX, seed=2),
        ],
    )
    def test_norm_at_analytic_root_at_most_one(self, schedule_factory):
        schedule = schedule_factory()
        s = schedule.period
        lam = solve_unit_root(lambda x: half_duplex_norm_bound(s, x))
        protocol = schedule.unroll(3 * s)
        delay = DelayDigraph(protocol, period=s)
        assert delay.norm(lam) <= 1.0 + 1e-9

    def test_full_duplex_norm_at_analytic_root_at_most_one(self):
        schedule = hypercube_dimension_exchange(3, Mode.FULL_DUPLEX)
        s = schedule.period
        lam = solve_unit_root(lambda x: full_duplex_norm_bound(s, x))
        delay = DelayDigraph(schedule.unroll(3 * s), period=s)
        assert delay.norm(lam) <= 1.0 + 1e-9


class TestFullDuplexLocalMatrix:
    def test_band_structure(self):
        matrix = full_duplex_local_matrix(3, 6, 0.5)
        for i in range(6):
            for j in range(6):
                if 1 <= j - i <= 2:
                    assert matrix[i, j] == pytest.approx(0.5 ** (j - i))
                else:
                    assert matrix[i, j] == 0.0

    def test_row_sums_bounded_by_lemma61(self):
        s, rounds, lam = 5, 12, 0.45
        matrix = full_duplex_local_matrix(s, rounds, lam)
        bound = full_duplex_norm_bound(s, lam)
        assert np.max(matrix.sum(axis=1)) <= bound + 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(BoundComputationError):
            full_duplex_local_matrix(1, 5, 0.5)
        with pytest.raises(BoundComputationError):
            full_duplex_local_matrix(3, 0, 0.5)
        with pytest.raises(BoundComputationError):
            full_duplex_local_matrix(3, 5, 1.2)
