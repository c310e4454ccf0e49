"""Unit tests for the shared layout transforms and workload statistics.

``repro.gossip.engines.layout`` factors the hybrid engine's BFS item-bit
permutation and the vectorized engine's row-locality permutation (plus the
O(1) statistics feeding the workload-aware ``"auto"`` decision function)
into one module.  These tests pin the transforms' contracts directly, along
with the row packing every packed engine starts from and the matrix sizes
at which the vectorized engine switches from its source-map kernel to the
row-permuted one; the registry-wide differential suites already certify
that the engines using them stay bit-exact.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.gossip.engines import VectorizedEngine, vectorized
from repro.gossip.engines._bitops import pack_int, pack_rows, unpack_rows
from repro.gossip.engines.base import RoundProgram
from repro.gossip.engines.layout import (
    bfs_item_positions,
    gather_bit_columns,
    mean_arc_degree,
    packed_matrix_bytes,
    packed_words,
    row_locality_permutation,
)
from repro.gossip.model import Mode
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d, hypercube, path_graph


class TestBfsItemPositions:
    def test_identity_order_returns_none(self):
        # A path in natural vertex order IS its own BFS order from vertex 0.
        assert bfs_item_positions(path_graph(9)) is None

    def test_cycle_is_permuted(self):
        # BFS on a cycle alternates directions (0, 1, n-1, 2, ...), so the
        # map is a genuine non-identity permutation of the bit positions.
        n = 8
        pos = bfs_item_positions(cycle_graph(n))
        assert pos is not None
        assert sorted(pos.tolist()) == list(range(n))
        assert pos.tolist() != list(range(n))

    def test_disconnected_components_get_total_order(self):
        # Two disjoint 2-paths: every vertex must receive exactly one slot.
        graph = Digraph(range(4), [(0, 1), (1, 0), (2, 3), (3, 2)], name="2xP2")
        pos = bfs_item_positions(graph)
        assert pos is None or sorted(pos.tolist()) == list(range(4))

    def test_bfs_neighbours_are_close(self):
        # The transform exists for locality: in BFS order, the two cycle
        # neighbours of any vertex sit within distance 2 of it.
        n = 16
        pos = bfs_item_positions(cycle_graph(n))
        assert pos is not None
        for v in range(n):
            for w in ((v + 1) % n, (v - 1) % n):
                assert abs(int(pos[v]) - int(pos[w])) <= 2


class TestGatherBitColumns:
    def test_permutes_bits_exactly(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2**63, size=(5, 1), dtype=np.uint64)
        colmap = rng.permutation(64).astype(np.int64)
        out = gather_bit_columns(rows, colmap)
        for i in range(rows.shape[0]):
            value = int(rows[i, 0])
            permuted = int(out[i, 0])
            for c in range(64):
                assert (permuted >> c) & 1 == (value >> int(colmap[c])) & 1

    def test_round_trips_through_inverse(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2**63, size=(4, 2), dtype=np.uint64)
        colmap = rng.permutation(128).astype(np.int64)
        inverse = np.empty_like(colmap)
        inverse[colmap] = np.arange(128, dtype=np.int64)
        assert np.array_equal(
            gather_bit_columns(gather_bit_columns(rows, colmap), inverse), rows
        )


class TestRowLocalityPermutation:
    def test_inverse_consistency(self):
        graph = cycle_graph(10)
        rounds = coloring_systolic_schedule(graph, Mode.HALF_DUPLEX).base_rounds
        new_to_old, old_to_new = row_locality_permutation(graph, rounds)
        assert np.array_equal(old_to_new[new_to_old], np.arange(graph.n))
        assert np.array_equal(new_to_old[old_to_new], np.arange(graph.n))

    def test_first_round_heads_are_contiguous(self):
        graph = cycle_graph(12)
        rounds = coloring_systolic_schedule(graph, Mode.HALF_DUPLEX).base_rounds
        new_to_old, old_to_new = row_locality_permutation(graph, rounds)
        heads = {graph.index(h) for _, h in rounds[0]}
        positions = sorted(int(old_to_new[v]) for v in heads)
        # Heads occupy one contiguous block at the top of the new order.
        assert positions == list(range(graph.n - len(heads), graph.n))

    def test_all_empty_rounds_yield_identity(self):
        graph = path_graph(5)
        new_to_old, old_to_new = row_locality_permutation(graph, [(), ()])
        assert np.array_equal(new_to_old, np.arange(5))
        assert np.array_equal(old_to_new, np.arange(5))


class TestWorkloadStatistics:
    def test_mean_arc_degree_known_values(self):
        assert mean_arc_degree(cycle_graph(16)) == 2.0
        assert mean_arc_degree(path_graph(16)) == pytest.approx(30 / 16)
        assert mean_arc_degree(hypercube(4)) == 4.0
        # The crossover table's grid convention: 16×256 ≈ 3.87.
        grid = grid_2d(16, 256)
        assert mean_arc_degree(grid) == pytest.approx(grid.m / grid.n)
        assert 3.0 < mean_arc_degree(grid) < 4.0

    def test_packed_words(self):
        assert packed_words(0) == 1
        assert packed_words(1) == 1
        assert packed_words(64) == 1
        assert packed_words(65) == 2
        assert packed_words(4096) == 64

    def test_packed_matrix_bytes_crossover_rows(self):
        # The plain-run cache crossover separates the measured table rows:
        # n = 4096 is 2 MiB (vectorized wins), n = 8192 is 8 MiB (hybrid).
        assert packed_matrix_bytes(4096) == 2 << 20
        assert packed_matrix_bytes(8192) == 8 << 20


class TestPackRows:
    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_pack_int_row_by_row(self, words):
        rng = np.random.default_rng(words)
        values = [int(v) for v in rng.integers(0, 2**62, size=9)]
        values += [(1 << (64 * words)) - 1, 0, 1 << (64 * words - 1)]
        packed = pack_rows(values, words)
        assert packed.shape == (len(values), words)
        assert packed.dtype == np.uint64
        for row, value in zip(packed, values):
            assert np.array_equal(row, pack_int(value, words))
        assert unpack_rows(packed) == tuple(values)

    def test_result_is_writable(self):
        # Engines OR rounds into the packed start state in place.
        packed = pack_rows([1, 2, 4], 1)
        packed |= np.uint64(8)
        assert unpack_rows(packed) == (9, 10, 12)

    def test_unpack_rows_of_strided_single_word_view(self):
        matrix = np.arange(12, dtype=np.uint64).reshape(6, 2)
        assert unpack_rows(matrix[::2, 1:]) == (1, 5, 9)


class TestVectorizedRegime:
    """Which kernel an ``(n, words)`` packed matrix runs: the source map up
    to ``_SOURCE_MAP_MAX_BYTES`` (128 KiB), the row-permuted kernel above."""

    @pytest.mark.parametrize(
        "n, words, source_map",
        [
            (1, 1, True),
            (128, 2, True),  # optimize-small's largest instances
            (576, 9, True),  # faults-mc's nominal grid 24x24 run
            (1024, 16, True),  # exactly 128 KiB
            (1025, 17, False),
            (2048, 32, False),
            (3072, 48, False),  # simulate-large
            (64, 2048, False),  # few vertices, very wide caller-supplied rows
        ],
    )
    def test_regime_by_packed_bytes(self, n, words, source_map):
        assert vectorized._uses_source_map(n, words) is source_map

    def test_engine_runs_the_pinned_regime(self, monkeypatch):
        # Slot-cache keys show the regime that compiled each round: the
        # round's identity alone for source maps, (round, anchor) pairs for
        # permuted index arrays.
        schedule = coloring_systolic_schedule(cycle_graph(16), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule)

        def key_types():
            cache: dict = {}
            VectorizedEngine().run_checkpointed(program, slot_cache=cache)
            return {type(key) for key in cache}

        assert key_types() == {int}
        monkeypatch.setattr(vectorized, "_SOURCE_MAP_MAX_BYTES", 0)
        assert key_types() == {tuple}
