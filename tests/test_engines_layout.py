"""Unit tests for the shared layout transform and workload statistics.

``repro.gossip.engines.layout`` holds the vectorized engine's row-locality
permutation and the O(1) size statistics the ``engine.resolve`` telemetry
event attaches.  These tests pin the transform's contract directly, along
with the row packing every packed engine starts from and the matrix sizes
at which the vectorized engine switches from its source-map kernel to the
row-permuted one; the registry-wide differential suites already certify
that the engines using them stay bit-exact.  The permuted kernel's L2-tiled
gather, which test-sized matrices never reach at the default tile budget,
is checked against the reference engine here with the budget shrunk, and
so is the vectorized engine's per-batch item scan with its column
replays, in both kernel regimes.  The compiled-slot memo that both packed
engines compile rounds through is pinned here too, with the vectorized
engine's arrival-tracked receiver rows that ride on its entries.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import VectorizedEngine, get_engine, vectorized
from repro.gossip.engines._bitops import pack_int, pack_rows, unpack_rows
from repro.gossip.engines.base import RoundProgram
from repro.gossip.engines.checkpoint import compiled_slots
from repro.gossip.engines.layout import packed_words, row_locality_permutation
from repro.gossip.model import Mode, SystolicSchedule, make_round
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d, path_graph


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
    def test_packed_words(self):
        assert packed_words(0) == 1
        assert packed_words(1) == 1
        assert packed_words(64) == 1
        assert packed_words(65) == 2
        assert packed_words(4096) == 64


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


def test_compiled_slots_compiles_each_distinct_round_once_per_call():
    # Without a caller-owned cache the memo lives for one call: a finite
    # program that repeats its rounds (an unrolled schedule) compiles each
    # distinct round once, and the slots still come in round order.
    a, b = make_round([(0, 1)]), make_round([(1, 2)])
    compiled = []

    def counting_compile(arcs):
        compiled.append(arcs)
        return ("slot", arcs)

    slots = compiled_slots((a, b, a, b, a), counting_compile, None)
    assert compiled == [a, b]
    assert slots == [("slot", a), ("slot", b), ("slot", a), ("slot", b), ("slot", a)]
    compiled_slots((a,), counting_compile, None)
    assert compiled == [a, b, a]  # a new call compiles afresh


def test_arrival_tracked_run_resolves_receivers_once_per_distinct_round(monkeypatch):
    # An unrolled schedule repeats its period's round objects, which share
    # one compiled entry; the receiver rows (one np.unique each) follow the
    # entry, not the round occurrence.
    schedule = coloring_systolic_schedule(grid_2d(4, 6), Mode.HALF_DUPLEX)
    program = RoundProgram.from_protocol(schedule.unroll(12 * schedule.period))
    distinct = len({id(arcs) for arcs in program.rounds})
    expected = get_engine("reference").run(program, track_arrivals=True)
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    result = VectorizedEngine().run(program, track_arrivals=True)
    monkeypatch.undo()
    assert 0 < len(calls) <= distinct < len(program.rounds)
    assert result.arrival_rounds == expected.arrival_rounds


def test_tile_rows_read_the_budget_when_called(monkeypatch):
    # No engine binds the tile budget at construction: patching the module
    # constant is how tests shrink tiles, so it must take effect at once.
    words = 4
    row_bytes = 2 * words * vectorized._WORD_BYTES
    monkeypatch.setattr(vectorized, "_TILE_TARGET_BYTES", 1 << 20)
    assert vectorized._tile_rows(words) == (1 << 20) // row_bytes
    monkeypatch.setattr(vectorized, "_TILE_TARGET_BYTES", 1 << 10)
    assert vectorized._tile_rows(words) == 32  # the row floor


class TestTiledGather:
    """The permuted kernel's tiled gather and chunked completion scan match
    the reference engine.

    Irregular matching rounds longer than one tile take the tiled gather;
    colouring rounds make the schedules complete, so the chunked scan also
    answers "complete".  The regime threshold is patched to 0 and the tile
    budget to 1 KiB, the 32-row floor of :func:`vectorized._tile_rows`.
    """

    GRAPHS = {"C(200)": lambda: cycle_graph(200), "grid 10x20": lambda: grid_2d(10, 20)}

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_SOURCE_MAP_MAX_BYTES", 0)
        monkeypatch.setattr(vectorized, "_TILE_TARGET_BYTES", 1 << 10)

    def _program(self, name):
        graph = self.GRAPHS[name]()
        rounds = [
            *coloring_systolic_schedule(graph, Mode.HALF_DUPLEX).base_rounds,
            *random_systolic_schedule(graph, 3, Mode.HALF_DUPLEX, seed=0).base_rounds,
        ]
        program = RoundProgram.from_schedule(
            SystolicSchedule(graph, rounds, mode=Mode.HALF_DUPLEX)
        )
        words = packed_words(graph.n)
        assert not vectorized._uses_source_map(graph.n, words)
        tile_rows = vectorized._tile_rows(words)
        _, old_to_new = row_locality_permutation(graph, program.rounds)
        compiled = [
            vectorized._compile_round(graph, arcs, old_to_new) for arcs in program.rounds
        ]
        assert any(
            disjoint and segments is None and heads.size > tile_rows
            for _, heads, disjoint, segments in compiled
        ), "no round takes the tiled gather"
        return program

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"track_arrivals": True},
            {"track_item_completion": True},
            {"target_mask": (1 << 150) - 1},
        ],
        ids=["plain", "tracked", "items", "subset-mask"],
    )
    def test_matches_reference(self, name, options):
        from test_engines_differential import assert_results_identical

        program = self._program(name)
        ref = get_engine("reference").run(program, **options)
        got = VectorizedEngine().run(program, **options)
        assert ref.completion_round is not None
        assert_results_identical(ref, got, (name, options))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_checkpoint_resume_roundtrip(self, name):
        from test_engines_differential import assert_results_identical

        program = self._program(name)
        engine = VectorizedEngine()
        ref = get_engine("reference").run_checkpointed(program, checkpoint_rounds=(35,))
        first = engine.run_checkpointed(program, checkpoint_rounds=(35,))
        (state,) = first.checkpoints
        assert state.knowledge == ref.checkpoints[0].knowledge
        resumed = engine.run_checkpointed(program, resume_from=state)
        assert_results_identical(ref.result, resumed.result, name)


@pytest.mark.usefixtures("vectorized_regime")
class TestBatchedItemScan:
    """Item-tracked runs stay in the vectorized engine's batched loop.

    The items every row holds are AND-reduced once per batch, and a batch
    in which items complete, but not the run, is replayed on the word
    columns of those items only.  Every instance has n ≥ 130, so rows span
    at least three words and a replayed column set can be a strict subset;
    each result is checked against the reference engine, in both kernel
    regimes.
    """

    OPTIONS = {"track_item_completion": True}

    @pytest.fixture
    def replays(self, monkeypatch):
        """``(cols, words, rounds)`` of every column replay: the replayed
        word columns, the row width and the rounds replayed."""
        log = []
        replay = vectorized._replay_item_columns

        def spy(apply_round, compiled_at, saved, base, size, cols, *rest):
            done = replay(apply_round, compiled_at, saved, base, size, cols, *rest)
            log.append((cols.tolist(), saved.shape[1], done))
            return done

        monkeypatch.setattr(vectorized, "_replay_item_columns", spy)
        return log

    @staticmethod
    def _path(n):
        schedule = coloring_systolic_schedule(path_graph(n), Mode.HALF_DUPLEX)
        return RoundProgram.from_schedule(schedule)

    @staticmethod
    def _sink_program(n):
        """A half-duplex path on ``n - 1`` vertices plus a vertex that only
        listens to vertex 0: its own item never leaves it."""
        line = n - 1
        arcs = [(i, i + 1) for i in range(line - 1)] + [(i + 1, i) for i in range(line - 1)]
        graph = Digraph(range(n), [*arcs, (0, line)], name=f"P({line})+sink")
        rounds = [
            *coloring_systolic_schedule(path_graph(line), Mode.HALF_DUPLEX).base_rounds,
            make_round([(0, line)]),
        ]
        return RoundProgram(graph, rounds, cyclic=True, max_rounds=3 * n)

    def _check(self, program, **options):
        from test_engines_differential import assert_results_identical

        options = {**self.OPTIONS, **options}
        ref = get_engine("reference").run(program, **options)
        got = VectorizedEngine().run(program, **options)
        assert_results_identical(ref, got, (program.graph.name, options))
        return ref

    def test_path_items_complete_over_many_batches(self, replays):
        ref = self._check(self._path(600))
        assert len(set(ref.item_completion_rounds)) > 200
        assert len(replays) >= 4
        assert all(0 < len(cols) < words for cols, words, _ in replays)
        assert len({tuple(cols) for cols, _, _ in replays}) > 1

    def test_items_complete_but_subset_target_never_does(self, replays):
        n = 140
        program = self._sink_program(n)
        target = (1 << (n - 1)) | ((1 << 64) - 1)  # the sink's item never spreads
        ref = self._check(program, target_mask=target)
        assert ref.completion_round is None
        assert ref.rounds_executed == program.max_rounds
        assert sum(r is not None for r in ref.item_completion_rounds) == n - 1
        assert replays, "every item stamp should come from a column replay"

    @pytest.mark.parametrize("high_target", [False, True], ids=["item-target", "high-target"])
    def test_initial_state_with_bits_above_n(self, high_target):
        n = 150  # items end inside word 2, which the high bits share
        program = self._path(n)
        high = [n + 3, n + 40, n + 170]
        initial = [
            (1 << v) | (1 << high[v % 3] if v % 4 == 0 else 0) for v in range(n)
        ]
        target = (1 << n) - 1
        if high_target:
            target |= sum(1 << bit for bit in high)
        ref = self._check(program, initial=initial, target_mask=target)
        assert len(ref.item_completion_rounds) == n
        assert None not in ref.item_completion_rounds

    def test_every_round_checkpoint_resumes_on_every_engine(self):
        from test_engines_differential import assert_results_identical
        from test_engines_resume import CHECKPOINTABLE, assert_states_identical

        # A checkpoint after every round makes every batch one round long,
        # so each item completes in a one-round column replay.
        program = self._path(130)
        every = range(program.max_rounds + 1)
        ref = get_engine("reference").run_checkpointed(
            program, checkpoint_rounds=every, **self.OPTIONS
        )
        got = VectorizedEngine().run_checkpointed(
            program, checkpoint_rounds=every, **self.OPTIONS
        )
        assert_results_identical(ref.result, got.result)
        assert len(got.checkpoints) == len(ref.checkpoints)
        for expected, state in zip(ref.checkpoints, got.checkpoints):
            assert_states_identical(expected, state)
        first_item = min(ref.result.item_completion_rounds)
        for state in got.checkpoints:
            if state.round < first_item - 1:
                continue
            for name in CHECKPOINTABLE:
                resumed = get_engine(name).run_checkpointed(
                    program, resume_from=state, **self.OPTIONS
                ).result
                assert_results_identical(ref.result, resumed, (name, state.round))

    def test_sparse_checkpoints_inside_replayed_batches(self, replays):
        from test_engines_differential import assert_results_identical
        from test_engines_resume import CHECKPOINTABLE, assert_states_identical

        program = self._path(300)
        wanted = range(0, program.max_rounds + 1, 37)
        ref = get_engine("reference").run_checkpointed(
            program, checkpoint_rounds=wanted, **self.OPTIONS
        )
        got = VectorizedEngine().run_checkpointed(
            program, checkpoint_rounds=wanted, **self.OPTIONS
        )
        assert any(rounds > 1 for _, _, rounds in replays)
        assert_results_identical(ref.result, got.result)
        assert len(got.checkpoints) == len(ref.checkpoints)
        for expected, state in zip(ref.checkpoints, got.checkpoints):
            assert_states_identical(expected, state)
            for name in CHECKPOINTABLE:
                resumed = get_engine(name).run_checkpointed(
                    program, resume_from=state, **self.OPTIONS
                ).result
                assert_results_identical(ref.result, resumed, (name, state.round))

    def test_item_tracked_runs_flush_batches(self):
        from repro import telemetry

        program = self._path(300)

        def counters(**options):
            recorder = telemetry.StatsRecorder()
            with telemetry.recording(recorder):
                VectorizedEngine().run(program, **options)
            stats = recorder.stats
            return tuple(
                stats.counter("engine.vectorized", name)
                for name in ("batches", "replayed_rounds")
            )

        batches, replayed = counters(**self.OPTIONS)
        plain_batches, plain_replayed = counters()
        assert batches == plain_batches > 0
        assert replayed > plain_replayed > 0
        # Arrivals still need every round: the round-by-round loop runs.
        assert counters(track_arrivals=True, track_item_completion=True) == (0, 0)
