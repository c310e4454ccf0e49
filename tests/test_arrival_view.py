"""Tests for the lazy arrival-matrix views (ArrivalRounds / ArrivalTimesView).

The views replaced the eager n×n Python tuple materialisation; these tests
pin the compatibility contract — indexing, iteration, equality and the
omission of unreached vertices behave exactly like the nested tuples/dicts
did — plus the new ``.to_numpy()`` escape hatch and its width: the
narrowest of int16, int32 and int64 that holds the last round a run can
stamp.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gossip.analysis import ArrivalTimesView, all_arrival_times, arrival_times
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.engines.base import ArrivalRounds, RoundProgram, arrival_dtype
from repro.gossip.model import GossipProtocol, Mode, make_round
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import cycle_graph, path_graph


def _tracked(engine: str, schedule=None):
    schedule = schedule or cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
    program = RoundProgram.from_schedule(schedule)
    return get_engine(engine).run(program, track_arrivals=True)


class TestArrivalRounds:
    def test_indexing_and_iteration_match_tuples(self):
        result = _tracked("reference")
        view = result.arrival_rounds
        assert isinstance(view, ArrivalRounds)
        assert len(view) == 8
        rows = tuple(view)
        for i in range(8):
            assert view[i] == rows[i]
            assert isinstance(view[i], tuple)
            assert view[i][i] == 0  # own item known at round 0
        assert view[-1] == rows[-1]
        assert view[1:3] == rows[1:3]

    def test_equality_across_backings(self):
        per_engine = {engine: _tracked(engine).arrival_rounds for engine in available_engines()}
        reference = per_engine["reference"]
        for engine, view in per_engine.items():
            assert view == reference, engine
            assert reference == view, engine

    def test_equality_with_plain_tuples(self):
        view = _tracked("vectorized").arrival_rounds
        as_tuples = tuple(tuple(row) for row in view)
        assert view == as_tuples
        assert not (view == as_tuples[:-1])
        assert view != 42
        assert view != tuple(range(len(view)))  # flat sequence: False, not TypeError

    def test_to_numpy_is_narrowest_int_with_minus_one_for_missing(self):
        graph = path_graph(4)
        protocol = GossipProtocol(graph, [[(0, 1)]], mode=Mode.DIRECTED)
        for engine in available_engines():
            result = get_engine(engine).run(
                RoundProgram.from_protocol(protocol), track_arrivals=True
            )
            array = result.arrival_rounds.to_numpy()
            assert array.dtype == np.int16, engine  # a one-round budget
            assert array.shape == (4, 4)
            assert array[1, 0] == 1  # vertex 1 learns item 0 in round 1
            assert array[2, 0] == -1  # never reaches vertex 2
            assert result.arrival_rounds[2][0] is None
            assert not array.flags.writeable

    @pytest.mark.parametrize("engine", available_engines())
    def test_array_backing_is_zero_copy(self, engine):
        view = _tracked(engine).arrival_rounds
        assert view.to_numpy() is view.to_numpy()

    def test_constructor_does_not_freeze_the_callers_array(self):
        source = np.zeros((3, 3), dtype=np.int64)
        view = ArrivalRounds(source)
        source[0, 0] = 7  # caller's buffer stays writeable...
        assert not view.to_numpy().flags.writeable  # ...the view does not

    def test_column_matches_row_extraction(self):
        view = _tracked("vectorized").arrival_rounds
        for j in (0, 3, 7):
            assert view.column(j) == tuple(row[j] for row in view)

    def test_hashable_like_the_tuples_it_replaced(self):
        a = _tracked("reference").arrival_rounds
        b = _tracked("vectorized").arrival_rounds
        assert hash(a) == hash(b)


def _hop_per_period_program(s: int) -> RoundProgram:
    """A 4-vertex path whose period of ``s`` rounds fires (2→3), (1→2) and
    (0→1) in its last three slots and nothing else: item 0 advances one hop
    per period and reaches vertex 3, the last arrival, in round ``3s - 2``.
    The cyclic bound is ``3s``; the budget ``4s`` is past int16."""
    rounds = (make_round([]),) * (s - 3) + (
        make_round([(2, 3)]),
        make_round([(1, 2)]),
        make_round([(0, 1)]),
    )
    return RoundProgram(path_graph(4), rounds, cyclic=True, max_rounds=4 * s)


class TestArrivalWidth:
    @pytest.mark.parametrize("s, dtype", [(10_922, np.int16), (10_924, np.int32)])
    def test_cyclic_bound_picks_the_type_at_the_int16_edge(self, s, dtype):
        program = _hop_per_period_program(s)
        assert arrival_dtype(program.max_rounds) == np.int32
        reference = get_engine("reference").run(program, track_arrivals=True)
        assert reference.arrival_rounds[3][0] == 3 * s - 2  # 32764 or 32770
        for engine in available_engines():
            view = get_engine(engine).run(program, track_arrivals=True).arrival_rounds
            assert view == reference.arrival_rounds, engine
            assert view.to_numpy().dtype == dtype, engine

    @pytest.mark.parametrize("engine", ["vectorized", "frontier"])
    def test_colouring_matrix_takes_two_bytes_per_entry(self, engine):
        n = 256
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        result = get_engine(engine).run(
            RoundProgram.from_schedule(schedule), track_arrivals=True
        )
        assert result.arrival_rounds.to_numpy().nbytes == 2 * n * n

    @pytest.mark.parametrize("last", [7, 40_000])
    def test_equal_views_hash_equal_across_widths_and_backings(self, last):
        rows = [[0, last, None], [1, 0, None], [None, 2, 0]]
        matrix = np.array([[-1 if x is None else x for x in row] for row in rows])
        widths = [t for t in (np.int16, np.int32, np.int64) if last <= np.iinfo(t).max]
        arrays = [ArrivalRounds(matrix.astype(t)) for t in widths]
        assert [view.to_numpy().dtype for view in arrays] == widths  # kept as given
        for view in arrays:
            assert view == arrays[0] and arrays[0] == view
            assert hash(view) == hash(arrays[0])


class TestArrivalTimesView:
    def test_mapping_protocol(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        view = all_arrival_times(schedule)
        assert isinstance(view, ArrivalTimesView)
        assert len(view) == 8
        assert set(view) == set(schedule.graph.vertices)
        assert 0 in view and 99 not in view
        with pytest.raises(KeyError):
            view[99]

    def test_matches_eager_dict_semantics(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        view = all_arrival_times(schedule)
        eager = {
            source: arrival_times(schedule, source)
            for source in schedule.graph.vertices
        }
        assert dict(view) == eager
        assert view == eager  # Mapping equality

    def test_inner_dicts_are_cached(self):
        view = all_arrival_times(cycle_systolic_schedule(8, Mode.HALF_DUPLEX))
        assert view[0] is view[0]

    def test_to_numpy_roundtrip(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        view = all_arrival_times(schedule)
        array = view.to_numpy()
        graph = schedule.graph
        for source in graph.vertices:
            j = graph.index(source)
            for vertex, round_number in view[source].items():
                assert array[graph.index(vertex), j] == round_number
