"""Metamorphic properties of the hybrid active-word engine.

The differential and fuzz suites pin the hybrid engine to the reference
oracle; these tests check *semantic* invariants that hold independently of
any oracle, so they would still catch a bug shared by both implementations
— mirroring ``tests/test_engines_frontier.py`` for the frontier engine:

* **relabeling invariance** — permuting vertex labels (and hence both the
  engine's internal row indices and its BFS item-bit permutation) permutes
  the result but changes nothing observable: completion, executed rounds,
  the coverage curve, and each vertex's known-item *label* set are
  preserved;
* **threshold-0 ⇒ dense-path equivalence** — ``dense_threshold=0.0``
  degenerates the engine to an always-dense backend whose every observable
  field must match the default (sparse-capable) configuration bit for bit,
  so the sparse path can never drift from the dense one;
* **active-words-empty ⇒ fixed point** — once a full period passes without
  any changed word, knowledge can never grow again: doubling the round
  budget leaves the final state untouched and the coverage tail constant,
  while ``rounds_executed`` still reports the full budget (the engine's
  early exit must be unobservable);
* **tracking invariance** — recording history, item completions or
  arrivals only adds records: the untracked run reaches the same
  completion round, executed rounds, knowledge and checkpoint states.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import HybridEngine, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule
from repro.gossip.simulation import gossip_time, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d, path_graph

from test_engines_differential import assert_results_identical

ENGINE = "hybrid"


def test_hybrid_registered_and_stamped():
    assert isinstance(get_engine(ENGINE), HybridEngine)
    schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
    assert simulate_systolic(schedule, engine=ENGINE).engine_name == ENGINE


@pytest.mark.parametrize("threshold", [-0.01, 1.01, 2.0])
def test_threshold_out_of_range_rejected(threshold):
    with pytest.raises(SimulationError):
        HybridEngine(dense_threshold=threshold)


class TestRelabelingInvariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_vertex_order_preserves_semantics(self, seed):
        graph = cycle_graph(10)
        schedule = random_systolic_schedule(graph, 4, Mode.HALF_DUPLEX, seed=seed)

        # Same labels and arcs, but a rotated+reflected vertex *order*: every
        # internal index — row, item bit, and the BFS permutation built from
        # them — changes.
        permuted_vertices = sorted(graph.vertices, key=lambda v: ((3 * v + 7) % 10, v))
        permuted_graph = Digraph(permuted_vertices, graph.arcs, name="C10-permuted")
        permuted_schedule = SystolicSchedule(
            permuted_graph, schedule.base_rounds, mode=schedule.mode
        )

        base = simulate_systolic(
            schedule, max_rounds=60, track_history=True, engine=ENGINE
        )
        perm = simulate_systolic(
            permuted_schedule, max_rounds=60, track_history=True, engine=ENGINE
        )

        assert base.completion_round == perm.completion_round
        assert base.rounds_executed == perm.rounds_executed
        assert base.coverage_history == perm.coverage_history
        for vertex in graph.vertices:
            base_labels = {graph.vertex(j) for j in base.known_items(vertex)}
            perm_labels = {permuted_graph.vertex(j) for j in perm.known_items(vertex)}
            assert base_labels == perm_labels, vertex


class TestDensePathEquivalence:
    """``dense_threshold=0.0`` (always dense) is a second oracle for the
    sparse path: both configurations must agree on every observable field,
    under every tracking flag, on schedules that exercise first firings,
    windows, fixed points and irregular rounds."""

    CASES = {
        "cycle": lambda: coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX),
        "grid-full-duplex": lambda: coloring_systolic_schedule(
            grid_2d(3, 4), Mode.FULL_DUPLEX
        ),
        "random-sparse": lambda: random_systolic_schedule(
            grid_2d(3, 5), 5, Mode.HALF_DUPLEX, seed=11, activation_probability=0.6
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "options",
        [
            {"track_history": True},
            {"track_history": False, "track_arrivals": True},
            {"track_item_completion": True, "track_arrivals": True},
        ],
        ids=["history", "arrivals", "items+arrivals"],
    )
    def test_threshold_zero_matches_default(self, case, options):
        schedule = self.CASES[case]()
        program = RoundProgram.from_schedule(schedule, 6 * schedule.graph.n)
        dense = HybridEngine(dense_threshold=0.0).run(program, **options)
        sparse = HybridEngine(dense_threshold=1.0).run(program, **options)
        default = get_engine(ENGINE).run(program, **options)
        assert_results_identical(dense, sparse, (case, "dense-vs-sparse", options))
        assert_results_identical(dense, default, (case, "dense-vs-default", options))

    def test_threshold_zero_matches_on_custom_initial_state(self):
        # High bits above n exercise the word-width widening and the
        # identity tail of the item-bit permutation at once.
        schedule = coloring_systolic_schedule(cycle_graph(6), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule, 12)
        n = schedule.graph.n
        initial = [(1 << i) | (1 << (n + 3 + i)) for i in range(n)]
        options = {"initial": initial, "track_arrivals": True}
        dense = HybridEngine(dense_threshold=0.0).run(program, **options)
        sparse = HybridEngine(dense_threshold=1.0).run(program, **options)
        assert_results_identical(dense, sparse, "custom-initial")


class TestActiveWordsEmptyFixedPoint:
    def _stuck_schedule(self):
        """Forward-only path rounds: knowledge saturates without completing."""
        n = 7
        graph = path_graph(n)
        rounds = [[(i, i + 1)] for i in range(n - 1)]
        return SystolicSchedule(graph, rounds, mode=Mode.DIRECTED, name="P7-forward-only")

    def test_saturated_run_is_a_fixed_point(self):
        schedule = self._stuck_schedule()
        short = simulate_systolic(schedule, max_rounds=120, track_history=True, engine=ENGINE)
        long = simulate_systolic(schedule, max_rounds=240, track_history=True, engine=ENGINE)

        assert not short.complete and not long.complete
        # The early exit must be unobservable: the full budget is reported...
        assert short.rounds_executed == 120
        assert long.rounds_executed == 240
        assert len(short.coverage_history) == 121
        assert len(long.coverage_history) == 241
        # ...knowledge really is a fixed point...
        assert short.knowledge == long.knowledge
        # ...and the coverage tail is constant once no word changes.
        saturated = short.coverage_history[-1]
        assert long.coverage_history[120:] == (saturated,) * 121
        # Vertex 0 never learns anything on a forward-only path.
        assert short.known_items(0) == {0}

    def test_fixed_point_matches_reference(self):
        schedule = self._stuck_schedule()
        program = RoundProgram.from_schedule(schedule, 90)
        ref = get_engine("reference").run(program, track_item_completion=True)
        got = get_engine(ENGINE).run(program, track_item_completion=True)
        assert ref.knowledge == got.knowledge
        assert ref.rounds_executed == got.rounds_executed
        assert ref.coverage_history == got.coverage_history
        assert ref.item_completion_rounds == got.item_completion_rounds

    def test_completion_still_exact_after_thin_windows(self):
        # A completing schedule whose active windows thin out near the end:
        # the hybrid engine must report the same exact completion round.
        schedule = coloring_systolic_schedule(path_graph(17), Mode.HALF_DUPLEX)
        assert gossip_time(schedule, engine=ENGINE) == gossip_time(
            schedule, engine="reference"
        )


class TestTrackingInvariance:
    """Tracking only adds records.  The untracked run — the path every
    ``gossip_time`` call takes — must reach the same completion round,
    executed rounds and knowledge as a fully tracked run, at every dense
    threshold, and capture the same checkpoint states.  The untracked side
    is also pinned to the reference engine, which shares none of the
    hybrid engine's completion accounting."""

    CASES = TestDensePathEquivalence.CASES
    TRACK_ALL = {
        "track_history": True,
        "track_item_completion": True,
        "track_arrivals": True,
    }

    @staticmethod
    def _same_outcome(plain, tracked, context):
        assert plain.completion_round == tracked.completion_round, context
        assert plain.rounds_executed == tracked.rounds_executed, context
        assert plain.knowledge == tracked.knowledge, context

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("threshold", [0.0, 0.25, 1.0])
    def test_untracked_matches_tracked_and_reference(self, case, threshold):
        program = RoundProgram.from_schedule(self.CASES[case]())
        engine = HybridEngine(dense_threshold=threshold)
        plain = engine.run(program, track_history=False)
        tracked = engine.run(program, **self.TRACK_ALL)
        self._same_outcome(plain, tracked, (case, threshold))
        ref = get_engine("reference").run(program, track_history=False)
        assert_results_identical(ref, plain, (case, threshold, "reference"))

    def test_untracked_never_completing_run(self):
        # Forward-only path rounds saturate without completing: the
        # post-loop completeness check must answer "no" on an untracked run
        # and still report the full budget.
        n = 7
        graph = path_graph(n)
        rounds = [[(i, i + 1)] for i in range(n - 1)]
        schedule = SystolicSchedule(graph, rounds, mode=Mode.DIRECTED)
        program = RoundProgram.from_schedule(schedule, 90)
        plain = get_engine(ENGINE).run(program, track_history=False)
        assert plain.completion_round is None
        assert plain.rounds_executed == 90
        self._same_outcome(
            plain, get_engine(ENGINE).run(program, **self.TRACK_ALL), "never-completing"
        )
        ref = get_engine("reference").run(program, track_history=False)
        assert_results_identical(ref, plain, "never-completing")

    @pytest.mark.parametrize(
        "options",
        [
            {"track_history": True},
            {"track_history": False, "track_arrivals": True},
            {"track_history": False, "track_item_completion": True},
            {"track_history": True, "target_mask": 0b1011},
        ],
        ids=["history", "arrivals", "items", "subset-mask"],
    )
    def test_each_tracking_option_leaves_the_outcome(self, options):
        program = RoundProgram.from_schedule(
            coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX)
        )
        mask = {"target_mask": options["target_mask"]} if "target_mask" in options else {}
        plain = get_engine(ENGINE).run(program, track_history=False, **mask)
        tracked = get_engine(ENGINE).run(program, **options)
        assert plain.completion_round is not None
        self._same_outcome(plain, tracked, options)
        ref = get_engine("reference").run(program, **options)
        assert_results_identical(ref, tracked, options)

    def test_untracked_checkpoints_match_tracked(self):
        # A checkpoint after every round: no state past the completion
        # round, the completing round's state carries the stamp, and the
        # captured knowledge does not depend on what the run records.
        program = RoundProgram.from_schedule(
            coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX)
        )
        every = range(program.max_rounds + 1)
        engine = get_engine(ENGINE)
        plain = engine.run_checkpointed(program, checkpoint_rounds=every, track_history=False)
        tracked = engine.run_checkpointed(program, checkpoint_rounds=every, track_history=True)
        completion = plain.result.completion_round
        assert completion is not None
        assert [s.round for s in plain.checkpoints] == list(range(completion + 1))
        assert [s.round for s in tracked.checkpoints] == list(range(completion + 1))
        for sp, st in zip(plain.checkpoints, tracked.checkpoints):
            assert sp.knowledge == st.knowledge, sp.round
            expected = completion if sp.round == completion else None
            assert sp.completion_round == st.completion_round == expected, sp.round
