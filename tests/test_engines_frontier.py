"""Metamorphic properties of the frontier-propagation engine.

The differential and fuzz suites pin the frontier engine to the reference
oracle; these tests check *semantic* invariants that hold independently of
any oracle, so they would still catch a bug shared by both implementations:

* **relabeling invariance** — permuting vertex labels (and hence the
  engine's internal indices) permutes the result but changes nothing
  observable: completion, executed rounds, the coverage curve, and each
  vertex's known-item *label* set are preserved;
* **monotonicity** — activating additional arcs can only help: coverage
  dominates pointwise, completion never gets later, and every vertex's
  final knowledge is a superset;
* **frontier-empty ⇒ fixed point** — once a full period passes without any
  newly learned pair, knowledge can never grow again: doubling the round
  budget leaves the final state untouched and the coverage tail constant,
  while ``rounds_executed`` still reports the full budget (the engine's
  early exit must be unobservable).
"""

from __future__ import annotations

import pytest

from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import FrontierEngine, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule
from repro.gossip.simulation import gossip_time, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d, path_graph


ENGINE = "frontier"


def test_frontier_registered_and_stamped():
    assert isinstance(get_engine(ENGINE), FrontierEngine)
    schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
    assert simulate_systolic(schedule, engine=ENGINE).engine_name == ENGINE


class TestRelabelingInvariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_vertex_order_preserves_semantics(self, seed):
        graph = cycle_graph(10)
        schedule = random_systolic_schedule(graph, 4, Mode.HALF_DUPLEX, seed=seed)

        # Same labels and arcs, but a rotated+reflected vertex *order*: every
        # internal index (and therefore item bit position) changes.
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


class TestMonotonicityUnderAddedArcs:
    @pytest.mark.parametrize("seed", range(4))
    def test_extra_arcs_never_hurt(self, seed):
        graph = grid_2d(3, 4)
        sparse = random_systolic_schedule(
            graph, 4, Mode.HALF_DUPLEX, seed=seed, activation_probability=0.5
        )
        # Superset schedule: every round additionally activates all arcs of a
        # proper colouring round (still valid arcs of the same graph).
        extra = coloring_systolic_schedule(graph, Mode.HALF_DUPLEX).base_rounds
        richer_rounds = [
            tuple(dict.fromkeys(tuple(r) + extra[i % len(extra)]))
            for i, r in enumerate(sparse.base_rounds)
        ]
        richer = SystolicSchedule(graph, richer_rounds, mode=Mode.DIRECTED)

        budget = 48
        base = simulate_systolic(sparse, max_rounds=budget, track_history=True, engine=ENGINE)
        more = simulate_systolic(richer, max_rounds=budget, track_history=True, engine=ENGINE)

        for known_base, known_more in zip(
            base.coverage_history, more.coverage_history
        ):
            assert known_more >= known_base
        if base.completion_round is not None:
            assert more.completion_round is not None
            assert more.completion_round <= base.completion_round
        if base.rounds_executed == more.rounds_executed:
            for bits_base, bits_more in zip(base.knowledge, more.knowledge):
                assert bits_base | bits_more == bits_more
        else:
            # The richer run stopped earlier — only possible by completing.
            assert more.complete


class TestFrontierEmptyFixedPoint:
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
        # ...and the coverage tail is constant once the frontier empties.
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

    def test_completion_still_exact_after_thin_frontiers(self):
        # A completing schedule whose frontiers thin out near the end: the
        # frontier engine must report the same exact completion round.
        schedule = coloring_systolic_schedule(path_graph(17), Mode.HALF_DUPLEX)
        assert gossip_time(schedule, engine=ENGINE) == gossip_time(
            schedule, engine="reference"
        )


class TestIrregularSchedules:
    """The pre-split pending windows against the reference engine on
    schedules whose rounds fire sparse, irregular arc sets: directed random
    rounds leave many windows empty, and duplex colourings fill them."""

    def _schedules(self):
        yield coloring_systolic_schedule(cycle_graph(16), Mode.HALF_DUPLEX)
        yield coloring_systolic_schedule(grid_2d(4, 5), Mode.HALF_DUPLEX)
        yield coloring_systolic_schedule(grid_2d(3, 4), Mode.FULL_DUPLEX)
        for seed in range(3):
            yield random_systolic_schedule(
                grid_2d(3, 4), 5, Mode.DIRECTED, seed=seed, activation_probability=0.5
            )

    @pytest.mark.parametrize(
        "track",
        [{}, {"track_item_completion": True}, {"track_arrivals": True}],
        ids=["plain", "items", "arrivals"],
    )
    def test_matches_reference(self, track):
        from test_engines_differential import assert_results_identical

        for schedule in self._schedules():
            program = RoundProgram.from_schedule(schedule, 80)
            ref = get_engine("reference").run(program, track_history=True, **track)
            got = get_engine(ENGINE).run(program, track_history=True, **track)
            assert_results_identical(ref, got, (schedule.name, track))

    def test_resume_matches_cold_run(self):
        from test_engines_differential import assert_results_identical

        schedule = coloring_systolic_schedule(cycle_graph(14), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule, 60)
        engine = get_engine(ENGINE)
        (state,) = engine.run_checkpointed(program, checkpoint_rounds=(3,)).checkpoints
        resumed = engine.run_checkpointed(program, resume_from=state).result
        cold = get_engine("reference").run(program)
        assert cold.completion_round is not None
        assert_results_identical(cold, resumed, "resume")
