"""Tests for the schedule-synthesis subsystem (repro.search.*).

The issue's contract, spelled out as assertions:

* seeded determinism — the same seed yields the identical schedule;
* every synthesized schedule passes :mod:`repro.gossip.validation` and is
  simulated bit-exactly identically by every registered engine;
* the certified gap is non-negative against the lower bounds on C(8)/P(8);
* on cycles and paths the optimizer recovers the known-optimal round
  counts, and it beats the plain edge-colouring baseline on other families.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ProtocolError, SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.model import Mode, SystolicSchedule
from repro.gossip.simulation import gossip_time, simulate_systolic
from repro.gossip.validation import validate_protocol
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.path import path_systolic_schedule
from repro.search import (
    Neighborhood,
    certified_gap,
    edge_coloring_seed,
    evaluate_candidates,
    evaluate_schedule,
    greedy_frontier_schedule,
    hill_climb,
    simulated_annealing,
    synthesize_schedule,
)
from repro.search.objective import INCOMPLETE_PENALTY, program_for_rounds
from repro.topologies.classic import cycle_graph, grid_2d, path_graph
from repro.topologies.debruijn import de_bruijn

#: Search budget used throughout: small enough for CI, large enough for the
#: quality assertions below to hold deterministically at these sizes.
ITERS = 150


class TestConstructors:
    @pytest.mark.parametrize("mode", [Mode.HALF_DUPLEX, Mode.FULL_DUPLEX], ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "build", [lambda: cycle_graph(8), lambda: path_graph(7), lambda: grid_2d(3, 3), lambda: de_bruijn(2, 3)],
        ids=["C8", "P7", "grid3x3", "DB23"],
    )
    def test_greedy_frontier_schedule_is_valid_and_completes(self, build, mode):
        graph = build()
        schedule = greedy_frontier_schedule(graph, mode)
        validate_protocol(schedule.unroll(2 * schedule.period))
        assert gossip_time(schedule) > 0  # raises if it cannot complete

    def test_greedy_covers_every_arc_within_the_period(self):
        graph = grid_2d(3, 3)
        schedule = greedy_frontier_schedule(graph, Mode.HALF_DUPLEX)
        activated = {arc for rnd in schedule.base_rounds for arc in rnd}
        assert activated == set(graph.arcs)

    def test_greedy_rejects_directed_graph_in_duplex_modes(self):
        from repro.topologies.debruijn import de_bruijn_digraph

        with pytest.raises(ProtocolError):
            greedy_frontier_schedule(de_bruijn_digraph(2, 3), Mode.HALF_DUPLEX)

    def test_explicit_period_is_honoured_up_to_coverage_fixup(self):
        schedule = greedy_frontier_schedule(cycle_graph(8), Mode.HALF_DUPLEX, period=6)
        assert schedule.period >= 6


class TestNeighborhood:
    @pytest.mark.parametrize("mode", [Mode.HALF_DUPLEX, Mode.FULL_DUPLEX], ids=lambda m: m.value)
    def test_long_random_walks_stay_valid(self, mode):
        graph = grid_2d(3, 3)
        moves = Neighborhood(graph, mode)
        rng = random.Random(11)
        rounds = tuple(edge_coloring_seed(graph, mode).base_rounds)
        for _ in range(120):
            rounds = moves.propose(rounds, rng)
            schedule = SystolicSchedule(graph, rounds, mode=mode)
            validate_protocol(schedule.unroll(schedule.period))

    def test_period_bounds_are_respected(self):
        graph = cycle_graph(6)
        moves = Neighborhood(graph, Mode.HALF_DUPLEX, min_period=3, max_period=5)
        rng = random.Random(0)
        rounds = tuple(edge_coloring_seed(graph, Mode.HALF_DUPLEX).base_rounds)
        for _ in range(150):
            rounds = moves.propose(rounds, rng)
            assert 3 <= len(rounds) <= 5

    def test_unknown_move_kind_rejected(self):
        moves = Neighborhood(cycle_graph(6), Mode.HALF_DUPLEX)
        with pytest.raises(ProtocolError):
            moves.propose((), random.Random(0), kinds=["warp"])

    def test_empty_period_never_crashes(self):
        # The documented dead-end contract: inapplicable moves return the
        # input unchanged (an empty period can only grow via insert_round).
        moves = Neighborhood(cycle_graph(6), Mode.HALF_DUPLEX)
        rng = random.Random(5)
        for _ in range(50):
            result = moves.propose((), rng)
            assert result == () or len(result) == 1


class TestObjective:
    def test_gossip_rounds_matches_simulator(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        value = evaluate_schedule(schedule)
        assert value.complete
        assert value.rounds == gossip_time(schedule)
        assert value.score == float(value.rounds)

    def test_incomplete_schedules_score_above_penalty(self):
        graph = path_graph(6)
        # One forward matching only: information never flows back.
        schedule = SystolicSchedule(graph, [[(0, 1), (2, 3), (4, 5)]], mode=Mode.HALF_DUPLEX)
        value = evaluate_schedule(schedule)
        assert not value.complete
        assert value.rounds is None
        assert value.score >= INCOMPLETE_PENALTY

    def test_eccentricity_objectives_agree_with_gossip_on_complete_schedules(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        rounds = evaluate_schedule(schedule, objective="gossip_rounds")
        max_ecc = evaluate_schedule(schedule, objective="max_eccentricity")
        mean_ecc = evaluate_schedule(schedule, objective="mean_eccentricity")
        assert max_ecc.score == rounds.score  # max broadcast time == gossip time
        assert mean_ecc.score <= max_ecc.score

    def test_unknown_objective_rejected(self):
        with pytest.raises(SimulationError):
            evaluate_schedule(cycle_systolic_schedule(6), objective="vibes")

    def test_batched_evaluation_matches_per_schedule_calls(self):
        graph = cycle_graph(8)
        candidates = [
            random_systolic_schedule(graph, 4, Mode.HALF_DUPLEX, seed=s) for s in range(5)
        ]
        batch = evaluate_candidates(candidates, engine="reference")
        singles = [evaluate_schedule(s, engine="reference") for s in candidates]
        assert [v.score for v in batch] == [v.score for v in singles]
        assert all(v.engine_name == "reference" for v in batch)


class TestSearchDeterminism:
    def test_same_seed_same_schedule(self):
        graph = de_bruijn(2, 3)
        a = synthesize_schedule(graph, Mode.HALF_DUPLEX, seed=3, max_iters=60)
        b = synthesize_schedule(graph, Mode.HALF_DUPLEX, seed=3, max_iters=60)
        assert a.schedule.base_rounds == b.schedule.base_rounds
        assert a.objective.score == b.objective.score
        assert a.evaluations == b.evaluations

    def test_engine_choice_does_not_change_the_walk(self):
        # Engines are bit-exact, so the accept/reject sequence — and hence
        # the synthesized schedule — must be identical across backends.
        graph = cycle_graph(8)
        per_engine = {
            engine: synthesize_schedule(
                graph, Mode.HALF_DUPLEX, seed=1, max_iters=40, engine=engine
            ).schedule.base_rounds
            for engine in available_engines()
        }
        reference = per_engine.pop("reference")
        for engine, rounds in per_engine.items():
            assert rounds == reference, engine

    def test_hill_strategy_honours_restarts(self):
        graph = grid_2d(3, 3)
        single = synthesize_schedule(
            graph, Mode.HALF_DUPLEX, strategy="hill", seed=4, max_iters=30, restarts=0
        )
        restarted = synthesize_schedule(
            graph, Mode.HALF_DUPLEX, strategy="hill", seed=4, max_iters=30, restarts=2
        )
        assert restarted.evaluations > single.evaluations  # extra walks ran
        assert restarted.restarts == 2 and single.restarts == 0
        assert "-opt-" not in restarted.seed_name  # traces to a real seed
        assert restarted.objective.complete
        validate_protocol(restarted.schedule.unroll(restarted.schedule.period))

    def test_hill_and_anneal_both_return_valid_results(self):
        graph = grid_2d(3, 3)
        seed_schedule = edge_coloring_seed(graph, Mode.HALF_DUPLEX)
        for driver in (hill_climb, simulated_annealing):
            result = driver(seed_schedule, seed=2, max_iters=40)
            assert result.objective.complete
            assert result.evaluations > 0
            assert result.history[-1] <= result.history[0]
            validate_protocol(result.schedule.unroll(result.schedule.period))


@pytest.mark.parametrize("mode", [Mode.HALF_DUPLEX, Mode.FULL_DUPLEX], ids=lambda m: m.value)
@pytest.mark.parametrize(
    "build", [lambda: cycle_graph(8), lambda: path_graph(8), lambda: grid_2d(3, 3)],
    ids=["C8", "P8", "grid3x3"],
)
class TestSynthesizedSchedules:
    def test_valid_and_bit_exact_across_engines(self, build, mode):
        graph = build()
        result = synthesize_schedule(graph, mode, seed=0, max_iters=60)
        schedule = result.schedule
        validate_protocol(schedule.unroll(2 * schedule.period))
        program = program_for_rounds(graph, schedule.base_rounds)
        runs = {
            engine: (
                simulate_systolic(schedule, engine=engine),
                get_engine(engine).run(program, track_arrivals=True).arrival_rounds,
            )
            for engine in available_engines()
        }
        reference, reference_arrivals = runs.pop("reference")
        for engine, (run, arrivals) in runs.items():
            assert run.completion_round == reference.completion_round, engine
            assert run.knowledge == reference.knowledge, engine
            assert arrivals == reference_arrivals, engine


class TestCertifiedGaps:
    @pytest.mark.parametrize(
        "schedule_builder",
        [
            lambda: cycle_systolic_schedule(8, Mode.HALF_DUPLEX),
            lambda: path_systolic_schedule(8, Mode.HALF_DUPLEX),
        ],
        ids=["C8", "P8"],
    )
    def test_gap_non_negative_on_known_constructions(self, schedule_builder):
        report = certified_gap(schedule_builder())
        assert report.found is not None
        assert report.gap is not None and report.gap >= 0
        assert report.lower_bound >= report.diameter_bound
        assert report.certified_rounds is not None  # period >= 3 here

    def test_gap_non_negative_on_search_winners_c8_p8(self):
        for graph in (cycle_graph(8), path_graph(8)):
            result = synthesize_schedule(graph, Mode.HALF_DUPLEX, seed=0, max_iters=ITERS)
            report = certified_gap(result.schedule, found=result.found_rounds)
            assert report.gap is not None and report.gap >= 0, graph.name

    def test_short_periods_fall_back_to_the_diameter_bound(self):
        # Full-duplex paths have period 2: no Theorem 4.1 certificate, but
        # the diameter still bounds the gossip time — exactly (gap 0).
        result = synthesize_schedule(path_graph(8), Mode.FULL_DUPLEX, seed=0, max_iters=60)
        report = certified_gap(result.schedule, found=result.found_rounds)
        assert report.certified_rounds is None or report.period >= 3
        assert report.lower_bound >= report.diameter_bound == 7

    def test_separator_constants_surface_in_the_report(self):
        from repro.topologies.separators import family_parameters

        result = synthesize_schedule(de_bruijn(2, 3), Mode.HALF_DUPLEX, seed=0, max_iters=40)
        report = certified_gap(
            result.schedule,
            found=result.found_rounds,
            separator=family_parameters("DB", 2),
        )
        assert report.separator_coefficient is not None
        assert report.separator_coefficient > 0


class TestSearchQuality:
    def test_recovers_known_optimal_rounds_on_cycles(self):
        for n in (8, 12):
            known = gossip_time(cycle_systolic_schedule(n, Mode.HALF_DUPLEX))
            result = synthesize_schedule(cycle_graph(n), Mode.HALF_DUPLEX, seed=0, max_iters=ITERS)
            assert result.found_rounds == known, n

    def test_recovers_or_beats_known_construction_on_paths(self):
        known = gossip_time(path_systolic_schedule(8, Mode.HALF_DUPLEX))
        result = synthesize_schedule(path_graph(8), Mode.HALF_DUPLEX, seed=0, max_iters=ITERS)
        assert result.found_rounds is not None
        assert result.found_rounds <= known

    def test_provably_optimal_on_full_duplex_cycle_and_path(self):
        # Here the certified lower bound meets the found schedule: gap 0.
        for graph in (cycle_graph(8), path_graph(8)):
            result = synthesize_schedule(graph, Mode.FULL_DUPLEX, seed=0, max_iters=ITERS)
            report = certified_gap(result.schedule, found=result.found_rounds)
            assert report.gap == 0, graph.name

    def test_beats_edge_coloring_baseline_on_grid_and_de_bruijn(self):
        for graph, mode in (
            (grid_2d(3, 4), Mode.HALF_DUPLEX),
            (de_bruijn(2, 3), Mode.HALF_DUPLEX),
            (de_bruijn(2, 3), Mode.FULL_DUPLEX),
        ):
            baseline = evaluate_schedule(edge_coloring_seed(graph, mode))
            result = synthesize_schedule(graph, mode, seed=0, max_iters=ITERS)
            assert result.found_rounds is not None
            assert result.found_rounds < baseline.rounds, (graph.name, mode.value)


class TestRandomScheduleFuzzerReuse:
    """The satellite contract on random_systolic_schedule."""

    def test_rng_instance_matches_equivalent_seed(self):
        graph = cycle_graph(8)
        via_seed = random_systolic_schedule(graph, 4, Mode.HALF_DUPLEX, seed=7)
        via_rng = random_systolic_schedule(graph, 4, Mode.HALF_DUPLEX, rng=random.Random(7))
        assert via_seed.base_rounds == via_rng.base_rounds

    def test_shared_rng_advances_between_calls(self):
        graph = de_bruijn(2, 4)
        rng = random.Random(3)
        first = random_systolic_schedule(graph, 5, Mode.HALF_DUPLEX, rng=rng)
        second = random_systolic_schedule(graph, 5, Mode.HALF_DUPLEX, rng=rng)
        assert first.base_rounds != second.base_rounds

    def test_name_includes_mode_and_source(self):
        graph = cycle_graph(8)
        seeded = random_systolic_schedule(graph, 4, Mode.FULL_DUPLEX, seed=5)
        assert "full-duplex" in seeded.name
        assert "seed5" in seeded.name
        drawn = random_systolic_schedule(graph, 4, Mode.HALF_DUPLEX, rng=random.Random(1))
        assert "half-duplex" in drawn.name
        assert drawn.name.endswith("rng")


class TestExperimentTable:
    def test_search_gaps_table_small_battery(self):
        from repro.experiments.search_gaps import search_gaps_table

        rows = search_gaps_table(
            seed=0,
            max_iters=25,
            instances=[(cycle_graph(6), None), (path_graph(6), None)],
        )
        assert len(rows) == 4  # two instances x two modes
        for row in rows:
            assert row.consistent
            assert row.found <= row.baseline_rounds
            assert row.engine in available_engines()

    def test_cli_optimize_reports_the_triple(self, capsys):
        from repro.cli import main

        assert main(["optimize", "--family", "cycle", "--size", "8", "--iterations", "40"]) == 0
        out = capsys.readouterr().out
        assert "(found, lower_bound, gap) = (" in out
        assert "winner: C(8)-opt-half-duplex" in out

    def test_cli_optimize_rejects_bad_size(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["optimize", "--family", "grid", "--size", "12"])

    def test_cli_optimize_has_no_incremental_flag(self, capsys):
        """Search has one evaluation path, so there is no flag to pick it."""
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["optimize", "--family", "cycle", "--size", "8", "--incremental"])
        assert info.value.code == 2
        assert "unrecognized arguments: --incremental" in capsys.readouterr().err


def test_program_for_rounds_budget_matches_schedule_default():
    graph = cycle_graph(8)
    schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
    program = program_for_rounds(graph, schedule.base_rounds)
    assert program.cyclic
    assert program.max_rounds == max(4 * schedule.period * graph.n, 16)
