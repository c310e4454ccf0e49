"""Tests for the fault-injection subsystem (repro.faults).

Covers the fault models' determinism contract, the statistical sanity
anchors the ISSUE pins (Bernoulli p=0 ≡ fault-free, p=1 ⇒ no completion on
any connected schedule), the Monte-Carlo driver's horizon/dispatch
behaviour, the robustness metrics, the adversarial worst-case analysis,
and the fault-aware search objective.  Cross-engine bit-exactness of
seeded trials lives in ``tests/test_faults_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import SimulationError
from repro.faults import (
    AdversarialArcFaults,
    BernoulliArcFaults,
    CrashFaults,
    FaultModel,
    completion_curve,
    completion_probability,
    default_horizon,
    expected_gossip_time,
    gossip_time_quantile,
    monte_carlo,
    reachability_degradation,
    worst_case_gossip_time,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import GossipProtocol, Mode
from repro.gossip.simulation import gossip_time
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.protocols.path import path_systolic_schedule
from repro.search import RobustnessSpec, synthesize_schedule
from repro.search.objective import evaluate_schedule
from repro.topologies.classic import cycle_graph, grid_2d, path_graph

MODELS = (
    BernoulliArcFaults(0.3),
    CrashFaults(2),
    AdversarialArcFaults(1),
)


def _schedule(n: int = 9):
    return cycle_systolic_schedule(n, Mode.HALF_DUPLEX)


def _masks(sample):
    return [sample.round_mask(r).copy() for r in range(1, sample.horizon + 1)]


class TestModelDeterminism:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_same_seed_same_masks(self, model):
        program = RoundProgram.from_schedule(_schedule())
        a = model.sample(program, horizon=20, trials=5, seed=42)
        b = model.sample(program, horizon=20, trials=5, seed=42)
        for ma, mb in zip(_masks(a), _masks(b)):
            assert np.array_equal(ma, mb)

    @pytest.mark.parametrize(
        "model", (BernoulliArcFaults(0.3), CrashFaults(2)), ids=lambda m: m.name
    )
    def test_different_seeds_differ(self, model):
        program = RoundProgram.from_schedule(_schedule())
        a = model.sample(program, horizon=30, trials=5, seed=0)
        b = model.sample(program, horizon=30, trials=5, seed=1)
        assert any(
            not np.array_equal(ma, mb) for ma, mb in zip(_masks(a), _masks(b))
        )

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_trial_mask_matches_round_mask(self, model):
        program = RoundProgram.from_schedule(_schedule())
        sample = model.sample(program, horizon=12, trials=4, seed=7)
        for r in range(1, 13):
            full = sample.round_mask(r)
            for t in range(4):
                assert np.array_equal(full[t], sample.trial_mask(t, r))

    def test_trial_streams_are_prefix_stable(self):
        """Trial t of a large sample equals trial t of a small one."""
        program = RoundProgram.from_schedule(_schedule())
        small = BernoulliArcFaults(0.4).sample(program, horizon=15, trials=3, seed=9)
        large = BernoulliArcFaults(0.4).sample(program, horizon=15, trials=8, seed=9)
        for r in range(1, 16):
            assert np.array_equal(small.round_mask(r), large.round_mask(r)[:3])

    def test_kept_arcs_follow_masks(self):
        program = RoundProgram.from_schedule(_schedule())
        sample = BernoulliArcFaults(0.5).sample(program, horizon=8, trials=2, seed=3)
        for r in range(1, 9):
            arcs = program.arcs_at(r)
            mask = sample.trial_mask(1, r)
            assert sample.kept_arcs(1, r) == tuple(
                arc for arc, keep in zip(arcs, mask.tolist()) if keep
            )

    def test_models_satisfy_protocol(self):
        for model in MODELS:
            assert isinstance(model, FaultModel)

    def test_out_of_horizon_round_rejected(self):
        program = RoundProgram.from_schedule(_schedule())
        sample = BernoulliArcFaults(0.1).sample(program, horizon=5, trials=2, seed=0)
        with pytest.raises(SimulationError):
            sample.round_mask(6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            BernoulliArcFaults(1.5)
        with pytest.raises(SimulationError):
            CrashFaults(-1)
        with pytest.raises(SimulationError):
            AdversarialArcFaults(-2)
        program = RoundProgram.from_schedule(_schedule())
        with pytest.raises(SimulationError):
            CrashFaults(100).sample(program, horizon=10, trials=2, seed=0)
        with pytest.raises(SimulationError):
            BernoulliArcFaults(0.1).sample(program, horizon=10, trials=0, seed=0)


class TestStatisticalSanity:
    @pytest.mark.parametrize("method", ("batched", "looped"))
    def test_p_zero_equals_fault_free(self, method):
        schedule = _schedule()
        nominal = gossip_time(schedule)
        result = monte_carlo(
            schedule, BernoulliArcFaults(0.0), trials=4, seed=5, method=method
        )
        assert result.completion_rounds == (nominal,) * 4
        assert result.completion_rate == 1.0
        full = (1 << schedule.graph.n) - 1
        assert all(k == (full,) * schedule.graph.n for k in result.knowledge)

    @pytest.mark.parametrize(
        "schedule",
        (
            _schedule(),
            path_systolic_schedule(6, Mode.HALF_DUPLEX),
            coloring_systolic_schedule(grid_2d(3, 3), Mode.FULL_DUPLEX),
        ),
        ids=("cycle", "path", "grid"),
    )
    def test_p_one_never_completes(self, schedule):
        result = monte_carlo(schedule, BernoulliArcFaults(1.0), trials=3, seed=5)
        assert result.completion_rounds == (None,) * 3
        assert result.completion_rate == 0.0
        # Nothing was ever transmitted: everyone still knows only itself.
        n = schedule.graph.n
        assert all(k == tuple(1 << j for j in range(n)) for k in result.knowledge)

    def test_faults_only_delay_gossip(self):
        """Arc monotonicity: a perturbed run never beats the fault-free one."""
        schedule = _schedule(10)
        nominal = gossip_time(schedule)
        result = monte_carlo(schedule, BernoulliArcFaults(0.35), trials=12, seed=2)
        assert all(r is None or r >= nominal for r in result.completion_rounds)

    def test_crash_zero_equals_fault_free(self):
        schedule = _schedule()
        nominal = gossip_time(schedule)
        result = monte_carlo(schedule, CrashFaults(0), trials=3, seed=8)
        assert result.completion_rounds == (nominal,) * 3

    def test_crash_silences_from_the_crash_round_on(self):
        """Fail-stop semantics: an arc fires iff neither endpoint has a
        crash round ≤ the current round — in particular the vertex is
        already silent *during* its own crash round."""
        program = RoundProgram.from_schedule(_schedule())
        index = program.graph.index
        sample = CrashFaults(2).sample(program, horizon=20, trials=6, seed=4)
        crash_round = sample.crash_round
        for r in range(1, 21):
            arcs = program.arcs_at(r)
            mask = sample.round_mask(r)
            for t in range(6):
                for position, (tail, head) in enumerate(arcs):
                    expected = (
                        crash_round[t, index(tail)] > r
                        and crash_round[t, index(head)] > r
                    )
                    assert bool(mask[t, position]) == expected, (t, r, tail, head)

    def test_crash_starves_the_crashed_vertex(self):
        """A pre-completion crash leaves some vertex short of items."""
        schedule = path_systolic_schedule(8, Mode.HALF_DUPLEX)
        result = monte_carlo(schedule, CrashFaults(2), trials=20, seed=1)
        degradation = reachability_degradation(result)
        assert degradation.shape == (8,)
        assert np.all(degradation <= 1.0)
        incomplete = [r is None for r in result.completion_rounds]
        assert any(incomplete), "some crash should pre-empt completion"
        assert degradation.min() < 1.0


class TestMonteCarloDriver:
    def test_default_horizon_covers_whole_periods(self):
        assert default_horizon(10, 4) == 32
        assert default_horizon(1, 5) == 20  # floor of 16, rounded to periods
        assert default_horizon(10, 4, 2) == 20

    def test_horizon_defaults_from_nominal(self):
        schedule = _schedule()
        nominal = gossip_time(schedule)
        result = monte_carlo(schedule, BernoulliArcFaults(0.1), trials=2, seed=0)
        assert result.nominal_rounds == nominal
        assert result.horizon == default_horizon(nominal, schedule.period)

    def test_incomplete_nominal_requires_explicit_budget(self):
        # A schedule that only ever activates one direction cannot complete.
        graph = path_graph(3)
        protocol = GossipProtocol(graph, [[(0, 1)]] * 4)
        with pytest.raises(SimulationError):
            monte_carlo(protocol, BernoulliArcFaults(0.1), trials=2)
        result = monte_carlo(
            protocol, BernoulliArcFaults(0.0), trials=2, max_rounds=4
        )
        assert result.completion_rounds == (None, None)

    def test_finite_protocol_horizon_capped_at_length(self):
        schedule = _schedule()
        protocol = schedule.unroll(10)
        result = monte_carlo(
            protocol, BernoulliArcFaults(0.2), trials=3, seed=4, max_rounds=99
        )
        assert result.horizon == 10

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError):
            monte_carlo(_schedule(), BernoulliArcFaults(0.1), trials=2, method="warp")

    def test_named_engine_routes_to_looped(self):
        result = monte_carlo(
            _schedule(), BernoulliArcFaults(0.2), trials=2, seed=0, engine="reference"
        )
        assert result.engine_name == "reference"

    def test_auto_method_is_batched(self):
        result = monte_carlo(_schedule(), BernoulliArcFaults(0.2), trials=2, seed=0)
        assert result.engine_name == "montecarlo-batched"

    def test_single_vertex_completes_immediately(self):
        protocol = GossipProtocol(path_graph(1), [])
        result = monte_carlo(protocol, BernoulliArcFaults(0.9), trials=3, seed=0)
        assert result.completion_rounds == (0, 0, 0)
        assert result.knowledge == ((1,),) * 3


def _capped_doubling_batches(rounds: int) -> int:
    """Doubling batches (1, 2, 4, … capped at 64) from round 1 to ``rounds``."""
    batches, covered = 0, 0
    while covered < rounds:
        covered += min(1 << batches, 64)
        batches += 1
    return batches


class TestBatchCounters:
    """The kernel's counter contract: ``batches`` counts completion scans,
    and the stretch before the fault-free completion round is not one."""

    SCHEDULES = (_schedule(10), cycle_systolic_schedule(130, Mode.HALF_DUPLEX))

    @staticmethod
    def _recorded(schedule, trials, **kwargs):
        recorder = telemetry.StatsRecorder()
        with telemetry.recording(recorder):
            result = monte_carlo(
                schedule, BernoulliArcFaults(0.0), trials=trials, seed=3, **kwargs
            )
        events = [e for e in recorder.stats.events if e.name == "faults.compaction"]
        return result, recorder.stats.counters["faults.montecarlo"], events

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=("C10", "C130"))
    def test_fault_free_trials_take_one_scan_at_the_nominal_round(self, schedule):
        nominal = gossip_time(schedule)
        result, counters, events = self._recorded(schedule, trials=5)
        assert result.completion_rounds == (nominal,) * 5
        assert counters["batches"] == 1
        assert counters["compactions"] == 1
        assert counters["exact_replays"] == 5
        assert [e.attrs["round"] for e in events] == [nominal]

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=("C10", "C130"))
    def test_explicit_horizon_scans_doubling_batches_from_round_one(self, schedule):
        nominal = gossip_time(schedule)
        result, counters, events = self._recorded(schedule, trials=5, max_rounds=3 * nominal)
        assert result.completion_rounds == (nominal,) * 5
        assert counters["batches"] == _capped_doubling_batches(nominal)
        assert counters["compactions"] == 1
        assert counters["exact_replays"] == 5
        assert len(events) == 1 and events[0].attrs["round"] >= nominal


class TestMetrics:
    @pytest.fixture()
    def result(self):
        return monte_carlo(
            _schedule(10), BernoulliArcFaults(0.3), trials=25, seed=6
        )

    def test_completion_probability_monotone(self, result):
        curve = completion_curve(result)
        probabilities = [p for _, p in curve]
        assert probabilities == sorted(probabilities)
        assert curve[-1][1] == completion_probability(result)
        assert completion_probability(result, 0) == 0.0

    def test_completion_curve_always_ends_at_the_horizon(self, result):
        """Default budgets include the horizon itself even when the horizon
        is not a multiple of the checkpoint step, so the final curve point
        equals the overall completion rate."""
        from dataclasses import replace

        # A horizon that 8 does not divide: completions in the final
        # partial step must still be visible on the curve.
        clipped = replace(
            result,
            horizon=42,
            completion_rounds=(41, 42) + result.completion_rounds[2:],
        )
        curve = completion_curve(clipped)
        assert curve[-1][0] == 42
        assert curve[-1][1] == completion_probability(clipped)
        assert curve[-1][1] >= 2 / clipped.trials

    def test_expected_time_and_quantiles(self, result):
        mean = expected_gossip_time(result)
        assert mean is not None and mean >= result.nominal_rounds
        p50 = gossip_time_quantile(result, 0.5)
        p90 = gossip_time_quantile(result, 0.9)
        assert p50 is not None and p90 is not None and p50 <= p90
        assert gossip_time_quantile(result, 0.0) == min(
            r for r in result.completion_rounds if r is not None
        )
        assert gossip_time_quantile(result, 1.0) == max(
            r for r in result.completion_rounds if r is not None
        )
        with pytest.raises(SimulationError):
            gossip_time_quantile(result, 1.5)

    def test_metrics_on_all_failed_trials(self):
        result = monte_carlo(_schedule(), BernoulliArcFaults(1.0), trials=3, seed=0)
        assert expected_gossip_time(result) is None
        assert gossip_time_quantile(result, 0.5) is None
        assert completion_probability(result) == 0.0

    def test_reachability_is_one_without_faults(self):
        result = monte_carlo(_schedule(), BernoulliArcFaults(0.0), trials=2, seed=0)
        assert np.allclose(reachability_degradation(result), 1.0)


class TestAdversarial:
    def test_worst_case_at_least_nominal(self):
        schedule = _schedule(8)
        nominal = gossip_time(schedule)
        report = worst_case_gossip_time(schedule, 1)
        assert report.exact
        assert report.rounds is None or report.rounds >= nominal
        assert len(report.deletion) <= 1
        assert report.evaluations >= 2

    def test_zero_budget_is_nominal(self):
        schedule = _schedule(8)
        report = worst_case_gossip_time(schedule, 0)
        assert report.rounds == gossip_time(schedule)
        assert report.deletion == ()

    def test_disconnecting_deletion_found(self):
        # Deleting one direction of a path edge already silences every item
        # behind it for good (the slot repeats identically every period).
        schedule = path_systolic_schedule(4, Mode.HALF_DUPLEX)
        report = worst_case_gossip_time(schedule, 2)
        assert report.rounds is None
        assert 1 <= len(report.deletion) <= 2

    def test_greedy_path_when_enumeration_explodes(self):
        schedule = _schedule(8)
        report = worst_case_gossip_time(schedule, 2, exact_limit=3)
        assert not report.exact
        exact = worst_case_gossip_time(schedule, 2)
        # Greedy damage is a lower bound on the true worst case.
        if exact.rounds is None:
            assert True  # nothing to compare against a disconnect
        elif report.rounds is not None:
            assert report.rounds <= exact.rounds

    def test_monotone_in_budget(self):
        schedule = _schedule(8)
        r1 = worst_case_gossip_time(schedule, 1)
        r2 = worst_case_gossip_time(schedule, 2)
        if r1.rounds is not None and r2.rounds is not None:
            assert r2.rounds >= r1.rounds
        else:
            assert r2.rounds is None

    def test_sample_cache_respects_the_round_budget(self):
        """Two programs with identical rounds but different budgets must not
        share a cached worst deletion (a delaying deletion under a generous
        budget can be a completion-preventing one under a tight budget)."""
        schedule = _schedule(8)
        nominal = gossip_time(schedule)
        generous = RoundProgram.from_schedule(schedule)
        tight = RoundProgram(
            generous.graph, generous.rounds, cyclic=True, max_rounds=nominal
        )
        model = AdversarialArcFaults(1)
        model.sample(generous, horizon=12, trials=1, seed=0)
        reused = model.sample(tight, horizon=12, trials=1, seed=0)
        fresh = AdversarialArcFaults(1).sample(tight, horizon=12, trials=1, seed=0)
        for r in range(1, 13):
            assert np.array_equal(reused.round_mask(r), fresh.round_mask(r))

    def test_adversarial_monte_carlo_trials_identical(self):
        schedule = _schedule(8)
        result = monte_carlo(schedule, AdversarialArcFaults(1), trials=3, seed=0)
        assert len(set(result.completion_rounds)) == 1
        report = worst_case_gossip_time(schedule, 1)
        assert result.completion_rounds[0] == report.rounds


class TestRobustObjective:
    def test_requires_spec(self):
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        with pytest.raises(SimulationError):
            evaluate_schedule(schedule, objective="robust_gossip_rounds")

    def test_p_zero_matches_gossip_rounds(self):
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        spec = RobustnessSpec(BernoulliArcFaults(0.0), trials=4, seed=1)
        robust = evaluate_schedule(
            schedule, objective="robust_gossip_rounds", robustness=spec
        )
        plain = evaluate_schedule(schedule, objective="gossip_rounds")
        assert robust.score == plain.score
        assert robust.rounds == plain.rounds

    def test_faulty_score_exceeds_nominal(self):
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        spec = RobustnessSpec(BernoulliArcFaults(0.3), trials=6, seed=1)
        value = evaluate_schedule(
            schedule, objective="robust_gossip_rounds", robustness=spec
        )
        assert value.complete
        assert value.score > value.rounds

    def test_synthesis_is_deterministic(self):
        spec = RobustnessSpec(BernoulliArcFaults(0.2), trials=5, seed=3)
        runs = [
            synthesize_schedule(
                cycle_graph(8),
                Mode.HALF_DUPLEX,
                objective="robust_gossip_rounds",
                robustness=spec,
                seed=11,
                max_iters=30,
            )
            for _ in range(2)
        ]
        assert runs[0].schedule.base_rounds == runs[1].schedule.base_rounds
        assert runs[0].objective.score == runs[1].objective.score
        assert runs[0].found_rounds is not None

    def test_finite_program_horizon_clamped(self):
        """The robust objective grants a finite program no rounds beyond
        its own length (regression: used to index past the round tuple)."""
        from repro.gossip.engines import resolve_engine
        from repro.search.objective import evaluate_program

        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        nominal = gossip_time(schedule)
        program = RoundProgram.from_protocol(schedule.unroll(nominal))
        spec = RobustnessSpec(BernoulliArcFaults(0.2), trials=4, seed=1)
        value = evaluate_program(
            program,
            resolve_engine("auto"),
            objective="robust_gossip_rounds",
            robustness=spec,
        )
        assert value.complete and value.rounds == nominal

    def test_invalid_spec_rejected(self):
        with pytest.raises(SimulationError):
            RobustnessSpec(BernoulliArcFaults(0.1), trials=0)
        with pytest.raises(SimulationError):
            RobustnessSpec(BernoulliArcFaults(0.1), horizon_factor=0)


class TestSurface:
    def test_robustness_table_invariants(self):
        from repro.experiments.robustness import robustness_table

        rows = robustness_table(
            trials=12, ps=(0.15,), search_iters=15, search_trials=3
        )
        assert len(rows) == 2
        for row in rows:
            assert row.consistent, row
            assert row.baseline_rounds > 0

    @pytest.mark.parametrize(
        "argv",
        (
            ["robustness", "--family", "cycle", "--size", "8", "--model",
             "bernoulli", "--p", "0.2", "--trials", "10"],
            ["robustness", "--family", "cycle", "--size", "8", "--model",
             "crash", "--k", "1", "--trials", "10"],
            ["robustness", "--family", "path", "--size", "4", "--model",
             "adversarial", "--k", "2"],
        ),
        ids=("bernoulli", "crash", "adversarial"),
    )
    def test_cli_robustness(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_cli_robustness_rejects_bad_size(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["robustness", "--family", "cycle", "--size", "2x3"])
