"""Checkpoint-resuming evaluation must be invisible to search.

Search scores every candidate through the cached objective evaluator
(:class:`repro.search.objective._CachedObjective`) and its
:class:`repro.search.incremental.CheckpointCache`.  Memoizing scores and
reusing engine checkpoints across candidates sharing a period prefix
change evaluation *cost* only, never any score or search outcome.  This
suite pins that promise four ways:

* **move-chain fuzz** — random :class:`Neighborhood` walks (all engines,
  all objectives including ``robust_gossip_rounds``) must score every
  candidate of the chain identically through the prefix-reusing cached
  evaluator and through cold :func:`evaluate_program` calls; the same
  chains also pin ``first_modified_round`` / ``common_prefix_length``
  against each other;
* **driver determinism** — seeded ``hill_climb`` / ``simulated_annealing``
  / ``synthesize_schedule`` runs return bit-identical winners, objective
  values, improvement histories and iteration counts on every engine when
  a cold stand-in replaces the evaluator;
* **search contract** — captures stop at the period length, no walk runs
  one period twice (which is why deeper captures are never missed), and
  a default synthesis flushes the evaluator's counters;
* **unit semantics** — prefix arithmetic, power-of-two checkpoint rounds,
  cache LRU/agreement/round-bound rules, memoization and the bounded-
  cutoff sentinel (exact at the cutoff, ``inf`` and unmemoized beyond it).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.local_search
from repro import telemetry
from repro.exceptions import SimulationError
from repro.faults import BernoulliArcFaults
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import available_engines, get_engine, register_engine
from repro.gossip.model import Mode
from repro.search import (
    CheckpointCache,
    Neighborhood,
    RobustnessSpec,
    evaluate_candidates,
    hill_climb,
    simulated_annealing,
    synthesize_schedule,
)
from repro.search.incremental import _MAX_PERIODS, default_checkpoint_rounds
from repro.search.moves import common_prefix_length
from repro.search.objective import (
    OBJECTIVES,
    _CachedObjective,
    _ColdObjective,
    evaluate_program,
    program_for_rounds,
)
from repro.topologies.classic import cycle_graph, grid_2d

ENGINES = ("reference", "vectorized", "frontier")

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


def _robustness(objective: str) -> RobustnessSpec | None:
    if objective != "robust_gossip_rounds":
        return None
    return RobustnessSpec(BernoulliArcFaults(0.2), trials=3, seed=1)


@st.composite
def move_chains(draw):
    """A seeded Neighborhood walk: start period plus every visited candidate."""
    graph = draw(st.sampled_from([cycle_graph(9), grid_2d(3, 3)]))
    mode = draw(st.sampled_from([Mode.HALF_DUPLEX, Mode.FULL_DUPLEX]))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    neighborhood = Neighborhood(graph, mode, max_period=6)
    current = tuple(
        random_systolic_schedule(graph, draw(st.integers(2, 4)), mode, rng=rng).base_rounds
    )
    chain = [current]
    for _ in range(draw(st.integers(1, 10))):
        current = neighborhood.propose(current, rng)
        chain.append(current)
    return graph, chain


@FUZZ
@given(
    case=move_chains(),
    objective=st.sampled_from(OBJECTIVES),
    engine=st.sampled_from(ENGINES),
)
def test_fuzz_incremental_scores_match_cold_evaluation(case, objective, engine):
    """Every candidate of a random walk scores identically through the
    checkpoint-reusing cached evaluator and through cold runs."""
    graph, chain = case
    resolved = get_engine(engine)
    robustness = _robustness(objective)
    cached = _CachedObjective(graph, resolved, objective, robustness)
    for candidate in chain:
        cold = evaluate_program(
            program_for_rounds(graph, candidate),
            resolved,
            objective=objective,
            robustness=robustness,
        )
        assert cached(candidate) == cold, (engine, objective, candidate)


@FUZZ
@given(case=move_chains())
def test_fuzz_first_modified_round_bounds_the_shared_prefix(case):
    """``first_modified_round`` is exactly one past the common prefix, and a
    ``None`` marks the no-op proposals ``propose`` returns on dead ends."""
    _, chain = case
    for before, after in zip(chain, chain[1:]):
        first = Neighborhood.first_modified_round(before, after)
        if first is None:
            assert before == after
            continue
        shared = common_prefix_length(before, after)
        assert first == shared + 1
        assert before[:shared] == after[:shared]
        assert shared == min(len(before), len(after)) or (
            before[shared] != after[shared]
        )


@pytest.fixture
def cold(monkeypatch):
    """``cold(search, *args, **kwargs)`` runs a search entry point with
    every evaluator it builds replaced by :class:`_ColdObjective`."""

    def run(search, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(repro.search.local_search, "_CachedObjective", _ColdObjective)
            return search(*args, **kwargs)

    return run


class TestDriverDeterminism:
    """The memoizing, checkpoint-resuming evaluator and a cold run of every
    candidate visit identical state sequences: same winner, same objective,
    same improvement history, same iteration count — on every engine, for
    the same seed."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(3))
    def test_hill_climb_identical(self, cold, engine, seed):
        schedule = random_systolic_schedule(
            cycle_graph(9), 3, Mode.HALF_DUPLEX, seed=seed
        )
        full = cold(hill_climb, schedule, seed=seed, engine=engine, max_iters=60)
        fast = hill_climb(schedule, seed=seed, engine=engine, max_iters=60)
        assert full.schedule.base_rounds == fast.schedule.base_rounds
        assert full.objective == fast.objective
        assert full.history == fast.history
        assert full.iterations == fast.iterations

    @pytest.mark.parametrize("engine", ENGINES)
    def test_simulated_annealing_identical(self, cold, engine):
        schedule = random_systolic_schedule(grid_2d(3, 3), 3, Mode.FULL_DUPLEX, seed=4)
        kwargs = dict(seed=11, engine=engine, max_iters=50, restarts=1)
        full = cold(simulated_annealing, schedule, **kwargs)
        fast = simulated_annealing(schedule, **kwargs)
        assert full.schedule.base_rounds == fast.schedule.base_rounds
        assert full.objective == fast.objective
        assert full.history == fast.history

    @pytest.mark.parametrize("strategy", ["hill", "anneal"])
    def test_synthesize_schedule_identical(self, cold, strategy):
        kwargs = dict(strategy=strategy, seed=2, max_iters=50, engine="frontier")
        full = cold(synthesize_schedule, cycle_graph(10), Mode.HALF_DUPLEX, **kwargs)
        fast = synthesize_schedule(cycle_graph(10), Mode.HALF_DUPLEX, **kwargs)
        assert full.schedule.base_rounds == fast.schedule.base_rounds
        assert full.objective == fast.objective
        assert full.history == fast.history
        assert full.seed_name == fast.seed_name

    def test_hill_climb_identical_under_robust_objective(self, cold):
        schedule = random_systolic_schedule(cycle_graph(8), 3, Mode.HALF_DUPLEX, seed=6)
        kwargs = dict(
            seed=6,
            engine="frontier",
            objective="robust_gossip_rounds",
            robustness=_robustness("robust_gossip_rounds"),
            max_iters=40,
        )
        full = cold(hill_climb, schedule, **kwargs)
        fast = hill_climb(schedule, **kwargs)
        assert full.schedule.base_rounds == fast.schedule.base_rounds
        assert full.objective == fast.objective
        assert full.history == fast.history

    def test_evaluate_candidates_incremental_parity(self):
        graph = cycle_graph(9)
        candidates = [
            random_systolic_schedule(graph, 3, Mode.HALF_DUPLEX, seed=i) for i in range(5)
        ]
        candidates.append(candidates[0])  # duplicates hit the memo
        engine = get_engine("frontier")
        cold_values = [
            evaluate_program(program_for_rounds(graph, s.base_rounds), engine)
            for s in candidates
        ]
        assert evaluate_candidates(candidates, engine="frontier") == cold_values


class TestSearchContract:
    """What makes the one evaluation path lossless and observable."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_captures_stop_at_the_period_length(self, engine):
        """Every cached state lies within its period, and a last-slot move
        still resumes from the deepest state its shared prefix allows."""
        graph = cycle_graph(9)
        evaluator = _CachedObjective(graph, get_engine(engine))
        period = tuple(
            random_systolic_schedule(graph, 5, Mode.HALF_DUPLEX, seed=1).base_rounds
        )
        evaluator(period)
        mutated = period[:-1] + (period[0],)
        assert mutated != period
        evaluator(mutated)
        assert evaluator.cache.hits == 1
        assert evaluator.cache.reused_rounds == len(period) - 1
        rng = random.Random(3)
        moves = Neighborhood(graph, Mode.HALF_DUPLEX)
        current = mutated
        for _ in range(20):
            current = moves.propose(current, rng)
            evaluator(current)
        assert len(evaluator.cache) > 1
        for key, states in evaluator.cache._entries.items():
            assert max(states) <= len(key.period), (engine, sorted(states))

    @pytest.mark.parametrize("strategy", ["hill", "anneal"])
    def test_no_period_reaches_the_engine_twice_in_one_walk(self, monkeypatch, strategy):
        """Deeper captures could only resume the identical period, and no
        walk runs one period twice.  Keyed by evaluator object: ``id()``s
        are reused across a synthesis's passes."""
        runs: dict[_CachedObjective, list] = {}

        class Recording(_CachedObjective):
            def __call__(self, rounds, *, cutoff=None):
                before = self.evaluations
                value = super().__call__(rounds, cutoff=cutoff)
                if self.evaluations > before:
                    runs.setdefault(self, []).append(tuple(rounds))
                return value

        monkeypatch.setattr(repro.search.local_search, "_CachedObjective", Recording)
        instances = ((cycle_graph(16), Mode.HALF_DUPLEX), (grid_2d(3, 4), Mode.FULL_DUPLEX))
        for graph, mode in instances:
            synthesize_schedule(
                graph, mode, strategy=strategy, seed=7, max_iters=80, restarts=2
            )
        walks = [periods for evaluator, periods in runs.items() if len(periods) > 1]
        assert len(walks) >= 4
        for periods in walks:
            assert len(set(periods)) == len(periods)

    @pytest.mark.parametrize("strategy", ["hill", "anneal"])
    def test_default_synthesis_flushes_evaluator_counters(self, strategy):
        """Seed scoring and every pass report ``search.incremental``
        counters, and their evaluations add up to the result's."""
        recorder = telemetry.StatsRecorder()
        with telemetry.recording(recorder):
            result = synthesize_schedule(
                cycle_graph(12), Mode.HALF_DUPLEX, strategy=strategy, seed=1, max_iters=40
            )
        counters = recorder.stats.counters["search.incremental"]
        assert counters["evaluations"] == result.evaluations > 0
        assert counters["checkpoint_hits"] + counters["checkpoint_misses"] > 0
        assert recorder.stats.histograms["search.eval_ns"].count == result.evaluations

    def test_engine_without_checkpointing_is_refused(self):
        """Checkpointing is part of the engine protocol, so search has no
        cold fallback: a backend with ``run`` only is refused up front,
        passed to a search or to the registry."""

        class RunOnly:
            name = "run-only"

            def run(self, program, **options):
                return get_engine("reference").run(program, **options)

        schedule = random_systolic_schedule(cycle_graph(9), 3, Mode.HALF_DUPLEX, seed=1)
        with pytest.raises(SimulationError, match="lacks the engine protocol"):
            hill_climb(schedule, seed=1, engine=RunOnly(), max_iters=40)
        with pytest.raises(SimulationError, match="lacks the engine protocol"):
            register_engine(RunOnly())
        assert "run-only" not in available_engines()


class TestCachedObjective:
    def _evaluator(self, **kwargs) -> _CachedObjective:
        return _CachedObjective(cycle_graph(9), get_engine("frontier"), **kwargs)

    def test_memoizes_repeated_periods(self):
        evaluator = self._evaluator()
        period = tuple(
            random_systolic_schedule(cycle_graph(9), 3, Mode.HALF_DUPLEX, seed=0).base_rounds
        )
        first = evaluator(period)
        runs = evaluator.evaluations
        assert evaluator(period) == first
        assert evaluator.evaluations == runs  # the memo answered

    def test_prefix_reuse_registers_cache_hits(self):
        evaluator = self._evaluator()
        period = tuple(
            random_systolic_schedule(cycle_graph(9), 4, Mode.HALF_DUPLEX, seed=1).base_rounds
        )
        evaluator(period)
        # A move on the *last* slot shares the longest possible prefix.
        mutated = period[:-1] + (period[0],)
        assert mutated != period
        evaluator(mutated)
        assert evaluator.cache.hits >= 1

    def _completing_period(self):
        from repro.protocols.generic import coloring_systolic_schedule

        return tuple(
            coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX).base_rounds
        )

    def test_cutoff_at_completion_round_is_exact(self):
        evaluator = self._evaluator()
        period = self._completing_period()
        exact = evaluator(period)
        assert exact.complete
        bounded = self._evaluator()
        assert bounded(period, cutoff=exact.rounds) == exact

    def test_cutoff_below_completion_returns_unmemoized_sentinel(self):
        evaluator = self._evaluator()
        period = self._completing_period()
        exact_rounds = evaluator(period).rounds
        assert exact_rounds is not None and exact_rounds > 1
        bounded = self._evaluator()
        sentinel = bounded(period, cutoff=exact_rounds - 1)
        assert math.isinf(sentinel.score) and not sentinel.complete
        # The sentinel is not memoized: asking again without the cutoff
        # re-runs and returns the exact value.
        assert bounded(period).rounds == exact_rounds

    def test_cutoff_ignored_for_non_round_objectives(self):
        evaluator = self._evaluator(objective="max_eccentricity")
        period = tuple(
            random_systolic_schedule(cycle_graph(9), 3, Mode.HALF_DUPLEX, seed=3).base_rounds
        )
        assert evaluator(period, cutoff=1) == evaluator(period)

    def test_rejects_unknown_objective_and_missing_spec(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="unknown search objective"):
            self._evaluator(objective="fastest")
        with pytest.raises(SimulationError, match="RobustnessSpec"):
            self._evaluator(objective="robust_gossip_rounds")


class TestPrefixArithmetic:
    def test_common_prefix_length(self):
        a, b, c = ((0, 1),), ((1, 2),), ((2, 3),)
        assert common_prefix_length((a, b, c), (a, b, c)) == 3
        assert common_prefix_length((a, b, c), (a, b)) == 2
        assert common_prefix_length((a, b, c), (a, c, b)) == 1
        assert common_prefix_length((a,), (b,)) == 0
        assert common_prefix_length((), (a,)) == 0

    def test_first_modified_round(self):
        a, b, c = ((0, 1),), ((1, 2),), ((2, 3),)
        assert Neighborhood.first_modified_round((a, b), (a, b)) is None
        assert Neighborhood.first_modified_round((a, b), (a, c)) == 2
        assert Neighborhood.first_modified_round((a, b), (b, b)) == 1
        # A pure length change first diverges at the slot past the prefix.
        assert Neighborhood.first_modified_round((a, b), (a, b, c)) == 3

    def test_default_checkpoint_rounds(self):
        assert default_checkpoint_rounds(0) == []
        assert default_checkpoint_rounds(1) == [1]
        assert default_checkpoint_rounds(10) == [1, 2, 4, 8]
        assert default_checkpoint_rounds(16) == [1, 2, 4, 8, 16]


class TestCheckpointCache:
    def _state(self, round_number: int):
        # Structural stand-in: the cache never inspects knowledge.
        from repro.gossip.engines import EngineState

        return EngineState(
            round=round_number,
            knowledge=(1, 2),
            completion_round=None,
            target_mask=0b11,
        )

    def test_lookup_miss_on_empty_cache(self):
        cache = CheckpointCache()
        deepest, usable = cache.lookup(((0, 1),))
        assert deepest is None and usable == {}
        assert cache.misses == 1 and cache.hits == 0

    def test_exact_period_reuses_every_round(self):
        cache = CheckpointCache()
        period = (((0, 1),), ((1, 2),))
        cache.record(period, [self._state(r) for r in (0, 1, 2, 4, 8)])
        deepest, usable = cache.lookup(period)
        # Round 0 is never returned (resuming it is just a cold start),
        # and depth is unlimited for the identical period.
        assert deepest.round == 8
        assert sorted(usable) == [1, 2, 4, 8]
        assert cache.hits == 1

    def test_prefix_agreement_bounds_reuse(self):
        cache = CheckpointCache()
        a, b, c = ((0, 1),), ((1, 2),), ((2, 3),)
        cache.record((a, b, c), [self._state(r) for r in (1, 2, 4)])
        # Agreement on the first two slots only: round 4 is out of reach.
        deepest, usable = cache.lookup((a, b, a, c))
        assert deepest.round == 2
        assert sorted(usable) == [1, 2]
        # No agreement at all: miss.
        deepest, usable = cache.lookup((b, a))
        assert deepest is None and usable == {}

    def test_max_round_bound_applies(self):
        cache = CheckpointCache()
        period = (((0, 1),),)
        cache.record(period, [self._state(r) for r in (1, 2, 4)])
        deepest, _ = cache.lookup(period, max_round=3)
        assert deepest.round == 2

    def test_lru_eviction_keeps_recent_periods(self):
        cache = CheckpointCache()
        periods = [(((0, i + 1),),) for i in range(_MAX_PERIODS + 1)]
        for period in periods:
            cache.record(period, [self._state(1)])  # the last one evicts the first
        assert len(cache) == _MAX_PERIODS
        assert cache.lookup(periods[0])[0] is None
        assert cache.lookup(periods[1])[0] is not None
        assert cache.lookup(periods[-1])[0] is not None

    def test_record_merges_states_under_one_period(self):
        cache = CheckpointCache()
        period = (((0, 1),),)
        cache.record(period, [self._state(1)])
        cache.record(period, [self._state(2)])
        assert len(cache) == 1
        deepest, usable = cache.lookup(period)
        assert deepest.round == 2 and sorted(usable) == [1, 2]
