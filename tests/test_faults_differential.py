"""Differential tests: seeded fault trials are bit-identical everywhere.

The Monte-Carlo driver has one batched tensor kernel and a looped fallback
that runs each perturbed trial through any engine of the registry.  All
paths consume the same seeded :class:`~repro.faults.models.FaultSample`
realisation, so for a fixed ``(model, seed)`` every registered engine must
produce *exactly* the same per-trial completion rounds and final knowledge
as the batched kernel — not merely statistically compatible results.  The
engine list is drawn from the registry, so future backends are covered
automatically, exactly as in ``tests/test_engines_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.faults import AdversarialArcFaults, BernoulliArcFaults, CrashFaults, monte_carlo
from repro.gossip.engines import available_engines
from repro.gossip.model import GossipProtocol, Mode
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import cycle_graph, grid_2d, path_graph
from repro.topologies.debruijn import de_bruijn, de_bruijn_digraph

ENGINES = available_engines()

#: (name, protocol-or-schedule, extra monte_carlo kwargs) cases: systolic
#: schedules in both duplex modes plus a finite directed protocol with
#: non-matching rounds (duplicate heads stress the batched reduceat path).
def _cases():
    cases = [
        (
            "cycle-odd",
            coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX),
            {},
        ),
        (
            "grid-full-duplex",
            coloring_systolic_schedule(grid_2d(3, 4), Mode.FULL_DUPLEX),
            {},
        ),
        (
            "debruijn-half",
            coloring_systolic_schedule(de_bruijn(2, 3), Mode.HALF_DUPLEX),
            {},
        ),
    ]
    digraph = de_bruijn_digraph(2, 3)
    arcs = list(digraph.arcs)
    chunked = [arcs[i : i + 3] for i in range(0, len(arcs), 3)]
    cases.append(
        (
            "directed-chunked",
            GossipProtocol(digraph, chunked * 6, mode=Mode.DIRECTED),
            {"max_rounds": 20},
        )
    )
    return cases


CASES = _cases()

MODELS = (
    BernoulliArcFaults(0.25),
    BernoulliArcFaults(0.6),
    CrashFaults(2),
)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_looped_engines_match_batched_bit_for_bit(case, model, engine):
    _, subject, kwargs = case
    batched = monte_carlo(subject, model, trials=6, seed=17, **kwargs)
    assert batched.engine_name == "montecarlo-batched"
    looped = monte_carlo(
        subject, model, trials=6, seed=17, engine=engine, method="looped", **kwargs
    )
    assert looped.engine_name == engine
    assert looped.horizon == batched.horizon
    assert looped.completion_rounds == batched.completion_rounds, (case[0], model.name, engine)
    assert looped.knowledge == batched.knowledge, (case[0], model.name, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_adversarial_trials_match_across_engines(engine):
    schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
    model = AdversarialArcFaults(1)
    batched = monte_carlo(schedule, model, trials=2, seed=0)
    looped = monte_carlo(
        schedule, model, trials=2, seed=0, engine=engine, method="looped"
    )
    assert looped.completion_rounds == batched.completion_rounds
    assert looped.knowledge == batched.knowledge


@pytest.mark.parametrize("engine", ENGINES)
def test_seed_determinism_per_engine(engine):
    """Same seed ⇒ bit-identical outcomes; different seed ⇒ (almost surely) not."""
    schedule = coloring_systolic_schedule(path_graph(7), Mode.HALF_DUPLEX)
    model = BernoulliArcFaults(0.4)
    a = monte_carlo(schedule, model, trials=5, seed=23, engine=engine, method="looped")
    b = monte_carlo(schedule, model, trials=5, seed=23, engine=engine, method="looped")
    assert a.completion_rounds == b.completion_rounds
    assert a.knowledge == b.knowledge
    c = monte_carlo(schedule, model, trials=5, seed=24, engine=engine, method="looped")
    assert (
        c.completion_rounds != a.completion_rounds or c.knowledge != a.knowledge
    )


# --------------------------------------------------------------------- #
# Candidate-stacked kernel: stacking schedules never changes any trial.
# --------------------------------------------------------------------- #
from repro.faults.montecarlo import monte_carlo_stacked  # noqa: E402


def _stacked_candidates():
    """Candidate sets over one vertex count: same-graph schedules, a
    different graph with the same n, and both duplex modes."""
    return [
        coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(cycle_graph(9), Mode.FULL_DUPLEX),
        coloring_systolic_schedule(grid_2d(3, 3), Mode.HALF_DUPLEX),
    ]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_stacked_matches_per_schedule_bit_for_bit(model):
    """Every stacked candidate equals its standalone monte_carlo call —
    same horizons, completion rounds and final knowledge, not merely the
    same statistics."""
    candidates = _stacked_candidates()
    stacked = monte_carlo_stacked(candidates, model, trials=6, seed=17)
    assert len(stacked) == len(candidates)
    for candidate, got in zip(candidates, stacked):
        solo = monte_carlo(candidate, model, trials=6, seed=17)
        assert got.engine_name == "montecarlo-stacked"
        assert got.horizon == solo.horizon
        assert got.nominal_rounds == solo.nominal_rounds
        assert got.completion_rounds == solo.completion_rounds
        assert got.knowledge == solo.knowledge


def test_stacked_trial_prefix_stability_under_candidate_growth():
    """Growing the candidate set never perturbs the candidates already in
    it: each candidate's fault sample is seeded from its own program, so
    trials are a function of (candidate, seed), not of the set."""
    candidates = _stacked_candidates()
    model = BernoulliArcFaults(0.35)
    grown = monte_carlo_stacked(candidates, model, trials=5, seed=3)
    for size in range(1, len(candidates)):
        prefix = monte_carlo_stacked(candidates[:size], model, trials=5, seed=3)
        for small, big in zip(prefix, grown):
            assert small.completion_rounds == big.completion_rounds
            assert small.knowledge == big.knowledge


def test_stacked_explicit_horizon_and_duplicates():
    """A shared explicit max_rounds skips the nominal runs, and duplicate
    candidates produce duplicate (bit-identical) results."""
    schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
    model = BernoulliArcFaults(0.5)
    stacked = monte_carlo_stacked([schedule, schedule], model, trials=4, seed=9, max_rounds=24)
    solo = monte_carlo(schedule, model, trials=4, seed=9, max_rounds=24)
    for got in stacked:
        assert got.nominal_rounds is None
        assert got.horizon == solo.horizon == 24
        assert got.completion_rounds == solo.completion_rounds
        assert got.knowledge == solo.knowledge


def test_stacked_rejects_mismatched_vertex_counts():
    from repro.exceptions import SimulationError

    with pytest.raises(SimulationError):
        monte_carlo_stacked(
            [
                coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX),
                coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX),
            ],
            BernoulliArcFaults(0.2),
            trials=2,
        )


def test_robust_batch_scoring_routes_through_stacked_kernel():
    """The non-incremental robust_gossip_rounds batch scores bit-identically
    to per-candidate evaluation (the batch rides the stacked kernel), and
    both equal the mean trial cost of the looped reference oracle."""
    from repro.search.objective import (
        RobustnessSpec,
        evaluate_candidates,
        evaluate_schedule,
    )

    spec = RobustnessSpec(BernoulliArcFaults(0.3), trials=6, seed=5)
    candidates = _stacked_candidates()
    batch = evaluate_candidates(
        candidates, objective="robust_gossip_rounds", robustness=spec
    )
    for candidate, got in zip(candidates, batch):
        solo = evaluate_schedule(
            candidate, objective="robust_gossip_rounds", robustness=spec
        )
        assert got.score == solo.score
        assert got.complete == solo.complete
        assert got.rounds == solo.rounds
        # The spec's horizon factor is monte_carlo's default, so the looped
        # oracle replays the very trials the objective scored.
        oracle = monte_carlo(
            candidate, spec.model, trials=spec.trials, seed=spec.seed,
            engine="reference", method="looped",
        )
        n = candidate.graph.n
        costs = [
            rounds if rounds is not None
            else oracle.horizon + n * n - sum(bits.bit_count() for bits in knowledge)
            for rounds, knowledge in zip(oracle.completion_rounds, oracle.knowledge)
        ]
        assert solo.complete and solo.rounds == oracle.nominal_rounds
        assert solo.score == sum(costs) / spec.trials
