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
        assert got.engine_name == "montecarlo-batched"
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
    """The robust_gossip_rounds batch scores bit-identically to
    per-candidate evaluation (each candidate's trials ride the stacked
    kernel), and both equal the mean trial cost of the looped reference
    oracle."""
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


# --------------------------------------------------------------------- #
# Rows of ≥ 3 words: the unscanned stretch before the nominal round, the
# AND-reduce completion scan and the batched replay, each checked trial for
# trial against the looped reference oracle.
# --------------------------------------------------------------------- #
from repro import telemetry  # noqa: E402
from repro.protocols.cycle import cycle_systolic_schedule  # noqa: E402

WIDE_TRIALS = 40


def _assert_matches_oracle(subject, model, result, *, seed, max_rounds=None):
    oracle = monte_carlo(
        subject, model, trials=result.trials, seed=seed, max_rounds=max_rounds,
        engine="reference", method="looped",
    )
    assert oracle.horizon == result.horizon
    for t in range(result.trials):
        assert result.completion_rounds[t] == oracle.completion_rounds[t], t
        assert result.knowledge[t] == oracle.knowledge[t], t


#: (name, schedule, seed): n ≥ 130, so every packed row spans ≥ 3 words;
#: the half-duplex cycle runs the AP-segment path, the full-duplex grid the
#: gathered masked-round path.  The seeds spread completions over ≥ 2
#: scanned batches (asserted below).
WIDE_CASES = (
    ("cycle-130-half", cycle_systolic_schedule(130, Mode.HALF_DUPLEX), 3),
    ("grid-10x13-full", coloring_systolic_schedule(grid_2d(10, 13), Mode.FULL_DUPLEX), 11),
)


@pytest.mark.parametrize("max_rounds", (None, 256), ids=("from-nominal", "explicit-horizon"))
@pytest.mark.parametrize("case", WIDE_CASES, ids=lambda c: c[0])
def test_multiword_trials_match_the_looped_oracle(case, max_rounds):
    _, schedule, seed = case
    assert schedule.graph.n >= 130
    model = BernoulliArcFaults(0.1)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        batched = monte_carlo(
            schedule, model, trials=WIDE_TRIALS, seed=seed, max_rounds=max_rounds
        )
    assert recorder.stats.counters["faults.montecarlo"]["compactions"] >= 2
    assert batched.completed == WIDE_TRIALS
    _assert_matches_oracle(schedule, model, batched, seed=seed, max_rounds=max_rounds)


def test_multiword_crash_trials_complete_at_nominal_or_never():
    """A crash after the nominal round changes nothing, so those trials
    complete exactly at it — the first scanned round; an earlier crash
    starves its vertex for good."""
    schedule = coloring_systolic_schedule(cycle_graph(130), Mode.HALF_DUPLEX)
    model = CrashFaults(1)
    batched = monte_carlo(schedule, model, trials=WIDE_TRIALS, seed=11)
    assert batched.nominal_rounds in batched.completion_rounds
    assert None in batched.completion_rounds
    _assert_matches_oracle(schedule, model, batched, seed=11)


def test_stacked_multiword_candidates_with_different_nominals_match_the_oracle():
    """The unscanned stretch ends at the stack's earliest nominal round (the
    grid's): a stretch running on to a later candidate's nominal round
    would carry the grid's trials past their completion unseen."""
    candidates = [
        coloring_systolic_schedule(cycle_graph(130), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(cycle_graph(130), Mode.FULL_DUPLEX),
        coloring_systolic_schedule(grid_2d(10, 13), Mode.FULL_DUPLEX),
    ]
    model = BernoulliArcFaults(0.1)
    stacked = monte_carlo_stacked(candidates, model, trials=WIDE_TRIALS, seed=11)
    assert len({result.nominal_rounds for result in stacked}) == len(candidates)
    for candidate, result in zip(candidates, stacked):
        _assert_matches_oracle(candidate, model, result, seed=11)


# --------------------------------------------------------------------- #
# The lemma behind the unscanned stretch, for any fault model: a mask only
# silences scheduled arcs, so no trial completes before the fault-free
# gossip time — and the kernel must not rely on anything more.
# --------------------------------------------------------------------- #
import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.faults.models import FaultModel, FaultSample  # noqa: E402
from repro.gossip.simulation import gossip_time  # noqa: E402


class _SubsetSample(FaultSample):
    def __init__(self, program, horizon, trials, masks):
        super().__init__(program, horizon, trials)
        self._masks = masks

    def round_mask(self, round_number):
        return self._masks[round_number - 1]


class _SubsetFaults:
    """Fires an arbitrary subset of each round's arcs: trial ``t`` keeps
    each arc with probability ``densities[t % len(densities)]``, drawn from
    one seeded stream (so both kernel paths see the same realisation)."""

    name = "subset"

    def __init__(self, densities):
        self.densities = densities

    def sample(self, program, horizon, trials, *, seed=0):
        rng = np.random.default_rng(seed)
        keep = np.resize(np.asarray(self.densities), trials)[:, None]
        masks = [
            rng.random((trials, len(program.arcs_at(r)))) < keep
            for r in range(1, horizon + 1)
        ]
        return _SubsetSample(program, horizon, trials, masks)


@st.composite
def _small_schedules(draw):
    mode = draw(st.sampled_from((Mode.HALF_DUPLEX, Mode.FULL_DUPLEX)))
    family = draw(st.sampled_from(("cycle", "path", "grid")))
    if family == "cycle":
        graph = cycle_graph(draw(st.integers(3, 70)))
    elif family == "path":
        graph = path_graph(draw(st.integers(2, 70)))
    else:
        graph = grid_2d(draw(st.integers(2, 5)), draw(st.integers(2, 13)))
    return coloring_systolic_schedule(graph, mode)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    schedule=_small_schedules(),
    densities=st.lists(
        st.sampled_from((1.0, 0.98, 0.9, 0.7, 0.4, 0.0)), min_size=1, max_size=4
    ),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_arc_subset_model_matches_the_oracle_and_never_beats_nominal(
    schedule, densities, trials, seed
):
    model = _SubsetFaults(densities)
    assert isinstance(model, FaultModel)
    batched = monte_carlo(schedule, model, trials=trials, seed=seed)
    looped = monte_carlo(
        schedule, model, trials=trials, seed=seed, engine="reference", method="looped"
    )
    assert batched.completion_rounds == looped.completion_rounds
    assert batched.knowledge == looped.knowledge
    nominal = gossip_time(schedule, engine="reference")
    assert all(r is None or r >= nominal for r in batched.completion_rounds)
