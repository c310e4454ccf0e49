"""Property-based tests (hypothesis) for the core invariants.

These tests throw randomised local protocols, periods, λ values and systolic
schedules at the machinery and check the inequalities the paper proves:

* Lemma 4.2 / 4.3 hold for *every* local protocol shape;
* the balanced split dominates every other split (the monotonicity step of
  Lemma 4.3);
* ``p_i`` composition and monotonicity identities;
* delay-matrix norms of arbitrary valid half-duplex schedules stay below the
  analytic bound at the analytic root;
* the simulator's knowledge sets only ever grow, and gossip completion is
  monotone under appending rounds;
* the vectorized engine agrees with the reference engine on random digraphs
  and random schedules, its knowledge sets are monotone, every vertex always
  knows its own item, and gossip time is invariant under vertex relabeling.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.delay import DelayDigraph
from repro.core.general_bound import theorem41_rounds
from repro.core.local_protocol import LocalProtocol
from repro.core.norms import euclidean_norm, semi_eigenvalue_bound, spectral_radius
from repro.core.polynomials import (
    half_duplex_norm_bound,
    norm_bound_product,
    p_polynomial,
)
from repro.core.reduction import (
    local_delay_matrix,
    verify_lemma_42,
    verify_lemma_43,
)
from repro.core.roots import solve_unit_root
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import GossipProtocol, Mode, SystolicSchedule
from repro.gossip.simulation import simulate, simulate_systolic
from repro.gossip.validation import validate_protocol
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph
from repro.topologies.debruijn import de_bruijn


def _arrivals(program: RoundProgram, engine: str):
    """The first-arrival matrix of one arrival-tracked run."""
    return get_engine(engine).run(program, track_arrivals=True).arrival_rounds


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #

lambdas = st.floats(min_value=0.05, max_value=0.95, allow_nan=False, allow_infinity=False)

block_lengths = st.integers(min_value=1, max_value=3)

local_protocols = st.builds(
    LocalProtocol,
    st.lists(block_lengths, min_size=1, max_size=3).map(tuple),
    st.lists(block_lengths, min_size=1, max_size=3).map(tuple),
).filter(lambda lp: len(lp.left_blocks) == len(lp.right_blocks))


@st.composite
def matched_local_protocols(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    lefts = tuple(draw(block_lengths) for _ in range(k))
    rights = tuple(draw(block_lengths) for _ in range(k))
    return LocalProtocol(lefts, rights)


# --------------------------------------------------------------------------- #
# polynomials
# --------------------------------------------------------------------------- #


class TestPolynomialProperties:
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12), lambdas)
    def test_composition_identity(self, i, j, lam):
        lhs = p_polynomial(i, lam) + lam ** (2 * i) * p_polynomial(j, lam)
        assert math.isclose(lhs, p_polynomial(i + j, lam), rel_tol=1e-10, abs_tol=1e-12)

    @given(st.integers(min_value=1, max_value=15), lambdas, lambdas)
    def test_monotone_in_lambda(self, i, lam_a, lam_b):
        lo, hi = sorted((lam_a, lam_b))
        assert p_polynomial(i, lo) <= p_polynomial(i, hi) + 1e-12

    @given(st.integers(min_value=3, max_value=16), lambdas)
    def test_balanced_split_dominates_all_splits(self, s, lam):
        balanced = half_duplex_norm_bound(s, lam)
        for left in range(1, s):
            assert norm_bound_product(left, s - left, lam) <= balanced + 1e-10

    @given(st.integers(min_value=3, max_value=12))
    @settings(deadline=None)
    def test_characteristic_root_in_unit_interval(self, s):
        lam = solve_unit_root(lambda x: half_duplex_norm_bound(s, x))
        assert 0.0 < lam < 1.0
        assert math.isclose(half_duplex_norm_bound(s, lam), 1.0, abs_tol=1e-8)


# --------------------------------------------------------------------------- #
# local protocols and the Section 4 lemmas
# --------------------------------------------------------------------------- #


class TestLocalProtocolProperties:
    @given(matched_local_protocols())
    def test_activation_word_roundtrip(self, local):
        parsed = LocalProtocol.from_activation_word(local.activation_word())
        assert parsed.period == local.period
        assert parsed.left_total == local.left_total
        assert parsed.right_total == local.right_total

    @given(matched_local_protocols(), lambdas)
    @settings(max_examples=60, deadline=None)
    def test_lemma_42_holds(self, local, lam):
        report = verify_lemma_42(local, lam)
        assert report["right_holds"]
        assert report["left_holds"]

    @given(matched_local_protocols(), lambdas)
    @settings(max_examples=60, deadline=None)
    def test_lemma_43_holds(self, local, lam):
        report = verify_lemma_43(local, lam)
        assert report["own_split_holds"]
        assert report["worst_split_holds"]

    @given(matched_local_protocols(), lambdas)
    @settings(max_examples=40, deadline=None)
    def test_norm_is_spectral_radius_of_gram(self, local, lam):
        mx = local_delay_matrix(local, lam)
        assert math.isclose(
            euclidean_norm(mx) ** 2,
            spectral_radius(mx.T @ mx),
            rel_tol=1e-8,
            abs_tol=1e-10,
        )

    @given(matched_local_protocols(), lambdas)
    @settings(max_examples=40, deadline=None)
    def test_lemma_21_semi_eigenvalue_dominates_radius(self, local, lam):
        mx = local_delay_matrix(local, lam)
        gram = mx.T @ mx
        ones = [1.0] * gram.shape[0]
        assert spectral_radius(gram) <= semi_eigenvalue_bound(gram, ones) + 1e-9


# --------------------------------------------------------------------------- #
# Theorem 4.1 arithmetic
# --------------------------------------------------------------------------- #


class TestTheorem41Properties:
    @given(st.integers(min_value=2, max_value=10**6), lambdas)
    def test_returned_value_is_threshold(self, n, lam):
        t = theorem41_rounds(n, lam)
        assert t >= 1
        assert t * t >= lam**t * 2 * (n - 1) - 1e-9
        if t > 1:
            below = t - 1
            assert below * below < lam**below * 2 * (n - 1) + 1e-9

    @given(st.integers(min_value=2, max_value=10**5), lambdas, lambdas)
    def test_monotone_in_lambda(self, n, lam_a, lam_b):
        lo, hi = sorted((lam_a, lam_b))
        assert theorem41_rounds(n, lo) <= theorem41_rounds(n, hi)


# --------------------------------------------------------------------------- #
# simulator and delay digraph on random systolic schedules
# --------------------------------------------------------------------------- #


class TestRandomScheduleProperties:
    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_schedules_are_valid_and_knowledge_monotone(self, n, period, seed):
        graph = cycle_graph(n)
        schedule = random_systolic_schedule(graph, period, Mode.HALF_DUPLEX, seed=seed)
        protocol = schedule.unroll(2 * period)
        validate_protocol(protocol)
        result = simulate(protocol)
        # The state after every round, on the engine the default call used.
        program = RoundProgram.from_protocol(protocol)
        states = get_engine(result.engine_name).run_checkpointed(
            program, checkpoint_rounds=range(program.max_rounds + 1)
        ).checkpoints
        assert states[0].knowledge == tuple(1 << i for i in range(n))
        for before, after in zip(states, states[1:]):
            assert all(a & b == a for a, b in zip(before.knowledge, after.knowledge))
        assert states[-1].knowledge == result.knowledge

    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_engines_agree_on_random_schedules(self, n, period, seed):
        graph = cycle_graph(n)
        schedule = random_systolic_schedule(graph, period, Mode.HALF_DUPLEX, seed=seed)
        budget = 3 * period
        ref = simulate_systolic(schedule, max_rounds=budget, engine="reference")
        vec = simulate_systolic(schedule, max_rounds=budget, engine="vectorized")
        assert ref.knowledge == vec.knowledge
        assert ref.completion_round == vec.completion_round
        program = RoundProgram.from_schedule(schedule, budget)
        assert _arrivals(program, "reference") == _arrivals(program, "vectorized")

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_delay_norm_below_analytic_bound_at_root(self, period, seed):
        graph = de_bruijn(2, 3)
        schedule = random_systolic_schedule(graph, period, Mode.HALF_DUPLEX, seed=seed)
        lam = solve_unit_root(lambda x: half_duplex_norm_bound(period, x))
        delay = DelayDigraph(schedule.unroll(3 * period), period=period)
        assert delay.norm(lam) <= 1.0 + 1e-9

    @given(
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=10**6),
        lambdas,
    )
    @settings(max_examples=20, deadline=None)
    def test_blockwise_norm_matches_full_matrix(self, period, seed, lam):
        graph = cycle_graph(6)
        schedule = random_systolic_schedule(graph, period, Mode.HALF_DUPLEX, seed=seed)
        delay = DelayDigraph(schedule.unroll(2 * period), period=period)
        full = euclidean_norm(delay.delay_matrix(lam))
        assert math.isclose(delay.norm(lam), full, rel_tol=1e-8, abs_tol=1e-10)


# --------------------------------------------------------------------------- #
# vectorized engine on random digraphs and random directed schedules
# --------------------------------------------------------------------------- #


@st.composite
def random_directed_protocols(draw):
    """A random digraph plus a random (not necessarily matching) protocol."""
    n = draw(st.integers(min_value=4, max_value=10))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(
        st.lists(st.sampled_from(possible), min_size=n, max_size=3 * n, unique=True)
    )
    graph = Digraph(range(n), arcs, name=f"rand({n})")
    num_rounds = draw(st.integers(min_value=1, max_value=6))
    rounds = [
        draw(st.lists(st.sampled_from(arcs), max_size=min(len(arcs), 8), unique=True))
        for _ in range(num_rounds)
    ]
    return GossipProtocol(graph, rounds, mode=Mode.DIRECTED)


class TestVectorizedEngineProperties:
    @given(random_directed_protocols())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_random_digraphs(self, protocol):
        ref = simulate(protocol, engine="reference")
        vec = simulate(protocol, engine="vectorized")
        assert ref.knowledge == vec.knowledge
        assert ref.completion_round == vec.completion_round
        program = RoundProgram.from_protocol(protocol)
        assert _arrivals(program, "reference") == _arrivals(program, "vectorized")

    @given(random_directed_protocols())
    @settings(max_examples=30, deadline=None)
    def test_knowledge_monotone_and_self_item_always_known(self, protocol):
        n = protocol.graph.n
        previous = [1 << i for i in range(n)]
        for t in range(protocol.length + 1):
            result = simulate(protocol.truncate(t), engine="vectorized")
            for i in range(n):
                bits = result.knowledge[i]
                assert bits >> i & 1, f"vertex {i} forgot its own item"
                assert bits & previous[i] == previous[i], "knowledge set shrank"
            previous = list(result.knowledge)

    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_gossip_time_invariant_under_vertex_relabeling(self, n, period, seed, rng):
        graph = cycle_graph(n)
        schedule = random_systolic_schedule(graph, period, Mode.HALF_DUPLEX, seed=seed)
        mapping = list(range(n))
        rng.shuffle(mapping)
        relabeled_graph = Digraph(
            range(n),
            [(mapping[t], mapping[h]) for t, h in graph.arcs],
            name=f"{graph.name}-relabeled",
        )
        relabeled = SystolicSchedule(
            relabeled_graph,
            [
                [(mapping[t], mapping[h]) for t, h in rnd]
                for rnd in schedule.base_rounds
            ],
            mode=Mode.HALF_DUPLEX,
        )
        budget = 4 * period * n
        original = simulate_systolic(schedule, max_rounds=budget, engine="vectorized")
        permuted = simulate_systolic(relabeled, max_rounds=budget, engine="vectorized")
        # Either both complete in the same round (gossip_time invariance) or
        # neither completes within the shared budget.
        assert original.completion_round == permuted.completion_round
        if original.complete:
            assert set(original.knowledge) == {(1 << n) - 1}
            assert set(permuted.knowledge) == {(1 << n) - 1}
