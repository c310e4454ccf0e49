"""Fault models: composable per-round arc perturbations.

The paper's model assumes every scheduled call succeeds.  This module
supplies the standard robustness counter-assumptions from the literature on
fault-tolerant broadcasting, as *fault models* — objects that, given a
:class:`~repro.gossip.engines.base.RoundProgram`, a round horizon and a
trial count, realise which scheduled arc activations actually fire:

* :class:`BernoulliArcFaults` — every scheduled call fails independently
  with probability ``p`` (random transient link failures);
* :class:`CrashFaults` — ``k`` distinct vertices crash fail-stop at rounds
  sampled uniformly over the horizon: from its crash round on, a crashed
  vertex neither sends nor receives (every incident activation fails);
* :class:`AdversarialArcFaults` — a worst-case adversary deletes up to
  ``k`` scheduled activations *per period*, the same deletion every period
  (exact enumeration for small instances, a greedy upper bound beyond).

Determinism contract
--------------------
``model.sample(program, horizon, trials, seed=s)`` is a pure function of
its arguments: the returned :class:`FaultSample` realises every
(trial, round, arc) outcome up front, so the batched Monte-Carlo kernel
(which advances all trials one round at a time) and the looped per-engine
fallback (which replays one trial's horizon at a time) consume *the same*
realisation and therefore agree bit-for-bit — the differential suite in
``tests/test_faults_differential.py`` holds every registered engine to
that.  Trial streams are independent (per-trial ``SeedSequence`` children),
so results are also invariant to the trial count prefix: trial ``t`` of a
256-trial sample equals trial ``t`` of an 8-trial sample.

A fourth model is one class away: implement ``name`` and ``sample`` (the
:class:`FaultModel` protocol) and every driver, metric and search objective
in :mod:`repro.faults` accepts it unchanged.
"""

from __future__ import annotations

from itertools import combinations
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import SimulationError
from repro.gossip.engines import SimulationEngine, resolve_engine
from repro.gossip.engines._bitops import arc_indices
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Round

__all__ = [
    "FaultModel",
    "FaultSample",
    "BernoulliArcFaults",
    "CrashFaults",
    "AdversarialArcFaults",
    "AdversarialReport",
]


class FaultSample:
    """Realised fault outcomes for ``trials`` perturbed executions.

    A sample answers one question, two ways: *which of round ``r``'s
    scheduled arcs fire in trial ``t``?*  :meth:`round_mask` answers it for
    every trial at once (the batched kernel's view), :meth:`trial_mask` for
    one trial (the looped fallback's view); both index arcs in the order of
    ``program.arcs_at(r)``.  Subclasses implement :meth:`round_mask`;
    :meth:`trial_mask` has a generic (row-slicing) default that concrete
    samples override when a cheaper single-trial path exists.
    """

    def __init__(self, program: RoundProgram, horizon: int, trials: int) -> None:
        if horizon < 0:
            raise SimulationError(f"fault horizon must be non-negative, got {horizon}")
        if trials < 1:
            raise SimulationError(f"at least one trial is required, got {trials}")
        self.program = program
        self.horizon = horizon
        self.trials = trials

    def round_mask(self, round_number: int) -> np.ndarray:
        """``(trials, m)`` bool array: ``True`` where the arc fires."""
        raise NotImplementedError  # pragma: no cover - abstract

    def trial_mask(self, trial: int, round_number: int) -> np.ndarray:
        """``(m,)`` bool array for one trial (defaults to a row slice)."""
        return self.round_mask(round_number)[trial]

    def kept_arcs(self, trial: int, round_number: int) -> Round:
        """The arcs of round ``round_number`` that survive in ``trial``."""
        arcs = self.program.arcs_at(round_number)
        if not arcs:
            return arcs
        mask = self.trial_mask(trial, round_number)
        return tuple(arc for arc, keep in zip(arcs, mask.tolist()) if keep)


@runtime_checkable
class FaultModel(Protocol):
    """What a fault model must provide to plug into :mod:`repro.faults`.

    A ``name`` (reports and CLI) plus :meth:`sample`, which must be
    deterministic in ``(program, horizon, trials, seed)`` — see the module
    docstring's determinism contract.
    """

    name: str

    def sample(
        self, program: RoundProgram, horizon: int, trials: int, *, seed: int = 0
    ) -> FaultSample:
        """Realise the fault outcomes of ``trials`` perturbed executions."""
        ...  # pragma: no cover - protocol definition


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream (SeedSequence child)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _round_arc_counts(program: RoundProgram, horizon: int) -> list[int]:
    """Arcs scheduled at each of rounds ``1 … horizon``."""
    return [len(program.arcs_at(r)) for r in range(1, horizon + 1)]


class _BernoulliSample(FaultSample):
    """Per-(trial, round, arc) Bernoulli outcomes, bit-packed.

    Each trial draws its full ``horizon × m_max`` outcome matrix in one
    vectorised pass (row ``r`` holds round ``r+1``'s arcs as its leading
    entries) and stores it packed — 1 bit per outcome, so 256 trials over
    thousands of rounds stay tens of megabytes.
    """

    def __init__(
        self, program: RoundProgram, horizon: int, trials: int, p: float, seed: int
    ) -> None:
        super().__init__(program, horizon, trials)
        self._counts = _round_arc_counts(program, horizon)
        m_max = max(self._counts, default=0)
        packed = max(1, (m_max + 7) // 8)
        self._bits = np.zeros((trials, horizon, packed), dtype=np.uint8)
        if m_max and horizon:
            for t in range(trials):
                rng = _trial_rng(seed, t)
                fires = rng.random((horizon, m_max), dtype=np.float32) >= p
                self._bits[t] = np.packbits(fires, axis=1, bitorder="little")

    def _count(self, round_number: int) -> int:
        if not 1 <= round_number <= self.horizon:
            raise SimulationError(
                f"round {round_number} outside the sampled horizon 1..{self.horizon}"
            )
        return self._counts[round_number - 1]

    def round_mask(self, round_number: int) -> np.ndarray:
        m = self._count(round_number)
        return np.unpackbits(
            self._bits[:, round_number - 1], axis=1, bitorder="little", count=m
        ).astype(bool)

    def trial_mask(self, trial: int, round_number: int) -> np.ndarray:
        m = self._count(round_number)
        return np.unpackbits(
            self._bits[trial, round_number - 1], bitorder="little", count=m
        ).astype(bool)


class BernoulliArcFaults:
    """Each scheduled call fails independently with probability ``p``."""

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"failure probability must lie in [0, 1], got {p!r}")
        self.p = p
        self.name = f"bernoulli(p={p:g})"

    def sample(
        self, program: RoundProgram, horizon: int, trials: int, *, seed: int = 0
    ) -> FaultSample:
        return _BernoulliSample(program, horizon, trials, self.p, seed)


class _CrashSample(FaultSample):
    """Fail-stop crash outcomes: per trial, a vertex → crash-round map.

    An arc fires at round ``r`` iff neither endpoint has crashed by ``r``
    (crash round ≤ r ⇒ the vertex is silent during round ``r``), so masks
    are computed on demand from the ``(trials, n)`` crash-round matrix —
    no per-round storage at all.
    """

    def __init__(
        self, program: RoundProgram, horizon: int, trials: int, k: int, seed: int
    ) -> None:
        super().__init__(program, horizon, trials)
        n = program.graph.n
        if not 0 <= k <= n:
            raise SimulationError(f"crash count must lie in [0, {n}], got {k}")
        never = horizon + 1
        self.crash_round = np.full((trials, n), never, dtype=np.int64)
        if k and horizon:
            for t in range(trials):
                rng = _trial_rng(seed, t)
                victims = rng.choice(n, size=k, replace=False)
                self.crash_round[t, victims] = rng.integers(1, horizon + 1, size=k)
        # (tails, heads) vertex-index arrays per distinct base round slot.
        self._slots = [arc_indices(program.graph, arcs) for arcs in program.rounds]

    def _slot(self, round_number: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= round_number <= self.horizon:
            raise SimulationError(
                f"round {round_number} outside the sampled horizon 1..{self.horizon}"
            )
        return self._slots[self.program.slot(round_number)]

    def round_mask(self, round_number: int) -> np.ndarray:
        tails, heads = self._slot(round_number)
        # crash_round ≤ r ⇒ the vertex is already silent during round r.
        alive = self.crash_round > round_number
        return alive[:, tails] & alive[:, heads]

    def trial_mask(self, trial: int, round_number: int) -> np.ndarray:
        tails, heads = self._slot(round_number)
        alive = self.crash_round[trial] > round_number
        return alive[tails] & alive[heads]


class CrashFaults:
    """``k`` fail-stop vertex crashes at rounds sampled over the horizon."""

    def __init__(self, k: int) -> None:
        if k < 0:
            raise SimulationError(f"crash count must be non-negative, got {k}")
        self.k = k
        self.name = f"crash(k={k})"

    def sample(
        self, program: RoundProgram, horizon: int, trials: int, *, seed: int = 0
    ) -> FaultSample:
        return _CrashSample(program, horizon, trials, self.k, seed)


class _FixedDeletionSample(FaultSample):
    """A deterministic per-period deletion, identical across trials/periods."""

    def __init__(
        self,
        program: RoundProgram,
        horizon: int,
        trials: int,
        deletion: frozenset[tuple[int, int]],
    ) -> None:
        super().__init__(program, horizon, trials)
        self._keep = []
        for slot, arcs in enumerate(program.rounds):
            keep = np.ones(len(arcs), dtype=bool)
            for s, position in deletion:
                if s == slot:
                    keep[position] = False
            self._keep.append(keep)

    def _slot_keep(self, round_number: int) -> np.ndarray:
        if not 1 <= round_number <= self.horizon:
            raise SimulationError(
                f"round {round_number} outside the sampled horizon 1..{self.horizon}"
            )
        return self._keep[self.program.slot(round_number)]

    def round_mask(self, round_number: int) -> np.ndarray:
        keep = self._slot_keep(round_number)
        return np.broadcast_to(keep, (self.trials, keep.size))

    def trial_mask(self, trial: int, round_number: int) -> np.ndarray:
        return self._slot_keep(round_number)


class AdversarialReport:
    """Outcome of a worst-case ≤ k deletion analysis.

    ``rounds`` is the gossip time under the worst deletion found (``None``
    when some deletion prevents completion within the budget — the true
    worst case); ``deletion`` lists the deleted activations as
    ``(slot_index, arc)`` pairs; ``exact`` says whether every candidate
    subset was enumerated or the greedy upper-bound path ran;
    ``evaluations`` counts engine runs spent.
    """

    __slots__ = ("rounds", "deletion", "exact", "evaluations")

    def __init__(self, rounds, deletion, exact, evaluations) -> None:
        self.rounds = rounds
        self.deletion = deletion
        self.exact = exact
        self.evaluations = evaluations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "exact" if self.exact else "greedy"
        return (
            f"AdversarialReport(rounds={self.rounds}, "
            f"deleted={len(self.deletion)}, {state})"
        )


def _deleted_program(
    program: RoundProgram, deletion: frozenset[tuple[int, int]]
) -> RoundProgram:
    """``program`` with the ``(slot, position)`` activations removed."""
    rounds = []
    for slot, arcs in enumerate(program.rounds):
        dropped = {position for s, position in deletion if s == slot}
        rounds.append(
            tuple(arc for position, arc in enumerate(arcs) if position not in dropped)
        )
    return RoundProgram(program.graph, tuple(rounds), program.cyclic, program.max_rounds)


class AdversarialArcFaults:
    """Worst-case deletion of ≤ ``k`` scheduled activations per period.

    The adversary picks up to ``k`` (slot, arc) activations of the base
    period and deletes them from *every* repetition — the strongest
    stationary link adversary.  :meth:`worst_deletion` searches for the
    deletion maximising the gossip time (an incompletable schedule beats
    any finite time): exhaustively over every subset of size ≤ ``k`` while
    the candidate count stays within ``exact_limit``, and greedily (one
    worst single deletion at a time — a lower bound on the true worst case,
    hence an *upper bound on robustness*) beyond.

    The model also plugs into the Monte-Carlo driver: :meth:`sample`
    resolves the worst deletion once (cached per program identity) and
    applies it deterministically to every trial, so adversarial rows come
    from the same pipeline as the stochastic models.
    """

    def __init__(
        self,
        k: int,
        *,
        exact_limit: int = 2048,
        engine: str | SimulationEngine | None = "auto",
    ) -> None:
        if k < 0:
            raise SimulationError(f"deletion budget must be non-negative, got {k}")
        if exact_limit < 0:
            raise SimulationError(f"exact_limit must be non-negative, got {exact_limit}")
        self.k = k
        self.exact_limit = exact_limit
        self.engine = engine
        self.name = f"adversarial(k={k})"
        self._cache: tuple[RoundProgram, AdversarialReport] | None = None

    # ------------------------------------------------------------------ #
    def _evaluate(
        self, program: RoundProgram, deletion: frozenset[tuple[int, int]], engine
    ) -> int | None:
        return engine.run(_deleted_program(program, deletion)).completion_round

    @staticmethod
    def _worse(a: int | None, b: int | None) -> bool:
        """Is outcome ``a`` strictly worse (for the protocol) than ``b``?"""
        if a is None:
            return b is not None
        return b is not None and a > b

    def worst_deletion(self, program: RoundProgram) -> AdversarialReport:
        """The worst ≤ k per-period deletion for ``program``.

        Exact below ``exact_limit`` candidate subsets; greedy above.  The
        empty deletion is always a candidate, so the reported ``rounds`` is
        never better than the fault-free gossip time.
        """
        engine = resolve_engine(self.engine)
        slots = [
            (slot, position)
            for slot, arcs in enumerate(program.rounds)
            for position in range(len(arcs))
        ]
        total = len(slots)
        k = min(self.k, total)
        evaluations = 1
        worst_rounds = self._evaluate(program, frozenset(), engine)
        worst_deletion: frozenset[tuple[int, int]] = frozenset()

        candidates = 0
        size_cap = k
        binom = 1
        for size in range(1, k + 1):
            binom = binom * (total - size + 1) // size
            candidates += binom
            if candidates > self.exact_limit:
                size_cap = size - 1
                break
        exact = size_cap == k

        if exact:
            for size in range(1, k + 1):
                for subset in combinations(slots, size):
                    deletion = frozenset(subset)
                    evaluations += 1
                    rounds = self._evaluate(program, deletion, engine)
                    if self._worse(rounds, worst_rounds):
                        worst_rounds, worst_deletion = rounds, deletion
        else:
            chosen: set[tuple[int, int]] = set()
            for _ in range(k):
                step_rounds, step_pick = worst_rounds, None
                for candidate in slots:
                    if candidate in chosen:
                        continue
                    deletion = frozenset(chosen | {candidate})
                    evaluations += 1
                    rounds = self._evaluate(program, deletion, engine)
                    if step_pick is None or self._worse(rounds, step_rounds):
                        step_rounds, step_pick = rounds, candidate
                if step_pick is None:
                    break
                chosen.add(step_pick)
                worst_rounds, worst_deletion = step_rounds, frozenset(chosen)
                if worst_rounds is None:
                    break  # nothing is worse than never completing

        deleted = tuple(
            (slot, program.rounds[slot][position])
            for slot, position in sorted(worst_deletion)
        )
        return AdversarialReport(worst_rounds, deleted, exact, evaluations)

    # ------------------------------------------------------------------ #
    def sample(
        self, program: RoundProgram, horizon: int, trials: int, *, seed: int = 0
    ) -> FaultSample:
        """Apply the (cached) worst deletion to every trial.

        ``seed`` is accepted for interface uniformity but unused — the
        adversary is deterministic, so all trials are identical and a
        single trial already carries the full answer.
        """
        # The cache key is the whole program (graph, rounds, cyclicity AND
        # round budget): the worst deletion depends on the budget too — a
        # deletion that merely delays completion within one budget prevents
        # it under a tighter one.
        if self._cache is None or self._cache[0] != program:
            self._cache = (program, self.worst_deletion(program))
        report = self._cache[1]
        positions = set()
        for slot, arc in report.deletion:
            positions.add((slot, program.rounds[slot].index(arc)))
        return _FixedDeletionSample(program, horizon, trials, frozenset(positions))
