"""Per-walk checkpoint reuse for candidate evaluation.

Schedule search mutates one period slot at a time, so consecutive
candidates share long executed prefixes.  The engines' checkpoint/resume
protocol (:mod:`repro.gossip.engines.checkpoint`) makes those prefixes
reusable: a state captured after round ``r`` of one candidate resumes any
other candidate bit-exactly as long as their first ``r`` executed rounds
coincide — which, for cyclic periods, is exactly the condition ``r ≤
common_prefix_length(period_a, period_b)``
(:func:`repro.search.moves.common_prefix_length`).

:class:`CheckpointCache` is the per-walk store the cached objective
evaluator (:class:`repro.search.objective._CachedObjective`), the one
way search scores candidates, threads through every candidate run: an
LRU over the last few distinct periods, each holding the engine states
captured along that period's evaluation.  The evaluator captures no state
past its period's length: a deeper state could only resume the identical
period, which the evaluator's memo and bound table never run again.
``lookup`` returns the deepest state whose round the queried period's
prefix still covers; ``record`` merges the states a resumed run captured —
plus the reused prefix states, which are equally states *of the new
period* — under the new period's key, so the cache's reusable frontier
only ever grows along the walk.

The cache stores :class:`~repro.gossip.engines.checkpoint.EngineState`
objects verbatim and never inspects knowledge; correctness rests entirely
on the engines' resume-by-construction contract, which the differential
resume suite (``tests/test_engines_resume.py``) certifies per backend.
One cache serves one (graph, engine options) evaluation context — the
owning evaluator guarantees that by construction, since it fixes graph,
objective and tracking flags for its whole walk.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.gossip.engines.checkpoint import EngineState
from repro.gossip.model import Round
from repro.search.moves import common_prefix_length
from repro.telemetry.core import Histogram

__all__ = ["CheckpointCache", "PeriodKey", "default_checkpoint_rounds"]

Period = tuple[Round, ...]


class PeriodKey:
    """A period used as a dict key, hashing its tuple lazily and at most once.

    Hashing a long period is expensive (every arc of every round) and
    Python tuples do not cache their hash, so an evaluation that keys a
    memo, a bound table and a checkpoint cache by the same period would
    re-pay that cost at every table.  Wrapping the period once per
    evaluation bounds it to a single hash — and to zero when no keyed
    table is touched, since the hash is computed on first use only.

    Equality short-circuits on wrapper and period identity before falling
    back to structural tuple comparison (itself mostly pointer checks,
    because ``make_round`` interns rounds).
    """

    __slots__ = ("period", "_hash")

    def __init__(self, period: Sequence[Round]) -> None:
        self.period: Period = tuple(period)
        self._hash: int | None = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.period)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, PeriodKey):
            return self.period is other.period or self.period == other.period
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeriodKey(<{len(self.period)} rounds>)"


def _as_key(period: Sequence[Round] | PeriodKey) -> PeriodKey:
    return period if isinstance(period, PeriodKey) else PeriodKey(period)

#: Periods kept per cache.  A first-improvement walk revisits the current
#: incumbent's prefix on almost every proposal, so a handful of entries
#: already catches the reuse; more would mostly hold dead branches.
_MAX_PERIODS = 8


def default_checkpoint_rounds(max_rounds: int) -> list[int]:
    """Power-of-two capture rounds: ``1, 2, 4, … ≤ max_rounds``.

    A future candidate agreeing on a prefix of length ``L`` can then always
    resume from a state at round ``≥ L/2`` — logarithmically many captures
    buy at least half of every possible prefix skip, without paying a
    per-round snapshot on long programs.
    """
    rounds = []
    r = 1
    while r <= max_rounds:
        rounds.append(r)
        r *= 2
    return rounds


class CheckpointCache:
    """LRU of engine states over the last few periods of a search walk.

    ``hits``/``misses`` count ``lookup`` calls that did / did not find a
    usable resume state, and ``reused_rounds`` accumulates the round depth
    of every state handed out — the rounds the resumed runs did *not* have
    to re-simulate.  The telemetry layer reports all three as the
    ``search.incremental`` counters (hit rate and mean reused depth), and
    the benchmark surfaces them as the reuse rate.  ``reuse_depth`` keeps
    the same quantity as a per-lookup distribution (misses contribute
    depth 0), flushed by the owning evaluator as the
    ``search.reused_rounds`` histogram.
    """

    def __init__(self) -> None:
        # A plain insertion-ordered dict, NOT an OrderedDict: odict item
        # iteration re-hashes every key it yields, and hashing a long
        # period per entry per lookup dwarfed the simulation work it was
        # saving.  LRU order is maintained manually (pop + reinsert).
        self._entries: dict[PeriodKey, dict[int, EngineState]] = {}
        self.hits = 0
        self.misses = 0
        self.reused_rounds = 0
        self.reuse_depth = Histogram()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, period: Sequence[Round] | PeriodKey, *, max_round: int | None = None
    ) -> tuple[EngineState | None, dict[int, EngineState]]:
        """``(deepest usable state or None, all usable states by round)``.

        A cached state at round ``r`` is usable for ``period`` when the
        entry it lives under agrees with ``period`` on at least ``r`` slots
        (unconditionally when the entry *is* ``period``).  Round-0 states
        are never returned — resuming one is just a cold start.  The full
        usable dict exists so the caller can re-``record`` the reused
        prefix under the new period after the run.  ``lookup`` never hashes
        the period: entries are scanned by prefix agreement, not looked up.
        """
        key = _as_key(period).period
        usable: dict[int, EngineState] = {}
        for entry_key, states in self._entries.items():
            entry_period = entry_key.period
            agreement = (
                None
                if entry_period is key or entry_period == key
                else common_prefix_length(key, entry_period)
            )
            for r, state in states.items():
                if r == 0:
                    continue
                if agreement is not None and r > agreement:
                    continue
                if max_round is not None and r > max_round:
                    continue
                usable.setdefault(r, state)
        if not usable:
            self.misses += 1
            self.reuse_depth.add(0)
            return None, usable
        self.hits += 1
        deepest = usable[max(usable)]
        self.reused_rounds += deepest.round
        self.reuse_depth.add(deepest.round)
        return deepest, usable

    def record(
        self, period: Sequence[Round] | PeriodKey, states: Iterable[EngineState]
    ) -> None:
        """Store ``states`` under ``period`` (most-recently-used position).

        Evicts the least-recently-stored period beyond ``_MAX_PERIODS``.
        The caller is responsible for only passing states whose executed
        prefix matches ``period`` — freshly captured ones, and ``lookup``'s
        usable states, satisfy that by construction.  Callers holding a
        :class:`PeriodKey` should pass it directly so the period hash paid
        here is the one they already amortise.
        """
        key = _as_key(period)
        entry = self._entries.pop(key, None)
        if entry is None:
            while len(self._entries) >= _MAX_PERIODS:
                del self._entries[next(iter(self._entries))]
            entry = {}
        self._entries[key] = entry
        for state in states:
            entry[state.round] = state
