"""Engine-facing execution model shared by every simulation backend.

A *simulation engine* executes a :class:`RoundProgram` — a digraph plus a
round sequence (finite, or one period repeated cyclically) — on exact
knowledge sets and returns a :class:`SimulationResult`.  The program object
deliberately exposes the round *structure* (the base rounds and whether they
repeat) rather than an opaque round-supplier callable, so that engines can
precompile each distinct round once: the vectorized backend turns every base
round into tail/head index arrays exactly one time regardless of how many
times the schedule cycles through it.

Engines must agree bit-for-bit: given the same program and options they must
return identical results — ``knowledge``, ``rounds_executed``,
``completion_round`` and every tracked analysis (``item_completion_rounds``,
``arrival_rounds``).  ``tests/test_engines_differential.py`` enforces this
against the pure-Python reference implementation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import SimulationError
from repro.gossip.model import GossipProtocol, Round, SystolicSchedule
from repro.topologies.base import Digraph, Vertex

if TYPE_CHECKING:
    from repro.gossip.engines.checkpoint import CheckpointedRun, EngineState

__all__ = [
    "ArrivalRounds",
    "RoundProgram",
    "arrival_dtype",
    "decode_rounds",
    "default_budget",
    "SimulationResult",
    "SimulationEngine",
    "initial_knowledge",
    "full_mask",
    "check_initial",
    "iter_set_bits",
]


def initial_knowledge(n: int) -> list[int]:
    """The paper's initial state: vertex ``i`` knows exactly its own item."""
    return [1 << j for j in range(n)]


def full_mask(n: int) -> int:
    """Bitmask with the ``n`` item bits set (the complete-gossip target)."""
    return (1 << n) - 1


def default_budget(period: int, n: int) -> int:
    """The round budget of a cyclic program when the caller gives none:
    ``4·s·n``, at least 16, well past any correct systolic gossip time."""
    return max(4 * period * n, 16)


def check_initial(initial: list[int], n: int) -> None:
    """Validate a caller-supplied initial knowledge vector."""
    if len(initial) != n:
        raise SimulationError(f"initial knowledge has {len(initial)} entries, expected {n}")


def iter_set_bits(bits: int):
    """Yield the indices of the set bits of a non-negative integer.

    Runs in O(popcount) big-int operations instead of scanning every
    candidate position, which matters when ``n`` is large and the set is
    sparse (e.g. early rounds of a broadcast).
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def arrival_dtype(last: int) -> type[np.signedinteger]:
    """The narrowest of int16, int32 and int64 that holds every round up to
    ``last`` (and ``-1``, the arrival matrices' "never arrived")."""
    for dtype in (np.int16, np.int32):
        if last <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def decode_rounds(values) -> tuple[int | None, ...]:
    """Tracked rounds as a tuple, ``None`` where the array form holds ``-1``
    ("not yet")."""
    return tuple(x if x >= 0 else None for x in values)


class ArrivalRounds(Sequence):
    """Lazy first-arrival matrix: ``view[i][j]`` is the first round after
    which vertex ``i`` knew item ``j`` (0 for initially-known items, ``None``
    when the item never arrived within the executed rounds).

    Every engine hands the run driver's ``(n, n)`` tracking array (``-1``
    encoding "never arrived") over wholesale, so building the result costs
    O(1) instead of the eager n×n Python tuple materialisation this
    replaced (~2.5 s at n = 4096).  That array is in the narrowest signed
    type holding the last round the run could stamp (:func:`arrival_dtype`).
    Rows materialise as plain tuples of ``int | None`` on access, so
    indexing, iteration and equality behave exactly like the nested tuples
    did; vectorised consumers call :meth:`to_numpy` to skip per-element
    conversion entirely.

    The constructor takes *ownership* of the passed integer array: the view
    freezes it (a read-only view over the caller's buffer when the input is
    already a contiguous signed-integer array, to stay zero-copy; other
    types become int64), so callers must not mutate the buffer afterwards —
    doing so would silently change the view's contents, equality and hash.
    """

    __slots__ = ("_array", "_hash")

    def __init__(self, data: np.ndarray) -> None:
        if data.ndim != 2:
            raise SimulationError(f"arrival matrices are 2-D, got {data.ndim}-D array")
        dtype = data.dtype if data.dtype.kind == "i" else np.int64
        array = np.ascontiguousarray(data, dtype=dtype)
        if array is data:
            # Freeze a view, not the caller's own array object.
            array = data.view()
        array.flags.writeable = False
        self._array = array
        self._hash: int | None = None

    # -- sequence protocol ---------------------------------------------- #
    def __len__(self) -> int:
        return self._array.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return decode_rounds(self._array[i].tolist())

    def __iter__(self):
        for row in self._array.tolist():
            yield decode_rounds(row)

    def column(self, j: int) -> tuple[int | None, ...]:
        """Arrival rounds of item ``j`` at every vertex (one column)."""
        return decode_rounds(self._array[:, j].tolist())

    def to_numpy(self):
        """The backing ``(n, n)`` matrix, ``-1`` for "never arrived".

        Zero-copy and read-only.  Its type may be as narrow as int16:
        arithmetic that could pass its maximum (sums of rounds, scaling)
        must cast first, e.g. ``.astype(np.int64)``.
        """
        return self._array

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, ArrivalRounds):
            return bool(np.array_equal(self._array, other._array))
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            try:
                return len(self) == len(other) and all(
                    a == tuple(b) for a, b in zip(iter(self), iter(other))
                )
            except TypeError:  # rows of `other` are not iterable: not equal
                return False
        return NotImplemented

    def __hash__(self) -> int:
        # Hash the bytes of the matrix in arrival_dtype of its largest round
        # (cached), so equal views hash identically across widths without
        # building the n² Python objects the lazy view exists to avoid, or
        # an int64 copy.  Views that compare equal to *plain* nested tuples
        # do not share those tuples' hash — mixed-key dict use is not
        # supported.
        if self._hash is None:
            array = self._array
            dtype = arrival_dtype(int(array.max(initial=-1)))
            self._hash = hash(array.astype(dtype, copy=False).tobytes())
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrivalRounds(n={len(self)}, dtype={self._array.dtype})"


@dataclass(frozen=True)
class RoundProgram:
    """A digraph plus the round sequence an engine must execute.

    Attributes
    ----------
    graph:
        The network digraph.
    rounds:
        The base round sequence.  For a finite protocol this is the full
        sequence ``⟨A₁, …, A_t⟩``; for a systolic schedule it is the period
        ``⟨A₁, …, A_s⟩``.
    cyclic:
        ``False`` for finite protocols, ``True`` when ``rounds`` repeats
        cyclically (``A_i = A_{((i-1) mod s) + 1}``).
    max_rounds:
        The round budget: engines execute at most this many rounds.
    """

    graph: Digraph
    rounds: tuple[Round, ...]
    cyclic: bool
    max_rounds: int

    def slot(self, i: int) -> int:
        """The index into ``rounds`` of (1-based) round ``i``."""
        return (i - 1) % len(self.rounds) if self.cyclic else i - 1

    def arcs_at(self, i: int) -> Round:
        """The arc set active at (1-based) round ``i``."""
        return self.rounds[self.slot(i)]

    @classmethod
    def from_protocol(cls, protocol: GossipProtocol, max_rounds: int | None = None) -> "RoundProgram":
        """Program for an explicit finite protocol (budget = its length)."""
        budget = protocol.length if max_rounds is None else min(max_rounds, protocol.length)
        return cls(protocol.graph, protocol.rounds, cyclic=False, max_rounds=budget)

    @classmethod
    def from_schedule(cls, schedule: SystolicSchedule, max_rounds: int | None = None) -> "RoundProgram":
        """Program for a systolic schedule.

        The default budget is generous (:func:`default_budget`, ``4·s·n``); a
        correct systolic gossip schedule on a connected graph always
        terminates well within it, and schedules that cannot complete are
        reported as incomplete rather than looping forever.
        """
        if max_rounds is None:
            max_rounds = default_budget(schedule.period, schedule.graph.n)
        return cls(schedule.graph, schedule.base_rounds, cyclic=True, max_rounds=max_rounds)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of running a protocol.

    Attributes
    ----------
    graph:
        The digraph the protocol ran on.
    rounds_executed:
        How many rounds were actually executed.
    completion_round:
        The smallest number of rounds after which every tracked vertex knew
        every tracked item, or ``None`` if the run ended before completion.
    knowledge:
        Final knowledge bitsets, indexed like ``graph.vertices``.
    item_completion_rounds:
        Only populated when the engine was asked to track per-item
        completion: entry ``j`` is the first round after which *every* vertex
        knew item ``j`` (i.e. the broadcast time of vertex ``j``'s item under
        this protocol), or ``None`` if the run ended first.
    arrival_rounds:
        Only populated when the engine was asked to track arrivals: a lazy
        :class:`ArrivalRounds` view whose entry ``[i][j]`` is the first round
        after which vertex ``i`` knew item ``j`` (0 for items known
        initially), or ``None`` if the item never arrived within the
        executed rounds.  Indexing and iteration behave like the eager
        nested tuples this used to be; ``arrival_rounds.to_numpy()`` exposes
        the backing matrix without per-element conversion, in the narrowest
        of int16, int32 and int64 that holds the last round the run could
        stamp (cast before arithmetic that could pass its maximum).  Like item
        tracking, only the ``n`` vertex-originated items are covered; higher
        bits of a caller-supplied initial state are ignored.
    engine_name:
        Name of the engine that produced this result, so callers can verify
        which backend actually ran (the ``auto`` selection is never silent).
        Run telemetry goes to the installed recorder only, never onto the
        result.
    """

    graph: Digraph
    rounds_executed: int
    completion_round: int | None
    knowledge: tuple[int, ...]
    item_completion_rounds: tuple[int | None, ...] | None = None
    arrival_rounds: ArrivalRounds | None = None
    engine_name: str | None = None

    @property
    def complete(self) -> bool:
        """``True`` iff gossip completed within the executed rounds."""
        return self.completion_round is not None

    def known_items(self, v: Vertex) -> set[int]:
        """Indices of the items known by vertex ``v`` at the end of the run.

        Iterates over the *set* bits of the knowledge word, so the cost is
        proportional to the number of known items rather than to ``n``.
        """
        return set(iter_set_bits(self.knowledge[self.graph.index(v)]))


@runtime_checkable
class SimulationEngine(Protocol):
    """What a simulation backend must provide to join the engine registry.

    A backend (GPU, bit-sliced C extension, distributed, …) provides a
    ``name`` attribute and the two methods below with these exact
    semantics, plus a ``register_engine`` call — see
    :mod:`repro.gossip.engines`.  Subclassing the run driver,
    :class:`~repro.gossip.engines.checkpoint.CheckpointingMixin`, supplies
    both around one hook.  ``register_engine`` and ``resolve_engine``
    refuse an object without them.  Three backends implement the protocol
    today (reference, vectorized, frontier); the registry-parametrized
    differential, fuzz and resume suites hold all of them — and anything
    registered later — to bit-for-bit agreement, including the
    ``arrival_rounds`` matrix under every tracking-flag combination and
    every resume of every captured state (the determinism contract is in
    :mod:`repro.gossip.engines.checkpoint`).
    """

    name: str

    def run(
        self,
        program: RoundProgram,
        *,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> SimulationResult:
        """Execute ``program`` and return the (engine-tagged) result.

        ``initial`` overrides the each-vertex-knows-itself starting state;
        ``target_mask`` restricts the completion test to a subset of item
        bits (used for broadcast times); ``track_item_completion`` records,
        per item, the first round at which all vertices know it;
        ``track_arrivals`` records the full (vertex, item) first-arrival
        matrix, which batches every per-source arrival/eccentricity
        analysis into one run.  A run with neither tracks only completion.
        """
        ...  # pragma: no cover - protocol definition

    def run_checkpointed(
        self,
        program: RoundProgram,
        *,
        checkpoint_rounds=(),
        resume_from: EngineState | None = None,
        slot_cache: dict | None = None,
        **options,
    ) -> CheckpointedRun:
        """:meth:`run` under the same options, or the continuation of
        ``resume_from``, capturing an :class:`EngineState` after each round
        of ``checkpoint_rounds`` that it reaches.  ``slot_cache`` memoizes
        compiled rounds across runs on one graph."""
        ...  # pragma: no cover - protocol definition
