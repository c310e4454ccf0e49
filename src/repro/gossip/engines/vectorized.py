"""Vectorized NumPy engine: packed ``uint64`` bitset kernel.

Layout
------
Knowledge is a ``(n, W)`` ``uint64`` matrix ``K`` with ``W = ceil(B / 64)``
words per vertex (``B`` is ``n`` unless a caller-supplied initial state or
target mask uses higher bits): bit ``j`` of a vertex's knowledge set lives
in word ``j // 64`` of its row at position ``j % 64`` (little-endian word
order, so a row reinterpreted as little-endian bytes equals the reference
engine's Python integer exactly).  Item bit columns always keep the public
vertex indexing; the row order depends on the regime.

Each run takes one of two regimes, chosen from the packed matrix size
``n · W · 8`` bytes (:func:`_uses_source_map`):

* **source map** — at most ``_SOURCE_MAP_MAX_BYTES``, a cache-resident
  matrix.  Rows stay in public vertex order.
* **permuted** — larger matrices.  Rows live in the locality order of
  :func:`~repro.gossip.engines.layout.row_locality_permutation`, which puts
  the first non-empty round's heads after its non-heads so that the
  matching rounds of cycle/path-like colourings touch two contiguous row
  blocks.

Kernel
------
Each distinct round is precompiled once — for a cyclic (systolic) program
once per *period*, no matter how many times the schedule repeats.  Both
kernels preserve the paper's snapshot semantics: all arcs of a round act
simultaneously on the pre-round state, even in structurally invalid rounds
where a head is also a tail.

*Source map.*  A round compiles into an ``int64`` map ``src`` with
``src[h] = t`` for every arc ``(t, h)`` and ``src[v] = v`` for every other
row, and is applied as two NumPy calls however its arcs are laid out::

    np.bitwise_or(K, K.take(src, axis=0), out=K)

The ``take`` copy is the pre-round snapshot.  A round with a repeated head
has no single map and keeps the unbuffered scatter
``np.bitwise_or.at(K, heads, K.take(tails, axis=0))``.  On a cache-resident
matrix a round costs NumPy dispatch rather than memory traffic, so touching
every row once beats touching only the round's rows through many calls.

*Permuted.*  A round compiles into ``(tails, heads)`` index arrays in the
internal row order, sorted by head, plus their decomposition into
arithmetic-progression runs (:func:`~repro.gossip.engines._bitops.ap_segments`)
when there are few enough.  A vertex-disjoint round (every valid matching)
is applied through the runs' copy-free strided views, or else as one bulk
gather + scatter-OR; any other round gathers the snapshot first::

    K[heads] |= K.take(tails, axis=0)                  # disjoint round
    np.bitwise_or.at(K, heads, K.take(tails, axis=0))  # otherwise

Touching only the round's rows is what wins once the matrix outgrows the
caches.  ROADMAP.md records the sweep the threshold between the regimes
was chosen from.

Tiling
------
Above n ≈ 4096 the knowledge matrix exceeds L2 and the permuted kernel
becomes DRAM-bandwidth-bound.  Its irregular-round gather path therefore
processes arcs in *row tiles* sized from the packed row width so that one
tile's gather temporary plus its target rows fit the L2 budget
(``_TILE_TARGET_BYTES``); the completion test is chunked the same way in
both regimes, which additionally lets it exit at the first incomplete row
instead of scanning the whole matrix (a source-map matrix always fits one
chunk).  The strided-segment path stays untiled (it operates on copy-free
views and allocates no temporary), and the non-disjoint snapshot path must
stay untiled for correctness: a later tile's gather would observe an
earlier tile's writes.  :func:`_tile_rows` reads ``_TILE_TARGET_BYTES`` at
every run, so a test patching the constant to a huge value gets the
untiled kernel.

Completion detection
--------------------
When no per-round history is requested, rounds are executed in batches of
doubling size (capped): the completion test — an O(n·W) comparison against
the target mask — runs once per batch, and when a batch ends complete the
engine rolls back to the saved pre-batch state and replays it round by
round to pin down the *exact* completion round.  This keeps the steady-state
per-round cost at a single kernel application, which is what makes the
engine an order of magnitude faster than the reference loop on instances
with thousands of vertices.  Coverage counts use the hardware popcount
(``np.bitwise_count``).

Checkpoint/resume
-----------------
The engine implements the checkpoint/resume protocol
(:mod:`repro.gossip.engines.checkpoint`).  Snapshots are canonical: capture
unpacks the ``uint64`` matrix back to Python-int knowledge rows (restoring
public row order first in the permuted regime), so a state captured here
resumes on any backend and in either regime, and vice versa.  The batched
fast path treats requested checkpoint rounds as forced batch boundaries, so
captures are exact without giving up the doubling-batch completion scan;
resume restarts the doubling from the resume point.  ``run_checkpointed``
accepts the same caller-owned ``slot_cache`` dict as the sparse engines.
Source maps are in public row order, so their entries are keyed by the
round's identity alone.  Permuted index arrays are expressed in the
internal row order — a function of the first non-empty round's head set —
so those entries are additionally keyed by that anchor round's identity,
and a search walk that changes the permutation can never reuse a stale
compilation.
"""

from __future__ import annotations

import time
from functools import partial

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI/dev envs
    np = None  # type: ignore[assignment] - "auto" then resolves to the reference engine

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines.base import (
    ArrivalRounds,
    RoundProgram,
    SimulationResult,
    check_initial,
    full_mask,
    initial_knowledge,
    iter_set_bits,
)
from repro.gossip.engines._bitops import (
    WORD_BYTES as _WORD_BYTES,
    ap_segments as _ap_segments,
    numpy_available,
    pack_int as _pack_int,
    pack_rows as _pack_rows,
    packed_width as _packed_width,
    popcount_total as _popcount_total,
    set_bit_positions as _set_bit_positions,
    unpack_rows as _unpack_rows,
    unpack_words as _unpack_words,
)
from repro.gossip.engines.checkpoint import (
    CheckpointedRun,
    CheckpointingMixin,
    EngineState,
    check_resume_state,
    encode_arrivals,
    normalize_checkpoint_rounds,
)
from repro.gossip.engines.layout import (
    row_locality_permutation as _row_permutation,
)
from repro.gossip.model import Round
from repro.topologies.base import Digraph

__all__ = ["VectorizedEngine", "numpy_available"]

#: Largest batch of rounds executed between two completion checks.
_BATCH_CAP = 128

#: Cache budget one row tile should fit in (a conservative L2 size).  The
#: row count of a tile is derived from the packed row width: gather source
#: tile + target rows ≈ 2 resident copies per tile.
_TILE_TARGET_BYTES = 1 << 20

#: Largest packed matrix, in bytes (``n · W · 8``), that runs in the
#: source-map regime; larger ones run permuted.  Chosen from the sweep in
#: ROADMAP.md ("Current architecture notes"): the source map wins on every
#: schedule up to n = 1024 (128 KiB) and loses on colouring schedules of
#: cycles and paths from n = 2048 (512 KiB).
_SOURCE_MAP_MAX_BYTES = 128 << 10


def _uses_source_map(n: int, words: int) -> bool:
    """Does an ``(n, words)`` packed matrix run in the source-map regime?"""
    return n * words * _WORD_BYTES <= _SOURCE_MAP_MAX_BYTES


def _tile_rows(words: int) -> int:
    """Rows per tile so gather temp + target rows fit the L2 budget."""
    return max(32, _TILE_TARGET_BYTES // (2 * words * _WORD_BYTES))


def _arc_indices(graph: Digraph, arcs: Round) -> tuple[np.ndarray, np.ndarray]:
    """Public row indices ``(tails, heads)`` of a round's arcs, in arc order."""
    index = graph.index
    m = len(arcs)
    tails = np.fromiter((index(t) for t, _ in arcs), dtype=np.int64, count=m)
    heads = np.fromiter((index(h) for _, h in arcs), dtype=np.int64, count=m)
    return tails, heads


def _compile_source_map(
    graph: Digraph, arcs: Round
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Precompile a round for the source-map kernel.

    Returns ``(tails, heads, src)`` in public row order, where ``src[h] = t``
    for every arc and ``src[v] = v`` for every other row.  ``src`` is
    ``None`` for an empty round and for one whose heads repeat, which no
    single map can express; :func:`_apply_source_map` then scatters through
    ``tails`` and ``heads`` instead.
    """
    tails, heads = _arc_indices(graph, arcs)
    src = None
    if heads.size and len(set(heads.tolist())) == heads.size:
        src = np.arange(graph.n, dtype=np.int64)
        src[heads] = tails
    return tails, heads, src


def _apply_source_map(
    knowledge: np.ndarray, compiled: tuple[np.ndarray, np.ndarray, np.ndarray | None]
) -> None:
    """One round as a whole-matrix OR with the rows its source map gathers."""
    tails, heads, src = compiled
    if src is not None:
        # ``take`` copies, so every row ORs in its source's pre-round state.
        np.bitwise_or(knowledge, knowledge.take(src, axis=0), out=knowledge)
    elif heads.size:
        # A repeated head: the unbuffered scatter accumulates all its tails.
        np.bitwise_or.at(knowledge, heads, knowledge.take(tails, axis=0))


def _compile_round(
    graph: Digraph, arcs: Round, old_to_new: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, list[tuple[slice | np.ndarray, slice]] | None]:
    """Precompile a round for the permuted kernel: index arrays plus the
    fast-path metadata.

    Indices are expressed in the engine's internal (permuted) row order.
    Returns ``(tails, heads, disjoint, segments)`` where ``disjoint`` means
    no vertex is both a head and a tail and every head is distinct — true for
    every valid matching — which licenses in-place application without a
    pre-round snapshot copy, and ``segments`` is the strided decomposition of
    :func:`~repro.gossip.engines._bitops.ap_segments` (``None`` for
    irregular rounds).
    """
    tails, heads = _arc_indices(graph, arcs)
    tails, heads = old_to_new[tails], old_to_new[heads]
    m = len(arcs)
    if m > 1:
        # Arcs within a round commute (each head ORs the pre-round snapshots
        # of its tails), so sorting by head index is semantics-preserving and
        # exposes the strided structure of regular topologies' rounds.
        order = np.argsort(heads, kind="stable")
        heads = heads[order]
        tails = tails[order]
    head_set = set(heads.tolist())
    disjoint = len(head_set) == m and not head_set.intersection(tails.tolist())
    segments = _ap_segments(tails, heads) if disjoint and m else None
    return tails, heads, disjoint, segments


def _apply_round(
    knowledge: np.ndarray,
    compiled: tuple[np.ndarray, np.ndarray, bool, list[tuple[slice | np.ndarray, slice]] | None],
    tile_rows: int,
) -> None:
    """One permuted-regime round: bulk OR of the senders' rows into the
    receivers' rows."""
    tails, heads, disjoint, segments = compiled
    if not tails.size:
        return
    if disjoint:
        # Rows are vertex-disjoint (any valid matching), so the elementwise
        # update cannot observe this round's own writes: slice segments index
        # as copy-free views, and only irregular rounds pay for a gather.
        if segments is not None:
            for tail_part, head_slice in segments:
                targets = knowledge[head_slice]
                sources = (
                    knowledge[tail_part]
                    if isinstance(tail_part, slice)
                    else knowledge.take(tail_part, axis=0)
                )
                np.bitwise_or(targets, sources, out=targets)
        elif len(heads) > tile_rows:
            # Irregular round on a large instance: bound the gather temporary
            # to one L2-sized tile so the gathered rows are ORed into their
            # targets while still cache-resident.  Disjointness makes tile
            # order irrelevant (no head row aliases any tail row).
            for start in range(0, len(heads), tile_rows):
                stop = start + tile_rows
                knowledge[heads[start:stop]] |= knowledge.take(tails[start:stop], axis=0)
        else:
            knowledge[heads] |= knowledge.take(tails, axis=0)
    else:
        # A head also appears as a tail (or twice as a head): gather the
        # pre-round snapshot first and use the unbuffered scatter so the
        # paper's all-arcs-act-simultaneously semantics is preserved.  This
        # path must NOT be tiled: a later tile's gather would observe an
        # earlier tile's writes and break the snapshot semantics.
        np.bitwise_or.at(knowledge, heads, knowledge.take(tails, axis=0))


#: Compiled-round caches are cleared past this size so a long search walk
#: cannot grow one without bound (distinct rounds accumulate with every
#: insert/mutate move).
_SLOT_CACHE_LIMIT = 4096


def _compiled_rounds(graph, rounds, old_to_new, slot_cache):
    """Per-round compiled kernels, memoized in ``slot_cache`` when given.

    ``old_to_new`` is ``None`` in the source-map regime.  Entries are
    identity-keyed on the interned round tuples, like the sparse engines'
    caches.  Source maps are in public row order, so the round's identity is
    the whole key.  Permuted index arrays live in the internal row order,
    and the permutation is a function of the first non-empty round's head
    set, so those entries also key on that anchor round's identity: a move
    that changes the first non-empty round changes the key and forces
    recompilation.  References to the keyed objects are held in the value,
    so the ids stay valid; the two regimes' keys (an int and a pair) never
    collide.
    """
    if old_to_new is None:
        anchor = None
        compile_round = partial(_compile_source_map, graph)
    else:
        anchor = next((arcs for arcs in rounds if arcs), None)
        compile_round = partial(_compile_round, graph, old_to_new=old_to_new)
    if slot_cache is None:
        return [compile_round(arcs) for arcs in rounds]
    compiled = []
    for arcs in rounds:
        key = id(arcs) if old_to_new is None else (id(arcs), id(anchor))
        entry = slot_cache.get(key)
        if entry is None:
            if len(slot_cache) >= _SLOT_CACHE_LIMIT:
                slot_cache.clear()
            entry = slot_cache[key] = (arcs, anchor, compile_round(arcs))
        compiled.append(entry[2])
    return compiled


def _is_complete(knowledge: np.ndarray, mask: np.ndarray, tile_rows: int) -> bool:
    """Does every row contain every bit of ``mask``?

    The scan is chunked into ``tile_rows`` blocks, which keeps each
    comparison temporary inside L2 and — more importantly on incomplete
    states, which is every check but the last — returns at the first
    incomplete chunk instead of touching the whole matrix.
    """
    if knowledge.shape[0] <= tile_rows:
        return bool(np.all((knowledge & mask) == mask))
    for start in range(0, knowledge.shape[0], tile_rows):
        block = knowledge[start : start + tile_rows]
        if not np.all((block & mask) == mask):
            return False
    return True


class VectorizedEngine(CheckpointingMixin):
    """Bulk OR kernel over a packed ``(n, ceil(n/64)) uint64`` matrix: one
    source-map gather-OR per round on cache-resident matrices, row-permuted
    gather/scatter above (see the module docstring for the two regimes).

    The permuted irregular-round gather path and the completion scan are
    blocked to the ``_TILE_TARGET_BYTES`` L2 budget (module docstring,
    "Tiling").  Supports the checkpoint/resume protocol (see the module
    docstring for how captures interact with the batched fast path).
    """

    name = "vectorized"

    def run(
        self,
        program: RoundProgram,
        *,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_history: bool = True,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> SimulationResult:
        return self.run_checkpointed(
            program,
            initial=initial,
            target_mask=target_mask,
            track_history=track_history,
            track_item_completion=track_item_completion,
            track_arrivals=track_arrivals,
        ).result

    def run_checkpointed(
        self,
        program: RoundProgram,
        *,
        checkpoint_rounds=(),
        resume_from: EngineState | None = None,
        slot_cache: dict | None = None,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_history: bool = True,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> CheckpointedRun:
        _rec = telemetry.get_recorder()
        _telem = _rec.enabled
        _t0 = time.perf_counter_ns() if _telem else 0
        _counts = {"batches": 0, "replayed_rounds": 0} if _telem else None

        graph = program.graph
        n = graph.n
        state = resume_from
        if state is not None:
            if initial is not None:
                raise SimulationError(
                    "resume_from and initial are mutually exclusive "
                    "(the state carries the knowledge vector)"
                )
            check_resume_state(
                state,
                program,
                target_mask=target_mask,
                track_history=track_history,
                track_item_completion=track_item_completion,
                track_arrivals=track_arrivals,
            )
            start = list(state.knowledge)
            base = state.round
        else:
            start = list(initial) if initial is not None else initial_knowledge(n)
            base = 0
        check_initial(start, n)
        full = full_mask(n) if target_mask is None else target_mask

        # Word width: enough for the n item bits, widened if a caller-supplied
        # initial state or target mask carries higher bits.
        words = _packed_width(n, full, start)

        # A cache-resident matrix keeps public row order and runs the
        # source-map kernel; a larger one lives in an internal row order
        # chosen for memory locality.  Item bit columns keep the public
        # vertex indexing in both regimes.
        tile_rows = _tile_rows(words)
        knowledge = _pack_rows(start, words)
        if _uses_source_map(n, words):
            old_to_new = None
            apply_round = _apply_source_map
        else:
            new_to_old, old_to_new = _row_permutation(graph, program.rounds)
            knowledge = knowledge[new_to_old]
            apply_round = partial(_apply_round, tile_rows=tile_rows)
        mask = _pack_int(full, words)

        def public_rows(matrix: np.ndarray) -> np.ndarray:
            return matrix if old_to_new is None else matrix[old_to_new]

        compiled = _compiled_rounds(graph, program.rounds, old_to_new, slot_cache)

        def compiled_at(round_number: int):
            if program.cyclic:
                return compiled[(round_number - 1) % len(compiled)]
            return compiled[round_number - 1]

        history: list[int] = []
        if track_history:
            if state is not None:
                history = list(state.coverage_history)
            else:
                history.append(_popcount_total(knowledge))

        item_rounds: list[int | None] | None = None
        if track_item_completion:
            if state is not None:
                item_rounds = list(state.item_completion)
            else:
                item_rounds = [None] * n
                known = np.bitwise_and.reduce(knowledge, axis=0)
                for j in iter_set_bits(_unpack_words(known)):
                    if j < n:
                        item_rounds[j] = 0

        arrivals: np.ndarray | None = None
        receivers: list[np.ndarray | None] | None = None
        if track_arrivals:
            # First-arrival matrix in the engine's internal row order; item
            # columns keep public indexing (only the n vertex items count).
            arrivals = np.full((n, n), -1, dtype=np.int64)
            if state is not None:
                # The snapshot's rows use public vertex order; load each into
                # its internal row so in-run updates index consistently.
                internal_row = range(n) if old_to_new is None else old_to_new.tolist()
                for v, row in enumerate(state.arrivals):
                    target_row = arrivals[internal_row[v]]
                    for j, r in enumerate(row):
                        if r is not None:
                            target_row[j] = r
            else:
                rows, cols = _set_bit_positions(knowledge)
                vertex_items = cols < n
                arrivals[rows[vertex_items], cols[vertex_items]] = 0
            # Each round can only change its receiver rows; resolve them once
            # per distinct compiled round, not once per executed round.
            receivers = [
                np.unique(c[1]) if c[1].size else None for c in compiled
            ]

        def receivers_at(round_number: int):
            if program.cyclic:
                return receivers[(round_number - 1) % len(receivers)]
            return receivers[round_number - 1]

        if state is not None:
            completion: int | None = state.completion_round
        else:
            completion = base if _is_complete(knowledge, mask, tile_rows) else None

        wanted = normalize_checkpoint_rounds(checkpoint_rounds, base)
        captured: list[EngineState] = []

        def capture(matrix: np.ndarray, round_number: int, completed: int | None) -> None:
            # Canonical snapshot: public row order, unpacked to Python ints.
            captured.append(
                EngineState(
                    round=round_number,
                    knowledge=_unpack_rows(public_rows(matrix)),
                    completion_round=completed,
                    target_mask=full,
                    track_history=track_history,
                    track_item_completion=track_item_completion,
                    track_arrivals=track_arrivals,
                    coverage_history=(
                        tuple(history[: round_number + 1]) if track_history else None
                    ),
                    item_completion=None if item_rounds is None else tuple(item_rounds),
                    arrivals=None
                    if arrivals is None
                    else encode_arrivals(public_rows(arrivals).tolist()),
                    engine_name=self.name,
                )
            )

        ci = 0
        if ci < len(wanted) and wanted[ci] == base:
            capture(knowledge, base, completion)
            ci += 1

        if completion is not None:
            executed = base
        elif (
            track_history or item_rounds is not None or arrivals is not None or not compiled
        ):
            knowledge, executed, completion = self._run_tracked(
                program, apply_round, compiled_at, receivers_at, knowledge, mask,
                history, item_rounds, arrivals,
                base=base, track_history=track_history, tile_rows=tile_rows,
                wanted=wanted, ci=ci, capture=capture,
            )
        else:
            knowledge, executed, completion = self._run_fast(
                program, apply_round, compiled_at, knowledge, mask,
                base=base, tile_rows=tile_rows, telem_counts=_counts,
                wanted=wanted, ci=ci, capture=capture,
            )

        run_stats = None
        if _telem:
            counts = {"runs": 1, "rounds_simulated": executed - base}
            counts.update(_counts)
            _rec.counters("engine.vectorized", counts)
            _hist = telemetry.Histogram.of(counts["rounds_simulated"])
            _rec.histogram("engine.vectorized.rounds", _hist)
            telemetry.record_span(
                "engine.run", _t0, engine=self.name, n=n, resumed_round=base
            )
            run_stats = telemetry.RunStats.single("engine.vectorized", counts)
            run_stats.add_histogram("engine.vectorized.rounds", _hist)

        result = SimulationResult(
            graph=graph,
            rounds_executed=executed,
            completion_round=completion,
            knowledge=_unpack_rows(public_rows(knowledge)),
            coverage_history=tuple(history),
            item_completion_rounds=None if item_rounds is None else tuple(item_rounds),
            arrival_rounds=None if arrivals is None else ArrivalRounds(public_rows(arrivals)),
            engine_name=self.name,
            run_stats=run_stats,
        )
        return CheckpointedRun(result, tuple(captured))

    # ------------------------------------------------------------------ #
    def _run_tracked(
        self,
        program: RoundProgram,
        apply_round,
        compiled_at,
        receivers_at,
        knowledge: np.ndarray,
        mask: np.ndarray,
        history: list[int],
        item_rounds: list[int | None] | None,
        arrivals: np.ndarray | None,
        *,
        base: int,
        track_history: bool,
        tile_rows: int,
        wanted: list[int],
        ci: int,
        capture,
    ) -> tuple[np.ndarray, int, int | None]:
        """Round-by-round loop recording coverage, item completion, arrivals."""
        n = program.graph.n
        known_by_all = np.zeros(knowledge.shape[1], dtype=np.uint64)
        if item_rounds is not None:
            # Recomputed from the (possibly resumed) snapshot: the already-
            # complete items carry their rounds in ``item_rounds``, so fresh
            # detection below can never double-stamp them.
            known_by_all = np.bitwise_and.reduce(knowledge, axis=0)

        completion: int | None = None
        executed = base
        has_rounds = bool(program.rounds)
        for round_number in range(base + 1, program.max_rounds + 1):
            if has_rounds:
                compiled = compiled_at(round_number)
                receivers = receivers_at(round_number) if arrivals is not None else None
                if receivers is not None:
                    # Only this round's receiver rows can change: snapshot
                    # them, apply, and record the freshly set bits (word
                    # scan + expansion of the nonzero words only).
                    before = knowledge[receivers]
                    apply_round(knowledge, compiled)
                    fresh = knowledge[receivers] & ~before
                    rows, cols = _set_bit_positions(fresh)
                    if rows.size:
                        vertex_items = cols < n
                        arrivals[
                            receivers[rows[vertex_items]], cols[vertex_items]
                        ] = round_number
                else:
                    apply_round(knowledge, compiled)
            executed = round_number
            if track_history:
                history.append(_popcount_total(knowledge))
            if item_rounds is not None:
                now_known = np.bitwise_and.reduce(knowledge, axis=0)
                fresh = now_known & ~known_by_all
                if fresh.any():
                    for j in iter_set_bits(_unpack_words(fresh)):
                        if j < n:
                            item_rounds[j] = round_number
                known_by_all = now_known
            if _is_complete(knowledge, mask, tile_rows):
                completion = round_number
            if ci < len(wanted) and wanted[ci] == round_number:
                capture(knowledge, round_number, completion)
                ci += 1
            if completion is not None:
                break
        return knowledge, executed, completion

    def _run_fast(
        self,
        program: RoundProgram,
        apply_round,
        compiled_at,
        knowledge: np.ndarray,
        mask: np.ndarray,
        *,
        base: int,
        tile_rows: int,
        telem_counts: dict | None = None,
        wanted: list[int] = (),
        ci: int = 0,
        capture=None,
    ) -> tuple[np.ndarray, int, int | None]:
        """Batched loop: completion checked per batch, replayed for exactness.

        Executes rounds in batches of doubling size (capped at
        ``_BATCH_CAP``).  When a batch ends with the target reached, the
        engine restores the saved pre-batch state and replays that batch
        round by round to find the exact completion round, so results are
        indistinguishable from the reference engine's.

        Requested checkpoint rounds are forced batch boundaries: a batch is
        clipped so it never crosses the next wanted round, and the capture
        happens on the exact post-batch state — the doubling sequence is
        otherwise unchanged, so runs without checkpoints execute the exact
        same batches as before.
        """
        max_rounds = program.max_rounds
        executed = base
        batch = 1
        while executed < max_rounds:
            size = min(batch, max_rounds - executed)
            if ci < len(wanted):
                size = min(size, wanted[ci] - executed)
            saved = knowledge.copy()
            if telem_counts is not None:
                telem_counts["batches"] += 1
            for offset in range(1, size + 1):
                apply_round(knowledge, compiled_at(executed + offset))
            if _is_complete(knowledge, mask, tile_rows):
                # Roll back and replay to pin down the exact round.
                knowledge = saved
                for offset in range(1, size + 1):
                    apply_round(knowledge, compiled_at(executed + offset))
                    if telem_counts is not None:
                        telem_counts["replayed_rounds"] += 1
                    if _is_complete(knowledge, mask, tile_rows):
                        executed += offset
                        if ci < len(wanted) and wanted[ci] == executed:
                            capture(knowledge, executed, executed)
                            ci += 1
                        return knowledge, executed, executed
            executed += size
            if ci < len(wanted) and wanted[ci] == executed:
                capture(knowledge, executed, None)
                ci += 1
            batch = min(batch * 2, _BATCH_CAP)
        return knowledge, executed, None
