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
Unless arrivals are tracked, rounds are executed in batches of doubling
size (capped): the completion test — an O(n·W) comparison against the
target mask — runs once per batch, and when a batch ends complete the
engine rolls back to the saved pre-batch state and replays it round by
round to pin down the *exact* completion round.  This keeps the steady-state
per-round cost at a single kernel application, which is what makes the
engine an order of magnitude faster than the reference loop on instances
with thousands of vertices.

Per-item completion is monotone too, so an item-tracked run without
arrivals stays in the batched loop.  After each batch one
AND-reduce over the rows gives the items every vertex holds; the item bits
it adds are the items that completed inside the batch.  Such a batch is
replayed from its saved pre-batch state on only the word columns holding
those items, AND-reducing the columns each round to stamp the exact
rounds, and the run then continues from the batch-end matrix it already
holds.  The replay is exact because a round ORs whole rows word by word:
word column ``w`` after a round depends only on column ``w`` before it.
The columns are copied column-major, so each replayed round's AND-reduce
reads contiguous memory.  Item completions cluster (on a cycle colouring
every item completes in the last few rounds), so most batches need no
replay at all.  A batch that also completes the run is replayed at full
width, stamping items on the way.  Arrival-tracked runs need every round
and take the round-by-round loop.

A systolic program repeats one period, so a period that brings no news
proves a fixed point.  For a cyclic program the batched loop therefore
compares each batch's end state with its saved pre-batch copy (chunked
like the completion test, returning at the first chunk that differs) and
adds up the rounds of consecutive batches that changed nothing.  Knowledge
only grows, so every round of such a batch was a no-op on one state; once
the count reaches the period every slot has fired on that state, and the
loop stops.  The count spans batches, so the exit also works for periods
longer than a batch.  The run driver then synthesizes the remaining rounds
and the checkpoints among them (``stops_at_fixed_point``), as for the
frontier engine.  The round-by-round loop has no such exit.

Checkpoint/resume
-----------------
The run driver (:mod:`repro.gossip.engines.checkpoint`) captures states
from the matrix in public row order, which the engine restores first in the
permuted regime; the arrival matrix keeps public row order in both regimes.
The batched fast path treats requested checkpoint rounds as forced batch
boundaries, so captures are exact without giving up the doubling-batch
completion scan; resume restarts the doubling from the resume point.
Source maps are in public row order, so their ``slot_cache`` entries are
keyed by the round's identity alone.  Permuted index arrays are expressed
in the internal row order — a function of the first non-empty round's
head set — so those entries are additionally keyed by that anchor round's
identity, and a search walk that changes the permutation can never reuse
a stale compilation.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.gossip.engines.base import full_mask
from repro.gossip.engines._bitops import (
    WORD_BYTES as _WORD_BYTES,
    ap_segments as _ap_segments,
    arc_indices as _arc_indices,
    expand_delta_words as _expand_delta_words,
    or_segments as _or_segments,
    pack_int as _pack_int,
    pack_rows as _pack_rows,
    packed_width as _packed_width,
    set_bit_positions as _set_bit_positions,
)
from repro.gossip.engines.checkpoint import (
    CheckpointingMixin,
    EngineRun,
    compiled_slots,
)
from repro.gossip.engines.layout import (
    row_locality_permutation as _row_permutation,
)
from repro.gossip.model import Round
from repro.topologies.base import Digraph

__all__ = ["VectorizedEngine"]

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
            _or_segments(knowledge, segments)
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


def _unchanged(knowledge: np.ndarray, saved: np.ndarray, tile_rows: int) -> bool:
    """Does ``knowledge`` still equal its pre-batch copy ``saved``?

    Chunked like :func:`_is_complete`, and returns at the first chunk that
    differs, so a batch that brought news rarely scans the whole matrix.
    """
    for start in range(0, knowledge.shape[0], tile_rows):
        rows = slice(start, start + tile_rows)
        if not np.array_equal(knowledge[rows], saved[rows]):
            return False
    return True


def _public_rows(matrix: np.ndarray, old_to_new: np.ndarray | None) -> np.ndarray:
    """The matrix in public row order (a copy in the permuted regime)."""
    return matrix if old_to_new is None else matrix[old_to_new]


def _item_scan_start(
    knowledge: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(item_words, cols, known)`` for :func:`_scan_items` over the whole
    matrix: the mask of the vertex items (bits below ``n``), every word
    column, and the items every row holds at the start.

    ``known`` comes from the (possibly resumed) start itself: the items
    already in it carry their rounds in the run's prefix, so a scan never
    stamps them again.
    """
    item_words = _pack_int(full_mask(n), knowledge.shape[1])
    known = np.bitwise_and.reduce(knowledge, axis=0) & item_words
    return item_words, np.arange(knowledge.shape[1]), known


def _scan_items(
    matrix: np.ndarray,
    known: np.ndarray,
    item_words: np.ndarray,
    cols: np.ndarray,
    item_rounds: np.ndarray,
    round_number: int,
) -> np.ndarray:
    """Stamp ``round_number`` on the items every row of ``matrix`` newly holds.

    ``matrix`` holds the word columns ``cols`` of the knowledge matrix;
    ``item_words`` masks those columns to the vertex items (bits below
    ``n``) and ``known`` holds the items every row held before.  Returns
    the items every row holds now, the next call's ``known``.
    """
    now = np.bitwise_and.reduce(matrix, axis=0) & item_words
    fresh = now & ~known
    (hit,) = np.nonzero(fresh)
    if hit.size:
        _, items = _expand_delta_words(fresh[hit], cols[hit])
        item_rounds[items] = round_number
    return now


def _replay_item_columns(
    apply_round,
    compiled_at,
    saved: np.ndarray,
    base: int,
    size: int,
    cols: np.ndarray,
    known: np.ndarray,
    target: np.ndarray,
    item_words: np.ndarray,
    item_rounds: np.ndarray,
) -> int:
    """Replay rounds ``base + 1 … base + size`` on the word columns ``cols``
    of the pre-batch state ``saved`` to stamp the items that completed in
    the batch; return the number of rounds replayed.

    ``known`` and ``target`` are the items of those columns that every row
    held before and after the batch, and ``item_words`` their item mask.  A
    round ORs whole rows word by word, so a column after the round depends
    only on the same column before it, and the replay reproduces the
    batch's columns exactly.  It runs on a column-major copy, so each
    round's AND-reduce reads contiguous memory, and stops once every item
    of ``target`` is stamped.
    """
    block = np.asfortranarray(saved[:, cols])
    for offset in range(1, size + 1):
        apply_round(block, compiled_at(base + offset))
        known = _scan_items(block, known, item_words, cols, item_rounds, base + offset)
        if np.array_equal(known, target):
            return offset
    return size


class VectorizedEngine(CheckpointingMixin):
    """Bulk OR kernel over a packed ``(n, ceil(n/64)) uint64`` matrix: one
    source-map gather-OR per round on cache-resident matrices, row-permuted
    gather/scatter above (see the module docstring for the two regimes).

    The permuted irregular-round gather path and the completion scan are
    blocked to the ``_TILE_TARGET_BYTES`` L2 budget (module docstring,
    "Tiling").  Checkpoint rounds are batch boundaries of the fast path
    (module docstring, "Checkpoint/resume").
    """

    name = "vectorized"
    engine_counters = ("batches", "replayed_rounds")
    stops_at_fixed_point = True

    def _execute(self, run: EngineRun):
        program = run.program
        graph = program.graph
        n = graph.n

        # Word width: enough for the n item bits, widened if a caller-supplied
        # initial state or target mask carries higher bits.
        words = _packed_width(n, run.target_mask, run.start)

        # A cache-resident matrix keeps public row order and runs the
        # source-map kernel; a larger one lives in an internal row order
        # chosen for memory locality.  Item bit columns keep the public
        # vertex indexing in both regimes.
        tile_rows = _tile_rows(words)
        knowledge = _pack_rows(run.start, words)
        if _uses_source_map(n, words):
            new_to_old = old_to_new = None
            apply_round = _apply_source_map
            compile_round = partial(_compile_source_map, graph)
        else:
            new_to_old, old_to_new = _row_permutation(graph, program.rounds)
            knowledge = knowledge[new_to_old]
            apply_round = partial(_apply_round, tile_rows=tile_rows)
            compile_round = partial(_compile_round, graph, old_to_new=old_to_new)
        mask = _pack_int(run.target_mask, words)

        compiled = compiled_slots(
            program.rounds, compile_round, run.slot_cache, anchored=old_to_new is not None
        )

        def compiled_at(round_number: int):
            return compiled[program.slot(round_number)]

        # Item completion is monotone like completion itself, so the batched
        # loop scans it once per batch; arrivals need every round.
        if run.arrivals is not None:
            # Each round can only change its receiver rows; resolve them
            # once per distinct compiled round (compiled_slots shares one
            # entry across a round's repeats, so key by the entry), not
            # once per executed round, as internal rows (to diff the
            # matrix) and public rows (to index the arrival matrix).
            distinct = {}
            for c in compiled:
                if id(c) not in distinct:
                    rows = np.unique(c[1])
                    public = rows if new_to_old is None else new_to_old[rows]
                    distinct[id(c)] = (rows, public) if rows.size else None
            receivers = [distinct[id(c)] for c in compiled]

            def receivers_at(round_number: int):
                return receivers[program.slot(round_number)]

            knowledge, executed, completion = self._run_tracked(
                run, apply_round, compiled_at, receivers_at, knowledge, mask,
                tile_rows=tile_rows, old_to_new=old_to_new,
            )
            counts = dict.fromkeys(self.engine_counters, 0)
        else:
            knowledge, executed, completion, counts = self._run_fast(
                run, apply_round, compiled_at, knowledge, mask,
                tile_rows=tile_rows, old_to_new=old_to_new,
            )
        return _public_rows(knowledge, old_to_new), executed, completion, counts

    # ------------------------------------------------------------------ #
    def _run_tracked(
        self,
        run: EngineRun,
        apply_round,
        compiled_at,
        receivers_at,
        knowledge: np.ndarray,
        mask: np.ndarray,
        *,
        tile_rows: int,
        old_to_new: np.ndarray | None,
    ) -> tuple[np.ndarray, int, int | None]:
        """Round-by-round loop recording arrivals, and item completion when
        that is tracked too."""
        program = run.program
        n = program.graph.n
        item_rounds = run.item_rounds
        arrivals = run.arrivals
        next_capture = run.next_capture
        if item_rounds is not None:
            item_words, all_cols, known_by_all = _item_scan_start(knowledge, n)

        completion: int | None = None
        executed = run.base
        for round_number in range(run.base + 1, program.max_rounds + 1):
            receivers = receivers_at(round_number)
            if receivers is not None:
                # Only this round's receiver rows can change: snapshot them,
                # apply, and record the freshly set bits (word scan +
                # expansion of the nonzero words only).
                rows, public = receivers
                before = knowledge[rows]
                apply_round(knowledge, compiled_at(round_number))
                fresh = knowledge[rows] & ~before
                hit, cols = _set_bit_positions(fresh)
                if hit.size:
                    vertex_items = cols < n
                    arrivals[public[hit[vertex_items]], cols[vertex_items]] = round_number
            executed = round_number
            if item_rounds is not None:
                known_by_all = _scan_items(
                    knowledge, known_by_all, item_words, all_cols, item_rounds, round_number
                )
            if _is_complete(knowledge, mask, tile_rows):
                completion = round_number
            if round_number == next_capture:
                next_capture = run.capture(
                    round_number, completion, _public_rows(knowledge, old_to_new)
                )
            if completion is not None:
                break
        return knowledge, executed, completion

    def _run_fast(
        self,
        run: EngineRun,
        apply_round,
        compiled_at,
        knowledge: np.ndarray,
        mask: np.ndarray,
        *,
        tile_rows: int,
        old_to_new: np.ndarray | None,
    ) -> tuple[np.ndarray, int, int | None, dict]:
        """Batched loop: completion checked per batch, replayed for exactness.

        Executes rounds in batches of doubling size (capped at
        ``_BATCH_CAP``).  When a batch ends with the target reached, the
        engine restores the saved pre-batch state and replays that batch
        round by round to find the exact completion round, so results are
        indistinguishable from the reference engine's.

        With item tracking on, the items every row holds are AND-reduced
        once per batch as well.  A batch that completes items but not the
        run is replayed on the word columns of those items only
        (:func:`_replay_item_columns`), then the run continues from the
        batch-end matrix; a completing batch stamps items during its
        full-width replay.

        Requested checkpoint rounds are forced batch boundaries: a batch is
        clipped so it never crosses the next wanted round, and the capture
        happens on the exact post-batch state — the doubling sequence is
        otherwise unchanged, so runs without checkpoints execute the exact
        same batches as before.

        A cyclic program stops at a fixed point: once consecutive batches
        that left the matrix equal to its pre-batch copy (:func:`_unchanged`)
        add up to a period, the loop returns without completion before the
        budget, and the run driver synthesizes the remaining rounds.
        """
        program = run.program
        max_rounds = program.max_rounds
        next_capture = run.next_capture
        item_rounds = run.item_rounds
        if item_rounds is not None:
            item_words, all_cols, known = _item_scan_start(knowledge, program.graph.n)
        executed = run.base
        batches = replayed = 0
        batch = 1
        # Rounds of the consecutive batches that left the matrix unchanged.
        idle = 0
        while executed < max_rounds:
            size = min(batch, max_rounds - executed, next_capture - executed)
            saved = knowledge.copy()
            batches += 1
            for offset in range(1, size + 1):
                apply_round(knowledge, compiled_at(executed + offset))
            if _is_complete(knowledge, mask, tile_rows):
                # Roll back and replay to pin down the exact round.
                knowledge = saved
                for offset in range(1, size + 1):
                    apply_round(knowledge, compiled_at(executed + offset))
                    replayed += 1
                    if item_rounds is not None:
                        known = _scan_items(
                            knowledge, known, item_words, all_cols, item_rounds,
                            executed + offset,
                        )
                    if _is_complete(knowledge, mask, tile_rows):
                        executed += offset
                        if executed == next_capture:
                            public = _public_rows(knowledge, old_to_new)
                            run.capture(executed, executed, public)
                        counts = {"batches": batches, "replayed_rounds": replayed}
                        return knowledge, executed, executed, counts
            if item_rounds is not None:
                now = np.bitwise_and.reduce(knowledge, axis=0) & item_words
                (cols,) = np.nonzero(now & ~known)
                if cols.size:
                    replayed += _replay_item_columns(
                        apply_round, compiled_at, saved, executed, size, cols,
                        known[cols], now[cols], item_words[cols], item_rounds,
                    )
                known = now
            executed += size
            if executed == next_capture:
                public = _public_rows(knowledge, old_to_new)
                next_capture = run.capture(executed, None, public)
            if program.cyclic:
                idle = idle + size if _unchanged(knowledge, saved, tile_rows) else 0
                if idle >= len(program.rounds):
                    # Every slot fired on this state without news: a fixed
                    # point, whose remaining rounds the run driver synthesizes.
                    break
            batch = min(batch * 2, _BATCH_CAP)
        counts = {"batches": batches, "replayed_rounds": replayed}
        return knowledge, executed, None, counts
