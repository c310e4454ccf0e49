"""Hybrid active-word engine: frontier-guided word lists over the dense matrix.

Why a fourth backend
--------------------
The vectorized kernel re-streams the whole packed knowledge matrix every
round, so on sparse topologies it keeps moving words the receivers already
hold; the frontier engine routes individual ``(vertex, item)`` pairs, whose
per-pair bookkeeping is pure overhead on plain completion runs where most of
a round's news lands in a handful of ``uint64`` words.  This engine sits
between the two: it keeps the packed ``(n, W) uint64`` knowledge matrix of
the vectorized kernel but, per round slot, routes only the *active words* —
the word-granular lift of the frontier engine's news window: the
``(row, word)`` coordinates whose bits changed since that slot's arcs last
fired — through precompiled gather/scatter-OR paths.  A changed word is
forwarded as its full current 64-bit value, so one routed element can carry
up to 64 items' worth of news, which is what pushes frontier-style wins down
to untracked completion runs: measured from n ≈ 4096 on paths and n ≈ 8192
on cycles and elongated grids, while every tracked workload wins outright
(see the crossover table in :mod:`repro.gossip.engines`).

Item-bit locality permutation
-----------------------------
How many words a round's news touches depends entirely on how a vertex's
known-item set maps onto bit columns.  Under systolic gossip knowledge
spreads along graph geodesics, so a vertex's known set is a metric ball —
contiguous in any breadth-first vertex order, but shattered into many
fragments under an arbitrary labeling (a 16×256 grid in row-major order
splits each ball into ~16 intervals, one per grid row, multiplying the
active-word count by the same factor).  The engine therefore permutes the
*item bits* internally into BFS order before packing: rows keep the public
indexing (arc routing is untouched), bit column ``j`` moves to
``pos[j]``, and results are unpermuted on the way out.  The permutation is
pure relabeling — bit-exactness is unaffected — and it is skipped when BFS
order is the identity (paths) or when no slot can take the sparse path.

Active-word windows, pre-split at production time
-------------------------------------------------
For a cyclic program with period ``s`` each round slot fires every ``s``
rounds and must forward everything its tails learned since its previous
firing.  Rescanning a ring of the last ``s`` per-round deltas at every
firing would pay an ``s×`` multiplier, so, like the frontier engine, this
engine *pre-splits at production time*: the moment a round produces its
delta (the flat word coordinates it changed, one deduplicated key array —
``int32`` whenever ``n·W < 2³¹``, halving the window sort/concat
bandwidth), the delta is filtered down to each slot's *tail rows* — slots
sharing a tail set (the two directions of one colour class, say) share one
filter pass and the resulting array — and appended by reference to the
slot's *pending window*.  A firing consumes exactly its own pending list: one
concatenation plus one sort-based dedup collapses the duplicate word
coordinates that accumulate across a window (the same boundary word
typically changes in several consecutive rounds), which is what keeps the
incremental counters below exact.

Correctness mirrors the frontier argument, lifted to words: inductively a
head already holds its tail's row as of the slot's previous firing, so
words untouched since then need not be resent, and resending a *changed*
word's full current value is exactly what dense transmission would deliver
for that word.  The first firing of each slot (rounds ``1 … s``), every
round of a finite program, and any slot whose arcs do not form an injective
tail→head map (invalid matchings) use a dense full-knowledge path.

Sparse-path plumbing
--------------------
Three layout decisions keep the steady-state round at a handful of NumPy
calls over cache-resident structures:

* **arithmetic word routing** — a firing turns its active words into
  destinations with the ``(n,)`` row-level route (``dst = key +
  (route[row] - row)·W``) instead of a flat ``(n·W,)`` word-route table:
  the row route stays hot in cache where a per-slot multi-megabyte table
  would thrash it, and the tail-filtered windows guarantee every active
  row is routed;
* **production-side tail filtering** — windows only ever contain words a
  slot can forward, so no mask/compress step runs at firing time and
  window sorts work on the smallest possible arrays;
* **key-free dense accounting** — on plain full-target runs the dense path
  never lowers its word delta to flat coordinates unless a sparse window
  has to be fed: gained bits are counted directly on the changed-row block.
  Coordinates are extracted only when a pending window, a subset target
  mask or a tracked analysis actually needs them.

Dense-path fallback
-------------------
When a firing's pending window (pre-dedup) exceeds
``dense_threshold · n · W`` elements the gather/scatter path would touch
more memory than simply re-streaming the matrix, so the engine falls back
to the dense path for that firing (the pending list is consumed either
way, so the window invariant is preserved).  ``dense_threshold=0.0``
therefore degenerates to an always-dense engine — a metamorphic anchor
used by the test suite — while ``dense_threshold=1.0`` keeps every firing
sparse as long as its window is no larger than the matrix itself.

Every derived quantity — coverage, completion (via an exact incremental
counter, so plain runs never rescan the matrix), per-item completion and
the first-arrival matrix — is maintained from the word deltas, expanding
words to (vertex, item) events only when an analysis asks for item
granularity.  When a full period passes without any new word the state is a
fixed point and the loop stops; the run driver synthesizes the remaining
rounds bit-exactly, as for the frontier engine.

Checkpoint/resume
-----------------
As in the frontier engine, a resumed run at round ``r`` is treated exactly
like a program start: every slot's first post-resume firing (rounds
``r+1 … r+s``) takes the dense full-knowledge path, and pending windows
hold only post-resume deltas, so the word-window induction never
references history the resumed run has not seen — resume is bit-exact for
*any* program suffix.  Captures and results restore the canonical
(unpermuted) bit order first, so states are portable across engines
regardless of the internal BFS bit permutation; all incremental counters
are recomputed from the snapshot.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI/dev envs
    np = None  # type: ignore[assignment]

from repro.exceptions import SimulationError
from repro.gossip.engines._bitops import (
    arc_indices as _arc_indices,
    compile_head_groups as _compile_head_groups,
    dense_apply_grouped as _dense_apply_grouped,
    expand_delta_words as _expand_delta_words,
    pack_int as _pack_int,
    pack_rows as _pack_rows,
    packed_width as _packed_width,
    set_bit_positions as _set_bit_positions,
    tail_filter_groups as _tail_filter_groups,
)
from repro.gossip.engines.checkpoint import (
    CheckpointingMixin,
    EngineRun,
    compiled_slots,
)
from repro.gossip.engines.layout import (
    bfs_item_positions as _bfs_item_positions,
    gather_bit_columns as _gather_bit_columns,
)
from repro.topologies.base import Digraph

__all__ = ["HybridEngine"]

#: Pre-dedup window fraction of the word matrix above which a sparse firing
#: falls back to the dense path.  A routed word costs ~4 index/value
#: elements of memory traffic against the dense path's ~3 streamed words
#: per arc-covered word, but the dense path touches every covered word
#: while the sparse path touches only the news; measured on the bench
#: topologies the sparse path keeps winning well past 10% active, so the
#: default sits at a quarter.
_DEFAULT_DENSE_THRESHOLD = 0.25


class _Slot:
    """Precompiled per-round-slot structure.

    ``groups`` (the shared head-grouped
    :class:`~repro.gossip.engines._bitops.HeadGroups`) drives the dense
    full-knowledge path, as in the frontier engine; ``route`` is the
    vertex-level routing table ``tail row -> head row`` (or ``-1``) from
    which ``run`` derives the flat word-level route, used to resolve a
    firing's gather destinations.  ``route`` exists only when the arc set is
    an injective tail→head map — true for every valid matching (including
    the full-duplex opposite-pair relaxation) — which is what licenses the
    sparse path's single unbuffered scatter.
    """

    __slots__ = ("m", "groups", "route")


def _compile_slot(graph: Digraph, arcs, n: int) -> _Slot:
    slot = _Slot()
    tails, heads = _arc_indices(graph, arcs)
    m = slot.m = tails.size
    slot.route = None
    slot.groups = _compile_head_groups(tails, heads)
    if m == 0:
        return slot
    if slot.groups.heads_distinct and np.unique(tails).size == m:
        slot.route = np.full(n, -1, dtype=np.int64)
        slot.route[tails] = heads
    return slot


def _dedup_sorted(parts: list[np.ndarray]) -> np.ndarray:
    """Sorted union of unique-within-themselves int64 key arrays.

    One quicksort plus a neighbour mask; an order of magnitude faster than
    ``np.unique``'s hash path on the few-thousand-element windows the hot
    loop produces every round.
    """
    merged = np.concatenate(parts)
    merged.sort()
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


class HybridEngine(CheckpointingMixin):
    """Frontier-guided active-word lists over the packed dense matrix.

    ``dense_threshold`` is the pre-dedup window fraction of the ``n·W`` word
    matrix above which a firing takes the dense full-knowledge path instead
    of the active-word gather/scatter (``0.0`` = always dense, ``1.0`` =
    sparse up to a full-matrix-sized window); see the module docstring for
    the crossover rationale.  Supports the checkpoint/resume protocol.
    """

    name = "hybrid"
    engine_counters = (
        "slots_fired_sparse",
        "slots_fired_dense",
        "dense_fallbacks",
        "window_elements_routed",
    )
    uses_numpy = True
    stops_at_fixed_point = True

    def __init__(self, *, dense_threshold: float = _DEFAULT_DENSE_THRESHOLD) -> None:
        if not 0.0 <= dense_threshold <= 1.0:
            raise SimulationError(
                f"dense_threshold must be within [0, 1], got {dense_threshold!r}"
            )
        self._dense_threshold = dense_threshold

    def _execute(self, run: EngineRun):
        telem = run.counting
        sparse_fired = dense_fired = dense_fallbacks = routed = 0

        program = run.program
        graph = program.graph
        n = graph.n
        start = run.start
        full = run.target_mask
        words = _packed_width(n, full, start)
        total_words = n * words
        # Pending-window keys are flat word indices in [0, n·W); store them
        # as int32 whenever that range fits, halving the concat/sort
        # bandwidth of the window dedup (they are upcast once per firing,
        # after the dedup, for the routing arithmetic and flat indexing).
        key_dtype = np.int32 if total_words < 2**31 else np.int64
        compile_slot = partial(_compile_slot, graph, n=n)
        slots = compiled_slots(program.rounds, compile_slot, run.slot_cache)
        s = len(slots)
        cyclic = program.cyclic
        dense_cutoff = self._dense_threshold * total_words
        # A slot is sparse-capable when its arcs form an injective tail→head
        # map (route table exists), the program is cyclic (so firings after
        # the first have a previous delivery to build on), and the threshold
        # admits a sparse path at all.
        sparse_ok = [
            cyclic and slot.route is not None and self._dense_threshold > 0.0
            for slot in slots
        ]
        any_sparse = any(sparse_ok)

        # Item-bit locality permutation: only worth computing when some slot
        # can actually take the sparse path, and skipped when BFS order is
        # the identity (already-local labelings, e.g. paths).
        pos = _bfs_item_positions(graph) if any_sparse else None
        inv_pos: np.ndarray | None = None
        if pos is not None:
            # Inverse bit map, doing double duty: the column gather map for
            # the forward permutation, and the permuted-position -> original
            # item translation for item-granular analyses (identity above n,
            # the permutation is closed on [0, n)).
            inv_pos = np.arange(words * 64, dtype=np.int64)
            inv_pos[pos] = np.arange(n, dtype=np.int64)

        if run.identity_start:
            # The paper's initial state is the identity matrix: place each
            # vertex's own bit directly (in permuted position when relabeled).
            knowledge = np.zeros((n, words), dtype=np.uint64)
            bit = pos if pos is not None else np.arange(n, dtype=np.int64)
            knowledge[np.arange(n), bit // 64] = np.uint64(1) << (bit % 64).astype(
                np.uint64
            )
        else:
            knowledge = _pack_rows(start, words)
            if pos is not None:
                knowledge[:] = _gather_bit_columns(knowledge, inv_pos)
        flat = knowledge.reshape(-1)
        mask_words = _pack_int(full, words)
        if pos is not None:
            mask_words = _gather_bit_columns(mask_words[None, :], inv_pos)[0]

        # Canonical (unpermuted) bit columns for captures and the result.
        out_colmap: np.ndarray | None = None
        if pos is not None:
            out_colmap = np.concatenate([pos, np.arange(n, words * 64, dtype=np.int64)])

        def public(matrix: np.ndarray) -> np.ndarray:
            return matrix if pos is None else _gather_bit_columns(matrix, out_colmap)

        # Exact incremental counters, as in the frontier engine: completion
        # and coverage are maintained from the word deltas alone, so plain
        # completion runs never rescan the matrix.  All popcount-based
        # totals are permutation-invariant, so they come from the original
        # integers.  When the target mask covers every reachable bit each
        # fresh bit counts toward completion and the per-word mask test
        # disappears; likewise the j < n item filter drops out when no
        # initial state carries high bits.
        possible_bits = reduce(or_, start, 0)
        mask_covers_all = (possible_bits & ~full) == 0
        items_only = possible_bits < (1 << n)
        target_pop = full.bit_count()
        target_total = n * target_pop
        mask_total = sum(int(v & full).bit_count() for v in start)
        coverage = sum(int(v).bit_count() for v in start)

        history = run.history if run.track_history else None
        item_rounds = run.item_rounds
        arrivals = run.arrivals
        item_count: np.ndarray | None = None
        if item_rounds is not None:
            _, init_cols = _set_bit_positions(knowledge)
            init_cols = init_cols[init_cols < n]
            if inv_pos is not None:
                init_cols = inv_pos[init_cols]
            item_count = np.bincount(init_cols, minlength=n)

        track_items = item_count is not None or arrivals is not None
        # Flat (key, word) coordinates are only materialised on dense-path
        # firings when something consumes them: a pending sparse window, a
        # subset target mask, or an item-granular analysis.
        need_keys = any_sparse or track_items or (not mask_covers_all and target_pop > 0)

        next_capture = run.next_capture
        completion: int | None = None
        executed = run.base

        # Tail masks let production pre-filter each delta down to the words
        # a slot can actually forward (its tails' rows) — the (n,)-sized
        # masks and row routes stay cache-resident, unlike a flat n·W
        # word-route table.  Slots sharing the same tail set (e.g. the two
        # directions of one colour class) share one filter per round.
        filter_groups = _tail_filter_groups(
            [slot.route >= 0 if ok else None for slot, ok in zip(slots, sparse_ok)]
        )
        # The pre-split pending windows: per sparse-capable slot, the
        # delta-key arrays produced since its last firing (appended by
        # reference at production time, pre-filtered to the slot's tails)
        # plus their total element count.
        pending: list[list[np.ndarray]] = [[] for _ in slots]
        pending_raw = [0] * s
        idle = 0
        for i in range(run.base + 1, program.max_rounds + 1):
            keys: np.ndarray | None = None
            key_rows: np.ndarray | None = None
            new_words: np.ndarray | None = None
            sub: np.ndarray | None = None
            quiet = s == 0
            if not quiet:
                k = (i - 1) % s if cyclic else i - 1
                slot = slots[k]
                dense = True
                if sparse_ok[k]:
                    window = pending[k]
                    raw = pending_raw[k]
                    pending[k] = []
                    pending_raw[k] = 0
                    if i <= run.base + s:
                        # First firing: dense transmission covers
                        # whatever was produced during rounds 1 … i-1.
                        pass
                    elif raw == 0:
                        # Empty window: the slot's tails learned nothing
                        # since its previous firing — the firing is a
                        # no-op.
                        dense = False
                        quiet = True
                    elif raw <= dense_cutoff:
                        dense = False
                        if telem:
                            sparse_fired += 1
                            routed += raw
                        # The window: every word changed since this
                        # slot's previous firing.  Entries are unique
                        # within each produced delta, so one sort-based
                        # dedup collapses the cross-round repeats and
                        # keeps the incremental counters exact.
                        if len(window) == 1:
                            act = window[0]
                        else:
                            act = _dedup_sorted(window)
                        # Window keys may be int32 (sort bandwidth);
                        # upcast the deduped survivors once so the
                        # routing arithmetic below cannot overflow and
                        # flat indexing takes the fast int64 path.
                        act = act.astype(np.int64, copy=False)
                        # Destinations arithmetically from the row-level
                        # route (entries are pre-filtered to this slot's
                        # tails, so every row is routed): word col is
                        # preserved, only the row part moves.
                        act_rows = act // words
                        head_rows = slot.route[act_rows]
                        dst = act + (head_rows - act_rows) * words
                        vals = flat[act]
                        old = flat[dst]
                        new = vals & ~old
                        nz = np.flatnonzero(new)
                        if nz.size == 0:
                            quiet = True
                        else:
                            # route is injective and act is unique, so
                            # dst has no duplicates: plain fancy-index
                            # OR-assign is exact, and every gather above
                            # happened before this single write
                            # (snapshot semantics, full-duplex
                            # included).
                            keys = dst[nz]
                            key_rows = head_rows[nz]
                            new_words = new[nz]
                            flat[keys] = (old | vals)[nz]
                    elif telem and raw:
                        # Over-threshold window → dense fallback below
                        # (counted separately from first firings).
                        dense_fallbacks += 1
                if dense:
                    # First firing of this slot, an irregular (non-
                    # injective) slot, an over-threshold window, or any
                    # round of a finite program: dense full-knowledge
                    # transmission, word delta kept in row form.
                    if telem:
                        dense_fired += 1
                    out = _dense_apply_grouped(knowledge, slot.groups)
                    if out is None:
                        quiet = True
                    else:
                        receivers, sub = out
                        if need_keys:
                            elements, word_cols = np.nonzero(sub)
                            keys = receivers[elements] * words + word_cols
                            new_words = sub[elements, word_cols]
            executed = i

            if not quiet:
                idle = 0
                gained = int(
                    np.bitwise_count(
                        new_words if keys is not None else sub
                    ).sum()
                )
                coverage += gained
                cols = None
                if mask_covers_all:
                    mask_total += gained
                elif target_pop:
                    cols = keys % words
                    mask_total += int(
                        np.bitwise_count(new_words & mask_words[cols]).sum()
                    )
                if mask_total == target_total:
                    completion = i
                if track_items:
                    if cols is None:
                        cols = keys % words
                    elements, j = _expand_delta_words(new_words, cols)
                    if key_rows is None:
                        key_rows = keys // words
                    hv = key_rows[elements]
                    if not items_only:
                        vertex_items = j < n
                        hv = hv[vertex_items]
                        j = j[vertex_items]
                    if inv_pos is not None:
                        j = inv_pos[j]
                    if item_count is not None and j.size:
                        item_count += np.bincount(j, minlength=n)
                        item_rounds[j[item_count[j] == n]] = i
                    if arrivals is not None:
                        arrivals[hv, j] = i
                if completion is None and keys is not None:
                    # Production-time pre-split: hand this round's delta
                    # to every sparse-capable slot's pending window by
                    # reference, pre-filtered to the slot's tail rows —
                    # no flat-table scatter, no rescan.  Each distinct
                    # tail set is filtered once; its slots share the
                    # resulting array.
                    if key_rows is None:
                        key_rows = keys // words
                    pending_keys = keys.astype(key_dtype, copy=False)
                    for mask, members in filter_groups:
                        if mask is None:
                            part = pending_keys
                        else:
                            part = pending_keys[mask[key_rows]]
                        if part.size:
                            size = part.size
                            for k2 in members:
                                pending[k2].append(part)
                                pending_raw[k2] += size
            else:
                idle += 1

            if history is not None:
                history.append(coverage)
            if i == next_capture:
                next_capture = run.capture(i, completion, public(knowledge))
            if completion is not None or (cyclic and idle >= s):
                # Complete, or a full period without news: every pending
                # window is empty, so knowledge is a fixed point and the run
                # driver synthesizes the remaining no-op rounds.
                break
        return public(knowledge), executed, completion, {
            "slots_fired_sparse": sparse_fired,
            "slots_fired_dense": dense_fired,
            "dense_fallbacks": dense_fallbacks,
            "window_elements_routed": routed,
        }
