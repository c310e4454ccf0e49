"""Frontier-propagation engine: transmit only newly-learned items.

Why a third backend
-------------------
The vectorized kernel re-transmits every sender's *entire* knowledge row on
every activation, so on sparse topologies (cycles, paths, grids, trees) most
of its memory traffic moves bits the receiver already has.  This engine
keeps the exact packed ``(n, W) uint64`` knowledge matrix but drives each
round from the *frontier*: the sparse list of ``(vertex, item)`` pairs
learned recently, in the spirit of frontier BFS and delta-stepping kernels.
Every derived quantity — coverage history, completion, per-item completion,
the full first-arrival matrix — is maintained *incrementally* from the
delta pairs, so tracked analyses cost O(frontier) per round instead of the
dense kernel's O(n·W) rescans; that is where this engine wins hardest (see
the crossover notes in :mod:`repro.gossip.engines`).

Correctness of frontier-only transmission
-----------------------------------------
Sending only last round's news over an arc would be wrong in general: an arc
that fires every ``s`` rounds must forward everything its tail learned since
the arc *last* fired.  For a cyclic program with period ``s`` each round slot
fires exactly every ``s`` rounds, so the window a slot sees at round ``i``
is the deltas of rounds ``i-s … i-1`` — precisely what its tails learned
since the slot's previous firing.  Inductively the head already holds
everything the tail knew before that window (delivered at the previous
firing), so offering only window pairs reproduces full-knowledge
transmission bit-for-bit.  The first firing of each slot (rounds ``1 … s``), and every
round of a finite program, has no previous firing, so those rounds use a
dense full-knowledge path that also extracts the round's delta.

Execution
---------
Per sparse round: route the window pairs through the slot's tail→head arcs
(one table lookup for matchings, a CSR expansion for irregular rounds),
drop pairs the head already knows (a packed-bit gather against the flat
knowledge array), and scatter-OR the survivors.  Each ``(vertex, item)``
pair is learned once and scanned at most ``s`` times, so total work is
O(s · n²) pair operations regardless of how many rounds the schedule needs.

Pre-split pending windows
-------------------------
A slot's window is not reassembled from the last ``s`` delta chunks and
re-filtered by the slot's tail test at firing time — that rescan would
touch every window pair once per slot firing, and on schedules whose
rounds activate disjoint tail sets (grids, colourings) most of those pairs
are routed nowhere.  Instead each round's delta is split *at
production time*: slots are grouped by identical tail masks (one boolean
gather per distinct mask, not per slot; an all-``True`` mask skips the
filter entirely), and the filtered chunk is appended to every member slot's
pending list.  A firing slot concatenates and clears its own pending list —
pairs already known to be its tails, so the sparse apply needs no keep
filter.  A slot takes no chunks before its dense first firing since
``run.base``: that firing transmits full knowledge, so a chunk pending for
it would be discarded unread.

When a full period passes without any new pair the knowledge state is a
fixed point (every future window is empty), so the loop stops early and
the run driver synthesizes the remaining no-op rounds:
``rounds_executed``, ``coverage_history`` and every other field still
match the reference engine exactly.

Checkpoint/resume
-----------------
A resumed run at round ``r`` is treated exactly like a program start: the
first firing of each slot after ``r`` (rounds ``r+1 … r+s``) takes the
dense full-knowledge path — there is no pre-resume delta window to build
on — and the pending lists thereafter hold only post-resume deltas, so the
window induction never references history the resumed run has not seen.
That is what makes resume bit-exact for *any* program suffix, which
incremental schedule search relies on.  All incremental counters are
recomputed from the snapshot (the union of knowledge bits is
time-invariant, so derived constants like the reachable-bit set match the
cold run's).
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_

import numpy as np

from repro.gossip.engines.checkpoint import (
    CheckpointingMixin,
    EngineRun,
    compiled_slots,
)
from repro.gossip.engines._bitops import (
    BIT_LUT as _BIT_LUT,
    WORD_MASK as _WORD_MASK,
    WORD_SHIFT as _WORD_SHIFT,
    arc_indices as _arc_indices,
    compile_head_groups as _compile_head_groups,
    dense_apply_grouped as _dense_apply_grouped,
    pack_int as _pack_int,
    pack_rows as _pack_rows,
    packed_width as _packed_width,
    set_bit_positions as _set_bit_positions,
    tail_filter_groups as _tail_filter_groups,
)
from repro.topologies.base import Digraph

__all__ = ["FrontierEngine"]


class _Slot:
    """Precompiled per-round-slot structure (one per base round).

    Holds both the dense-apply layout (the shared head-grouped
    :class:`~repro.gossip.engines._bitops.HeadGroups`, for full knowledge
    transmission on a slot's first firing) and the sparse-apply layout (a
    tail→head routing table for matchings, a CSR expansion otherwise) used
    to route frontier pairs.
    """

    __slots__ = (
        "m",
        "groups",
        "single",
        "route",
        "is_tail",
        "utails",
        "t_starts",
        "t_counts",
        "h_by_t",
    )


def _compile_slot(graph: Digraph, arcs, n: int) -> _Slot:
    slot = _Slot()
    tails, heads = _arc_indices(graph, arcs)
    m = slot.m = tails.size
    # Dense layout: the shared head-grouped gather/reduceat/diff core.
    slot.groups = _compile_head_groups(tails, heads)
    if m == 0:
        return slot

    # Sparse layout.  For a matching (each tail sends to one head) a single
    # routing table folds the is-a-tail test and the head lookup into one
    # gather: route[v] is the head of v's arc, or -1 when v sends nothing.
    torder = np.argsort(tails, kind="stable")
    t_sorted = tails[torder]
    slot.h_by_t = heads[torder]
    slot.utails, t_starts = np.unique(t_sorted, return_index=True)
    slot.single = slot.utails.size == m
    if slot.single:
        slot.route = np.full(n, -1, dtype=np.int64)
        slot.route[t_sorted] = slot.h_by_t
    else:
        slot.is_tail = np.zeros(n, dtype=bool)
        slot.is_tail[tails] = True
        slot.t_starts = t_starts
        slot.t_counts = np.diff(np.append(t_starts, m))
    return slot


def _empty_delta() -> tuple[np.ndarray, np.ndarray]:
    e = np.empty(0, dtype=np.int64)
    return e, e


def _dense_apply(knowledge: np.ndarray, slot: _Slot) -> tuple[np.ndarray, np.ndarray]:
    """Full-knowledge transmission for one slot, returning the delta pairs.

    The shared head-grouped core (:func:`dense_apply_grouped`) produces the
    word delta in row form; this engine lowers it to ``(head, item)`` pairs,
    its native event granularity.
    """
    out = _dense_apply_grouped(knowledge, slot.groups)
    if out is None:
        return _empty_delta()
    receivers, sub = out
    rows, items = _set_bit_positions(sub)
    return receivers[rows], items


def _sparse_apply(
    flat_knowledge: np.ndarray,
    words: int,
    slot: _Slot,
    window_v: np.ndarray,
    window_j: np.ndarray,
    bit_capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Frontier transmission for one slot, returning the delta pairs.

    ``window_v``/``window_j`` are the slot's pending (vertex, item) pairs:
    those learned since its previous firing, pre-filtered at production
    time to the slot's tails.  Pairs are routed through the slot's arcs and
    only bits the head does not already hold survive.
    """
    if slot.m == 0 or window_v.size == 0:
        return _empty_delta()
    if slot.single:
        h = slot.route[window_v]
        j = window_j
    else:
        pos = np.searchsorted(slot.utails, window_v)
        counts = slot.t_counts[pos]
        starts = slot.t_starts[pos]
        total = int(counts.sum())
        out_starts = np.cumsum(counts) - counts
        idx_arcs = np.repeat(starts - out_starts, counts) + np.arange(total, dtype=np.int64)
        h = slot.h_by_t[idx_arcs]
        j = np.repeat(window_j, counts)

    idx = h * words + (j >> _WORD_SHIFT)
    bit = _BIT_LUT[j & _WORD_MASK]
    miss = (flat_knowledge[idx] & bit) == 0
    if not miss.any():
        return _empty_delta()
    h_new = h[miss]
    j_new = j[miss]
    if not slot.groups.heads_distinct:
        # Two arcs into the same head can deliver the same item in one
        # round; deduplicate so the incremental counters stay exact.  (With
        # distinct heads the pairs are unique by construction: each head has
        # one tail, and a (tail, item) pair occurs once in the window.)
        keys, first = np.unique(h_new * bit_capacity + j_new, return_index=True)
        h_new = keys // bit_capacity
        j_new = keys - h_new * bit_capacity
        miss_idx = idx[miss][first]
        miss_bit = bit[miss][first]
    else:
        miss_idx = idx[miss]
        miss_bit = bit[miss]
    np.bitwise_or.at(flat_knowledge, miss_idx, miss_bit)
    return h_new, j_new


def _tail_mask(slot: _Slot) -> np.ndarray | None:
    """The slot's boolean is-a-tail row vector (``None`` for an empty slot)."""
    if slot.m == 0:
        return None
    return slot.route >= 0 if slot.single else slot.is_tail


class FrontierEngine(CheckpointingMixin):
    """Sparse frontier propagation over the packed ``uint64`` bitset matrix.

    Fastest backend for arrival-tracked *periodic* schedules on deep
    topologies (BFS depth at least √n: cycles, paths, grids, tori); see the
    module and :mod:`repro.gossip.engines` docstrings for the crossover
    against the dense vectorized kernel.  Supports the checkpoint/resume
    protocol (see the module docstring).
    """

    name = "frontier"
    engine_counters = (
        "slots_fired_sparse",
        "slots_fired_dense",
        "window_elements_routed",
        "pairs_delivered",
    )
    uses_numpy = True
    stops_at_fixed_point = True

    def _execute(self, run: EngineRun):
        telem = run.counting
        sparse_fired = dense_fired = routed = 0

        program = run.program
        graph = program.graph
        n = graph.n
        start = run.start
        full = run.target_mask
        words = _packed_width(n, full, start)
        bit_capacity = words * 64
        knowledge = _pack_rows(start, words)
        flat_knowledge = knowledge.reshape(-1)
        mask_words = _pack_int(full, words)

        # Exact incremental counters: every quantity below is updated from
        # the per-round delta pairs alone, never by rescanning the matrix.
        # Bits can never appear out of thin air, so when the target mask
        # covers every bit present in the initial state each new pair counts
        # toward completion and the per-pair mask test disappears; the same
        # argument lets the j < n item filters drop out in the common case.
        # On resume these constants are recomputed from the snapshot; the
        # bit union is time-invariant, so they match the cold run's.
        possible_bits = reduce(or_, start, 0)
        mask_covers_all = (possible_bits & ~full) == 0
        items_only = possible_bits < (1 << n)
        target_pop = full.bit_count()
        target_total = n * target_pop
        mask_total = sum(int(v & full).bit_count() for v in start)
        coverage = start_coverage = sum(int(v).bit_count() for v in start)

        history = run.history if run.track_history else None
        item_rounds = run.item_rounds
        arrivals = run.arrivals
        item_count: np.ndarray | None = None
        if item_rounds is not None:
            _, init_cols = _set_bit_positions(knowledge)
            item_count = np.bincount(init_cols[init_cols < n], minlength=n)

        compile_slot = partial(_compile_slot, graph, n=n)
        slots = compiled_slots(program.rounds, compile_slot, run.slot_cache)
        s = len(slots)
        cyclic = program.cyclic
        next_capture = run.next_capture
        completion: int | None = None
        executed = run.base

        # Window bookkeeping for cyclic programs: per-slot pending lists
        # filled at delta production time, consumed (and cleared) at every
        # sparse firing.  After a resume they start empty, so the first s
        # post-resume rounds take the dense path (see the module docstring's
        # resume section).  Only slots that have fired since ``run.base``
        # take chunks (``live``: group -> those members): a first firing is
        # dense and would never read them.
        windowed = cyclic and s > 0
        if windowed:
            filter_groups = _tail_filter_groups([_tail_mask(slot) for slot in slots])
            group_of = {k: g for g, (_, members) in enumerate(filter_groups) for k in members}
            live: dict[int, list[int]] = {}
            pending_v: list[list[np.ndarray]] = [[] for _ in range(s)]
            pending_j: list[list[np.ndarray]] = [[] for _ in range(s)]
        idle = 0
        for i in range(run.base + 1, program.max_rounds + 1):
            if s == 0:
                h_new, j_new = _empty_delta()
            elif cyclic and i > run.base + s:
                k = (i - 1) % s
                parts_v = pending_v[k]
                if len(parts_v) == 1:
                    window_v, window_j = parts_v[0], pending_j[k][0]
                elif parts_v:
                    window_v = np.concatenate(parts_v)
                    window_j = np.concatenate(pending_j[k])
                else:
                    window_v, window_j = _empty_delta()
                pending_v[k] = []
                pending_j[k] = []
                if telem:
                    sparse_fired += 1
                    routed += window_v.size
                h_new, j_new = _sparse_apply(
                    flat_knowledge, words, slots[k],
                    window_v, window_j, bit_capacity,
                )
            else:
                # First firing of this slot (or a finite program, where
                # every firing is the first): no previous delivery to
                # build on, transmit full knowledge.  Nothing is pending
                # for the slot yet; from now on it takes chunks.
                slot = slots[(i - 1) % s] if cyclic else slots[i - 1]
                if windowed and (k := (i - 1) % s) in group_of:
                    live.setdefault(group_of[k], []).append(k)
                if telem:
                    dense_fired += 1
                h_new, j_new = _dense_apply(knowledge, slot)
            executed = i

            fresh = h_new.size
            if fresh:
                idle = 0
                coverage += fresh
                if mask_covers_all:
                    mask_total += fresh
                elif target_pop:
                    in_mask = (
                        mask_words[j_new >> _WORD_SHIFT] & _BIT_LUT[j_new & _WORD_MASK]
                    ) != 0
                    mask_total += int(np.count_nonzero(in_mask))
                if mask_total == target_total:
                    completion = i
                if item_count is not None or arrivals is not None:
                    if items_only:
                        hm, jm = h_new, j_new
                    else:
                        vertex_items = j_new < n
                        hm = h_new[vertex_items]
                        jm = j_new[vertex_items]
                    if item_count is not None and jm.size:
                        item_count += np.bincount(jm, minlength=n)
                        item_rounds[jm[item_count[jm] == n]] = i
                    if arrivals is not None:
                        arrivals[hm, jm] = i
            else:
                idle += 1

            if windowed and fresh:
                # Split this round's delta by destination slot now, so
                # firings never rescan pairs routed nowhere.  One
                # boolean gather per distinct tail mask; chunks are
                # shared by reference across a group's live members.
                for g, members in live.items():
                    mask = filter_groups[g][0]
                    if mask is None:
                        fv, fj = h_new, j_new
                    else:
                        keep = mask[h_new]
                        fv = h_new[keep]
                        if fv.size == 0:
                            continue
                        fj = j_new[keep]
                    for k in members:
                        pending_v[k].append(fv)
                        pending_j[k].append(fj)
            if history is not None:
                history.append(coverage)
            if i == next_capture:
                next_capture = run.capture(i, completion, knowledge)
            if completion is not None or (cyclic and idle >= s):
                # Complete, or a full period without news: every future
                # window is empty, so knowledge is a fixed point and the run
                # driver synthesizes the remaining no-op rounds.
                break
        return knowledge, executed, completion, {
            "slots_fired_sparse": sparse_fired,
            "slots_fired_dense": dense_fired,
            "window_elements_routed": routed,
            "pairs_delivered": coverage - start_coverage,
        }
