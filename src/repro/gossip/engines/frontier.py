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
fires exactly every ``s`` rounds, so the engine keeps a ring of the last
``s`` per-round delta chunks; the window a slot sees at round ``i`` is the
deltas of rounds ``i-s … i-1`` — precisely what its tails learned since the
slot's previous firing.  Inductively the head already holds everything the
tail knew before that window (delivered at the previous firing), so
offering only window pairs reproduces full-knowledge transmission
bit-for-bit.  The first firing of each slot (rounds ``1 … s``), and every
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
By default the window a slot consumes is not reassembled from a ring of the
last ``s`` delta chunks and then re-filtered by the slot's tail test — that
rescan touches every window pair once per slot firing, and on schedules
whose rounds activate disjoint tail sets (grids, colourings) most of those
pairs are routed nowhere.  Instead each round's delta is split *at
production time*: slots are grouped by identical tail masks (one boolean
gather per distinct mask, not per slot; an all-``True`` mask skips the
filter entirely), and the filtered chunk is appended to every member slot's
pending list.  A firing slot concatenates and clears its own pending list —
pairs already known to be its tails, so the sparse apply skips the keep
filter (``prefiltered=True``).  Pending lists are consumed at *every*
firing, including the dense first firings, whose full-knowledge
transmission supersedes anything pending.  Constructing the engine with
``presplit_windows=False`` restores the legacy ring-rescan path
(bit-identical results; kept for differential tests and benchmarks).

When a full period passes without any new pair the knowledge state is a
fixed point (every future window is empty), so the engine stops early and
synthesizes the remaining no-op rounds: ``rounds_executed``,
``coverage_history`` and every other field still match the reference engine
exactly.

Checkpoint/resume
-----------------
The engine implements the checkpoint/resume protocol
(:mod:`repro.gossip.engines.checkpoint`).  A resumed run at round ``r``
is treated exactly like a program start: the first firing of each slot
after ``r`` (rounds ``r+1 … r+s``) takes the dense full-knowledge path —
there is no pre-resume delta window to build on — and the ring thereafter
holds only post-resume deltas, so the window induction never references
history the resumed run has not seen.  That is what makes resume bit-exact
for *any* program suffix, which incremental schedule search relies on.
All incremental counters are recomputed from the snapshot (the union of
knowledge bits is time-invariant, so derived constants like the
reachable-bit set match the cold run's).

``run_checkpointed`` additionally accepts ``slot_cache``, a caller-owned
``dict`` memoizing compiled round slots by their arc tuple.  Slot
compilation dominates per-candidate cost on long periods, so a search walk
passing one shared cache per (graph, engine) pays it only for rounds it
has never seen.  The cache must not be shared across graphs.
"""

from __future__ import annotations

import time
from collections import deque
from functools import reduce
from operator import or_

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI/dev envs
    np = None  # type: ignore[assignment]

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines.base import (
    ArrivalRounds,
    RoundProgram,
    SimulationResult,
    check_initial,
    full_mask,
    initial_knowledge,
)
from repro.gossip.engines.checkpoint import (
    CheckpointedRun,
    CheckpointingMixin,
    EngineState,
    check_resume_state,
    encode_arrivals,
    normalize_checkpoint_rounds,
)
from repro.gossip.engines._bitops import (
    BIT_LUT as _BIT_LUT,
    WORD_MASK as _WORD_MASK,
    WORD_SHIFT as _WORD_SHIFT,
    compile_head_groups as _compile_head_groups,
    dense_apply_grouped as _dense_apply_grouped,
    numpy_available,
    pack_int as _pack_int,
    pack_rows as _pack_rows,
    packed_width as _packed_width,
    set_bit_positions as _set_bit_positions,
    unpack_rows as _unpack_rows,
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
    m = len(arcs)
    slot.m = m
    # Dense layout: the shared head-grouped gather/reduceat/diff core.
    slot.groups = _compile_head_groups(graph, arcs)
    if m == 0:
        return slot
    index = graph.index
    tails = np.fromiter((index(t) for t, _ in arcs), dtype=np.int64, count=m)
    heads = np.fromiter((index(h) for _, h in arcs), dtype=np.int64, count=m)

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
    prefiltered: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Frontier transmission for one slot, returning the delta pairs.

    ``window_v``/``window_j`` are the (vertex, item) pairs learned in the
    last ``s`` rounds; pairs are routed through the slot's arcs and only
    bits the head does not already hold survive.  ``prefiltered`` promises
    every ``window_v`` entry is a tail of this slot (the pre-split pending
    path), so the keep filter is skipped.
    """
    if slot.m == 0 or window_v.size == 0:
        return _empty_delta()
    if slot.single:
        h = slot.route[window_v]
        if prefiltered:
            j = window_j
        else:
            keep = h >= 0
            h = h[keep]
            j = window_j[keep]
            if h.size == 0:
                return _empty_delta()
    else:
        if prefiltered:
            v = window_v
            j = window_j
        else:
            keep = slot.is_tail[window_v]
            v = window_v[keep]
            if v.size == 0:
                return _empty_delta()
            j = window_j[keep]
        pos = np.searchsorted(slot.utails, v)
        counts = slot.t_counts[pos]
        starts = slot.t_starts[pos]
        total = int(counts.sum())
        out_starts = np.cumsum(counts) - counts
        idx_arcs = np.repeat(starts - out_starts, counts) + np.arange(total, dtype=np.int64)
        h = slot.h_by_t[idx_arcs]
        j = np.repeat(j, counts)

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


def _tail_filter_groups(slots, n):
    """Group slot indices by identical tail masks for pre-split distribution.

    Returns ``[(mask, members), ...]`` where ``mask`` is the boolean
    is-a-tail vector shared by every slot index in ``members``, or ``None``
    when that mask is all-``True`` (every produced pair is relevant — no
    filter needed).  Grouping means each round's delta pays one boolean
    gather per *distinct* mask instead of one per slot.
    """
    groups: list[tuple[np.ndarray | None, list[int]]] = []
    by_key: dict[bytes, int] = {}
    for k, slot in enumerate(slots):
        if slot.m == 0:
            mask = np.zeros(n, dtype=bool)
        elif slot.single:
            mask = slot.route >= 0
        else:
            mask = slot.is_tail
        key = mask.tobytes()
        gi = by_key.get(key)
        if gi is None:
            gi = by_key[key] = len(groups)
            groups.append((None if mask.all() else mask, []))
        groups[gi][1].append(k)
    return groups


#: Compiled-slot caches are cleared past this size so a long search walk
#: cannot grow one without bound (distinct rounds accumulate with every
#: insert/mutate move).
_SLOT_CACHE_LIMIT = 4096


def _compiled_slots(graph, rounds, n, slot_cache):
    """Per-round compiled slots, memoized in ``slot_cache`` when given.

    The cache is keyed by round *identity* — ``make_round`` interns rounds,
    so one search walk sees the same tuple objects over and over, and the
    identity key avoids re-hashing a whole arc tuple per slot per run.  The
    entry keeps a strong reference to its round, which is what makes the
    ``id`` stable for the entry's lifetime.  The dict is opaque to callers.
    """
    if slot_cache is None:
        return [_compile_slot(graph, arcs, n) for arcs in rounds]
    slots = []
    for arcs in rounds:
        entry = slot_cache.get(id(arcs))
        if entry is None:
            if len(slot_cache) >= _SLOT_CACHE_LIMIT:
                slot_cache.clear()
            entry = slot_cache[id(arcs)] = (arcs, _compile_slot(graph, arcs, n))
        slots.append(entry[1])
    return slots


class FrontierEngine(CheckpointingMixin):
    """Sparse frontier propagation over the packed ``uint64`` bitset matrix.

    Fastest backend for *periodic* schedules on sparse topologies whenever
    per-round tracking (item completion, arrival matrices) is on, and for
    thin-knowledge runs such as single-item arrival analyses; see the module
    and :mod:`repro.gossip.engines` docstrings for the crossover against the
    dense vectorized kernel.  Supports the checkpoint/resume protocol (see
    the module docstring).
    """

    name = "frontier"

    def __init__(self, *, presplit_windows: bool = True) -> None:
        #: Distribute each round's delta into per-slot pending lists at
        #: production time (see the module docstring).  ``False`` keeps the
        #: legacy ring-of-deltas window rescan; both paths are bit-exact.
        self.presplit_windows = presplit_windows

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
        if not numpy_available():  # pragma: no cover - numpy is a hard dep today
            raise SimulationError("the frontier engine requires NumPy >= 2.0")
        _rec = telemetry.get_recorder()
        _telem = _rec.enabled
        _t0 = time.perf_counter_ns() if _telem else 0
        _sparse_fired = _dense_fired = _routed = 0
        _early_exit = _synthesized = 0

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
        coverage = sum(int(v).bit_count() for v in start)

        item_rounds: np.ndarray | None = None
        item_count: np.ndarray | None = None
        arrivals: np.ndarray | None = None
        if track_item_completion or track_arrivals:
            init_rows, init_cols = _set_bit_positions(knowledge)
            init_vertex_items = init_cols < n
            if track_item_completion:
                item_count = np.bincount(init_cols[init_vertex_items], minlength=n)
                item_rounds = np.full(n, -1, dtype=np.int64)
                if state is not None:
                    for j, r in enumerate(state.item_completion):
                        if r is not None:
                            item_rounds[j] = r
                else:
                    item_rounds[item_count == n] = 0
            if track_arrivals:
                arrivals = np.full((n, n), -1, dtype=np.int64)
                if state is not None:
                    for v, row in enumerate(state.arrivals):
                        for j, r in enumerate(row):
                            if r is not None:
                                arrivals[v, j] = r
                else:
                    arrivals[
                        init_rows[init_vertex_items], init_cols[init_vertex_items]
                    ] = 0

        history: list[int] = []
        if track_history:
            if state is not None:
                history = list(state.coverage_history)
            else:
                history.append(coverage)

        slots = _compiled_slots(graph, program.rounds, n, slot_cache)
        s = len(slots)
        cyclic = program.cyclic

        wanted = normalize_checkpoint_rounds(checkpoint_rounds, base)
        captured: list[EngineState] = []

        def capture(round_number: int, completion: int | None) -> None:
            captured.append(
                EngineState(
                    round=round_number,
                    knowledge=_unpack_rows(knowledge),
                    completion_round=completion,
                    target_mask=full,
                    track_history=track_history,
                    track_item_completion=track_item_completion,
                    track_arrivals=track_arrivals,
                    coverage_history=(
                        tuple(history[: round_number + 1]) if track_history else None
                    ),
                    item_completion=None
                    if item_rounds is None
                    else tuple(
                        int(x) if x >= 0 else None for x in item_rounds.tolist()
                    ),
                    arrivals=None
                    if arrivals is None
                    else encode_arrivals(arrivals.tolist()),
                    engine_name=self.name,
                )
            )

        if state is not None:
            completion: int | None = state.completion_round
        else:
            completion = 0 if mask_total == target_total else None
        ci = 0
        if ci < len(wanted) and wanted[ci] == base:
            capture(base, completion)
            ci += 1

        executed = base
        _coverage0 = coverage
        if completion is None:
            # Window bookkeeping for cyclic programs — one of two layouts.
            # Pre-split (default): per-slot pending lists filled at delta
            # production time, consumed (and cleared) at every firing.
            # Legacy: a ring of the last s per-round delta chunks the firing
            # slot re-filters.  After a resume both start empty, so the
            # first s post-resume rounds take the dense path (see the module
            # docstring's resume section).
            presplit = self.presplit_windows and cyclic and s > 0
            ring: deque[tuple[np.ndarray, np.ndarray]] | None = (
                deque(maxlen=s) if cyclic and not presplit else None
            )
            if presplit:
                filter_groups = _tail_filter_groups(slots, n)
                pending_v: list[list[np.ndarray]] = [[] for _ in range(s)]
                pending_j: list[list[np.ndarray]] = [[] for _ in range(s)]
            idle = 0
            for i in range(base + 1, program.max_rounds + 1):
                if s == 0:
                    h_new, j_new = _empty_delta()
                elif cyclic and i > base + s:
                    k = (i - 1) % s
                    if presplit:
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
                        if _telem:
                            _sparse_fired += 1
                            _routed += window_v.size
                        h_new, j_new = _sparse_apply(
                            flat_knowledge, words, slots[k],
                            window_v, window_j, bit_capacity,
                            prefiltered=True,
                        )
                    else:
                        parts = [c for c in ring if c[0].size]
                        if len(parts) == 1:
                            window_v, window_j = parts[0]
                        elif parts:
                            window_v = np.concatenate([c[0] for c in parts])
                            window_j = np.concatenate([c[1] for c in parts])
                        else:
                            window_v, window_j = _empty_delta()
                        if _telem:
                            _sparse_fired += 1
                            _routed += window_v.size
                        h_new, j_new = _sparse_apply(
                            flat_knowledge, words, slots[k],
                            window_v, window_j, bit_capacity,
                        )
                else:
                    # First firing of this slot (or a finite program, where
                    # every firing is the first): no previous delivery to
                    # build on, transmit full knowledge.  The full matrix
                    # supersedes anything pending for the slot — consume it.
                    slot = slots[(i - 1) % s] if cyclic else slots[i - 1]
                    if presplit:
                        k = (i - 1) % s
                        pending_v[k] = []
                        pending_j[k] = []
                    if _telem:
                        _dense_fired += 1
                    h_new, j_new = _dense_apply(knowledge, slot)
                executed = i

                fresh = h_new.size
                if fresh:
                    idle = 0
                    coverage += fresh
                    if mask_covers_all:
                        mask_total += fresh
                    elif target_pop:
                        in_mask = (mask_words[j_new >> _WORD_SHIFT] & _BIT_LUT[j_new & _WORD_MASK]) != 0
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

                if presplit:
                    if fresh:
                        # Split this round's delta by destination slot now, so
                        # firings never rescan pairs routed nowhere.  One
                        # boolean gather per distinct tail mask; chunks are
                        # shared by reference across a group's members.
                        for mask, members in filter_groups:
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
                elif ring is not None:
                    ring.append((h_new, j_new))
                if track_history:
                    history.append(coverage)
                if ci < len(wanted) and wanted[ci] == i:
                    capture(i, completion)
                    ci += 1
                if completion is not None:
                    break
                if cyclic and idle >= s and i < program.max_rounds:
                    # A full period without news: every future window is
                    # empty, so knowledge is a fixed point.  Synthesize the
                    # remaining no-op rounds instead of executing them; the
                    # result is indistinguishable from running them out —
                    # including the checkpoint states, which are captured
                    # from the (frozen) matrix for every remaining wanted
                    # round inside the budget.
                    if _telem:
                        _early_exit = i
                        _synthesized = program.max_rounds - i
                    if track_history:
                        history.extend([coverage] * (program.max_rounds - i))
                    executed = program.max_rounds
                    while ci < len(wanted) and wanted[ci] <= program.max_rounds:
                        capture(wanted[ci], None)
                        ci += 1
                    break

        run_stats = None
        if _telem:
            counts = {
                "runs": 1,
                "rounds_simulated": executed - base - _synthesized,
                "rounds_synthesized": _synthesized,
                "slots_fired_sparse": _sparse_fired,
                "slots_fired_dense": _dense_fired,
                "window_elements_routed": _routed,
                "pairs_delivered": coverage - _coverage0,
                "early_exit_round": _early_exit,
            }
            _rec.counters("engine.frontier", counts)
            _hist = telemetry.Histogram.of(counts["rounds_simulated"])
            _rec.histogram("engine.frontier.rounds", _hist)
            telemetry.record_span(
                "engine.run", _t0, engine=self.name, n=n, resumed_round=base
            )
            run_stats = telemetry.RunStats.single("engine.frontier", counts)
            run_stats.add_histogram("engine.frontier.rounds", _hist)

        result = SimulationResult(
            graph=graph,
            rounds_executed=executed,
            completion_round=completion,
            knowledge=_unpack_rows(knowledge),
            coverage_history=tuple(history),
            item_completion_rounds=None
            if item_rounds is None
            else tuple(int(x) if x >= 0 else None for x in item_rounds.tolist()),
            arrival_rounds=None if arrivals is None else ArrivalRounds(arrivals),
            engine_name=self.name,
            run_stats=run_stats,
        )
        return CheckpointedRun(result, tuple(captured))
