"""Packed-bitset utilities shared by the NumPy-backed engines.

Every packed engine (vectorized, frontier, and the batched
fault-injection kernel in :mod:`repro.faults.montecarlo`) stores knowledge
as an ``(n, W) uint64`` matrix in little-endian word order (bit ``j`` of a
row lives in word ``j // 64`` at position ``j % 64``), so that a row
reinterpreted as little-endian bytes equals the reference engine's Python
integer exactly.  The helpers here convert between that layout and Python
integers and expand packed words into bit coordinates,
:func:`arc_indices` is the one conversion of a round's arcs to row index
arrays, :class:`HeadGroups` / :func:`dense_apply_grouped` hold the one copy
of the head-grouped gather/``reduceat``/diff slot core (whose
snapshot-semantics subtleties — gather every tail row before any head row
is written — live here once), :func:`tail_filter_groups` groups the window
slots of the frontier engine by tail set, and
:func:`ap_segments` is the strided decomposition of matching rounds shared
by the vectorized engine and the fault kernel.  Any future packed-bitset
backend should build on these rather than reaching into another engine's
internals.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "WORD_BYTES",
    "WORD_SHIFT",
    "WORD_MASK",
    "BIT_LUT",
    "packed_width",
    "pack_int",
    "pack_rows",
    "unpack_rows",
    "popcount_total",
    "set_bit_positions",
    "expand_delta_words",
    "arc_indices",
    "HeadGroups",
    "compile_head_groups",
    "dense_apply_grouped",
    "tail_filter_groups",
    "ap_segments",
]

WORD_BITS = 64
WORD_BYTES = 8
WORD_SHIFT = 6  # log2(64): item -> packed word
WORD_MASK = 63

#: ``BIT_LUT[k] == 1 << k`` — bit masks without per-call shift dtype casts.
BIT_LUT = np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)


def packed_width(n: int, target: int, start: list[int]) -> int:
    """Words per row for ``n`` item bits plus any caller-supplied high bits.

    Every packed-bitset engine must agree on this width: the ``n``
    vertex-item bits always fit, and a custom initial state or target mask
    carrying higher bits widens the rows so no knowledge is truncated.
    """
    max_bits = max([n, target.bit_length(), *(v.bit_length() for v in start)])
    return max(1, (max_bits + WORD_BITS - 1) // WORD_BITS)


def pack_int(value: int, words: int) -> np.ndarray:
    """Pack a non-negative Python integer into ``words`` little-endian uint64s."""
    return np.frombuffer(value.to_bytes(words * WORD_BYTES, "little"), dtype="<u8").copy()


def pack_rows(values, words: int) -> np.ndarray:
    """Pack Python integers into a writable ``(len(values), words)`` uint64
    matrix, one row per value — the start state of every packed engine.

    One ``bytearray.join`` over the rows' little-endian encodings and one
    ``frombuffer`` over the result, instead of a :func:`pack_int` call (and
    its NumPy dispatch) per row.
    """
    width = words * WORD_BYTES
    data = bytearray().join(value.to_bytes(width, "little") for value in values)
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def unpack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """Reverse of :func:`pack_rows`, one Python integer per row."""
    rows, words = matrix.shape
    if words == 1:
        # A single uint64 word is the row's integer: NumPy converts it directly.
        return tuple(matrix[:, 0].astype(np.uint64, copy=False).tolist())
    data = np.ascontiguousarray(matrix, dtype="<u8").tobytes()
    stride = words * WORD_BYTES
    return tuple(
        int.from_bytes(data[i * stride : (i + 1) * stride], "little") for i in range(rows)
    )


def popcount_total(matrix: np.ndarray) -> int:
    """Total number of set bits in the knowledge matrix."""
    return int(np.bitwise_count(matrix).sum())


def set_bit_positions(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) coordinates of every set bit of a packed uint64 matrix.

    Scans at word granularity first and expands only the nonzero words, so
    the cost is O(rows·W) words + O(set words · 64) rather than allocating
    the full (rows, W·64) unpacked bit matrix.
    """
    rows_w, cols_w = np.nonzero(matrix)
    if rows_w.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    words = matrix[rows_w, cols_w]
    bits = (words[:, None] & BIT_LUT[None, :]) != 0
    flat = np.nonzero(bits)
    return rows_w[flat[0]], cols_w[flat[0]] * WORD_BITS + flat[1]


class HeadGroups:
    """Head-grouped layout of one round's arc list.

    The dense full-knowledge transmission path used by the frontier engine
    (and the batched fault-injection kernel) applies a round
    by gathering the pre-round tail rows, OR-ing them per receiving head,
    and diffing against the heads' current rows.  This object is the
    precompiled layout that makes that a handful of bulk NumPy calls:
    sources sorted by head so each head's tails form one contiguous group
    (a single ``bitwise_or.reduceat`` when heads repeat).

    Attributes
    ----------
    m:
        Number of arcs (0 for an empty round — every other attribute is
        ``None`` then).
    src_tails:
        Tail row indices in head-sorted arc order.
    uheads:
        The distinct head row indices, sorted.
    group_starts:
        Start offset of each head's contiguous tail group in ``src_tails``.
    heads_distinct:
        ``True`` when every head is distinct (any valid matching), in which
        case the ``reduceat`` aggregation is skipped entirely.
    arc_order:
        Permutation from the round's original arc order into the head-sorted
        order of ``src_tails`` (consumers that carry per-arc side data — the
        fault kernel's per-trial arc masks — apply it to stay aligned).
    """

    __slots__ = ("m", "src_tails", "uheads", "group_starts", "heads_distinct", "arc_order")

    def __init__(self, m, src_tails, uheads, group_starts, heads_distinct, arc_order):
        self.m = m
        self.src_tails = src_tails
        self.uheads = uheads
        self.group_starts = group_starts
        self.heads_distinct = heads_distinct
        self.arc_order = arc_order


def arc_indices(graph, arcs) -> tuple[np.ndarray, np.ndarray]:
    """Row indices ``(tails, heads)`` of a round's ``(tail, head)`` arcs, in
    arc order (``graph`` provides the vertex → row index mapping)."""
    index = graph.index
    m = len(arcs)
    tails = np.fromiter((index(t) for t, _ in arcs), dtype=np.int64, count=m)
    heads = np.fromiter((index(h) for _, h in arcs), dtype=np.int64, count=m)
    return tails, heads


def compile_head_groups(tails: np.ndarray, heads: np.ndarray) -> HeadGroups:
    """Precompile one round into the head-grouped dense layout.

    ``tails`` and ``heads`` are the round's row index arrays in arc order,
    as :func:`arc_indices` returns them.
    """
    m = tails.size
    if m == 0:
        return HeadGroups(0, None, None, None, True, None)
    order = np.argsort(heads, kind="stable")
    uheads, group_starts = np.unique(heads[order], return_index=True)
    return HeadGroups(m, tails[order], uheads, group_starts, uheads.size == m, order)


def dense_apply_grouped(
    knowledge: np.ndarray, groups: HeadGroups
) -> tuple[np.ndarray, np.ndarray] | None:
    """Full-knowledge transmission of one round, returning the word delta.

    Gathers the pre-round tail rows first (snapshot semantics hold even when
    a head also appears as a tail), ORs them per head, and writes back only
    the changed receiver rows.  Returns the delta in *row form* —
    ``(receivers, sub)`` where ``sub`` holds the freshly set bits of each
    changed receiver row — or ``None`` when the round learned nothing.
    """
    if groups.m == 0:
        return None
    src = knowledge.take(groups.src_tails, axis=0)
    if groups.heads_distinct:
        agg = src
    else:
        agg = np.bitwise_or.reduceat(src, groups.group_starts, axis=0)
    new = agg & ~knowledge[groups.uheads]
    changed = np.flatnonzero(new.any(axis=1))
    if changed.size == 0:
        return None
    sub = np.ascontiguousarray(new[changed])
    receivers = groups.uheads[changed]
    knowledge[receivers] |= sub
    return receivers, sub


def tail_filter_groups(tail_masks) -> list[tuple[np.ndarray | None, list[int]]]:
    """Group window slots by identical tail masks.

    ``tail_masks[k]`` is slot ``k``'s boolean is-a-tail row vector, or
    ``None`` for a slot that takes no window.  Returns ``[(mask, members),
    ...]`` with one entry per distinct mask, where ``mask`` is ``None`` when
    it is all-``True`` (every produced row is relevant — no filter needed).
    The frontier engine splits each round's delta at production time with
    one boolean gather per entry, not per slot, and appends the result to
    every member slot's pending window.
    """
    groups: list[tuple[np.ndarray | None, list[int]]] = []
    by_key: dict[bytes, int] = {}
    for k, mask in enumerate(tail_masks):
        if mask is None:
            continue
        key = mask.tobytes()
        gi = by_key.get(key)
        if gi is None:
            gi = by_key[key] = len(groups)
            groups.append((None if mask.all() else mask, []))
        groups[gi][1].append(k)
    return groups


def expand_delta_words(words: np.ndarray, word_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(element, item) coordinates of the set bits of a flat delta-word list.

    ``words`` is a 1-D uint64 array of (typically nonzero) delta words and
    ``word_cols`` their word-column indices.  Returns ``(elements, items)``
    where ``elements`` indexes back into ``words`` (so callers can map each
    item to its producing row) and ``items`` is the absolute bit position
    ``word_cols[element] * 64 + bit``.  This is how the vectorized engine
    lowers word-granular deltas to (vertex, item) events, only when an
    analysis actually needs them.
    """
    bits = (words[:, None] & BIT_LUT[None, :]) != 0
    elements, offsets = np.nonzero(bits)
    return elements, word_cols[elements] * WORD_BITS + offsets


#: Most arithmetic-progression runs :func:`ap_segments` decomposes a round
#: into before declaring it irregular.
_SEGMENT_LIMIT = 32


def ap_segments(
    tails: np.ndarray, heads: np.ndarray
) -> list[tuple[slice | np.ndarray, slice]] | None:
    """Decompose a head-sorted round into a few arithmetic-progression runs.

    Rounds produced by edge colourings of regular topologies (cycles, paths,
    grids) activate arcs at fixed strides, except for a handful of wrap-around
    arcs.  Each returned ``(tail_part, head_slice)`` segment is applied as a
    strided-view ufunc (``tail_part`` degrades to an index array only when the
    run's tails are not an increasing progression), which runs at streaming
    memory bandwidth instead of paying gather/scatter costs.  Returns ``None``
    when the round is irregular (more than ``_SEGMENT_LIMIT`` runs), in which
    case the caller falls back to the generic gather path.  Segments may share
    a boundary arc; re-applying an arc is a no-op because set union is
    idempotent and the round's rows are vertex-disjoint.
    """
    m = len(heads)
    if m == 1:
        return [(tails.copy(), slice(int(heads[0]), int(heads[0]) + 1))]
    dh = np.diff(heads)
    dt = np.diff(tails)
    run_starts_arr = np.flatnonzero((dh[1:] != dh[:-1]) | (dt[1:] != dt[:-1])) + 1
    if run_starts_arr.size + 1 > _SEGMENT_LIMIT:
        return None
    run_starts = [0, *run_starts_arr.tolist()]
    run_ends = [*(s - 1 for s in run_starts_arr.tolist()), m - 2]
    segments: list[tuple[slice | np.ndarray, slice]] = []
    for first_diff, last_diff in zip(run_starts, run_ends):
        first_arc, last_arc = first_diff, last_diff + 1
        step_h = int(dh[first_diff])
        step_t = int(dt[first_diff])
        head_slice = slice(int(heads[first_arc]), int(heads[last_arc]) + 1, step_h)
        if step_t > 0:
            tail_part: slice | np.ndarray = slice(
                int(tails[first_arc]), int(tails[last_arc]) + 1, step_t
            )
        else:
            tail_part = tails[first_arc : last_arc + 1].copy()
        segments.append((tail_part, head_slice))
    return segments
