"""Shared memory-layout transforms and cheap workload statistics.

The engines agree on the *logical* encoding — knowledge is an ``(n, W)``
packed ``uint64`` matrix whose row ``i``, read as a little-endian integer,
equals the reference engine's Python integer — but each backend is free to
reorder rows or bit columns internally for locality, as long as results are
translated back to the public indexing on the way out.  The two transforms
that matter were grown independently inside two engines and are factored
here so every backend (including future GPU/sharded ones) draws from one
implementation:

* :func:`bfs_item_positions` — the hybrid engine's *item-bit* permutation.
  Under systolic gossip a vertex's known set is a metric ball, contiguous
  in breadth-first vertex order; permuting bit columns into BFS order keeps
  those balls word-contiguous, which is what makes word-granular frontier
  windows thin.  Rows (and arc routing) are untouched.
* :func:`row_locality_permutation` — the vectorized engine's *row*
  permutation for matrices too large for its source-map kernel.  Grouping
  the non-heads of the first non-empty round before its heads turns the
  matching rounds of cycle/path-like colourings into operations on two
  contiguous row blocks that run at streaming memory bandwidth.  Item
  columns are untouched.

Both are pure relabelings: bit-exactness is unaffected, and the
registry-wide differential suites certify as much.

The statistics helpers at the bottom are the inputs to the workload-aware
``"auto"`` decision function in :mod:`repro.gossip.engines` — deliberately
cheap (O(1) from stored counts) so engine resolution stays negligible next
to even a single simulated round.
"""

from __future__ import annotations

from collections import deque

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI/dev envs
    np = None  # type: ignore[assignment]

from repro.topologies.base import Digraph

__all__ = [
    "bfs_item_positions",
    "gather_bit_columns",
    "row_locality_permutation",
    "mean_arc_degree",
    "packed_words",
    "packed_matrix_bytes",
]


def bfs_item_positions(graph: Digraph) -> "np.ndarray | None":
    """``pos[j]`` = BFS-order bit position of item ``j``, or ``None`` if BFS
    order is the identity (nothing to permute).

    Breadth-first over the *underlying undirected* structure (knowledge can
    flow along an arc in either schedule direction across a period), seeded
    from every component so disconnected graphs get a total order.
    """
    n = graph.n
    adjacency: list[list[int]] = [[] for _ in range(n)]
    index = graph.index
    for tail, head in graph.arcs:
        t, h = index(tail), index(head)
        adjacency[t].append(h)
        adjacency[h].append(t)
    pos = np.empty(n, dtype=np.int64)
    visited = bytearray(n)
    counter = 0
    identity = True
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = 1
        queue = deque((root,))
        while queue:
            v = queue.popleft()
            if v != counter:
                identity = False
            pos[v] = counter
            counter += 1
            for w in adjacency[v]:
                if not visited[w]:
                    visited[w] = 1
                    queue.append(w)
    return None if identity else pos


def gather_bit_columns(rows: "np.ndarray", colmap: "np.ndarray") -> "np.ndarray":
    """Reorder the bit columns of packed ``rows``: output bit ``c`` is input
    bit ``colmap[c]``.  ``np.take`` rather than fancy indexing — an order of
    magnitude faster on the (n, n·W) unpacked bit matrix."""
    bits = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=1, bitorder="little"
    )
    out = np.take(bits, colmap, axis=1)
    return np.packbits(out, axis=1, bitorder="little").view(np.uint64)


def row_locality_permutation(
    graph: Digraph, rounds
) -> "tuple[np.ndarray, np.ndarray]":
    """Internal row order making the first round's receivers contiguous.

    An engine is free to store vertex rows in any order (item *columns* are
    untouched, so masks, popcounts and per-item tracking are unaffected).
    Grouping the non-heads of the first non-empty round before its heads
    turns the matching rounds of cycle/path-like colourings into operations
    on two contiguous row blocks, which run at streaming memory bandwidth
    instead of paying a ~5× strided-access penalty.

    Returns ``(new_to_old, old_to_new)`` index arrays.
    """
    n = graph.n
    is_head = np.zeros(n, dtype=bool)
    for arcs in rounds:
        if arcs:
            for _, h in arcs:
                is_head[graph.index(h)] = True
            break
    new_to_old = np.argsort(is_head, kind="stable")  # non-heads first, both in index order
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(n, dtype=np.int64)
    return new_to_old, old_to_new


# --------------------------------------------------------------------- #
# Workload statistics for engine selection.  Pure-Python O(1) helpers —
# usable (and used) even when NumPy is absent.


def mean_arc_degree(graph: Digraph) -> float:
    """Arcs per vertex (``m / n``; both directions of an undirected edge
    count, matching the crossover table's convention: a cycle is 2.0, a
    16×256 grid ≈ 3.87)."""
    return graph.m / graph.n if graph.n else 0.0


def packed_words(n: int) -> int:
    """Words per packed knowledge row for the standard n-item state."""
    return (n + 63) // 64 if n else 1


def packed_matrix_bytes(n: int) -> int:
    """Bytes of the packed ``(n, W)`` uint64 knowledge matrix — the quantity
    the plain-run cache crossover is expressed in."""
    return n * packed_words(n) * 8


def workload_summary(graph: Digraph) -> dict[str, float | int]:
    """The O(1) statistics the ``auto`` decision function consults, in one
    dict — also what the telemetry ``engine.resolve`` event attaches so a
    trace records *which* statistic crossed *which* threshold."""
    n = graph.n
    return {
        "n": n,
        "m": graph.m,
        "mean_arc_degree": mean_arc_degree(graph),
        "packed_words": packed_words(n),
        "packed_matrix_bytes": packed_matrix_bytes(n),
    }
