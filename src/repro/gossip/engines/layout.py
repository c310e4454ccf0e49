"""Shared memory-layout transform and workload statistics.

The engines agree on the *logical* encoding — knowledge is an ``(n, W)``
packed ``uint64`` matrix whose row ``i``, read as a little-endian integer,
equals the reference engine's Python integer — but each backend is free to
reorder rows internally for locality, as long as results are translated
back to the public indexing on the way out.

:func:`row_locality_permutation` is the vectorized engine's *row*
permutation for matrices too large for its source-map kernel.  Grouping the
non-heads of the first non-empty round before its heads turns the matching
rounds of cycle/path-like colourings into operations on two contiguous row
blocks that run at streaming memory bandwidth.  Item columns are untouched.
It is a pure relabeling: bit-exactness is unaffected, and the
registry-wide differential suites certify as much.

The statistics helpers at the bottom describe a workload for the telemetry
``engine.resolve`` event.  They cost O(1) from stored counts.  The one
statistic the ``"auto"`` decision function reads, the BFS depth of an
arrival-tracked program's graph, is computed in :mod:`repro.gossip.engines`
itself, and only on that branch.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI/dev envs
    np = None  # type: ignore[assignment]

from repro.topologies.base import Digraph

__all__ = [
    "row_locality_permutation",
    "packed_words",
    "workload_summary",
]


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
# Workload statistics for the ``engine.resolve`` event.  Pure-Python O(1)
# helpers — usable (and used) even when NumPy is absent.


def packed_words(n: int) -> int:
    """Words per packed knowledge row for the standard n-item state."""
    return (n + 63) // 64 if n else 1


def workload_summary(graph: Digraph) -> dict[str, int]:
    """The O(1) size statistics the telemetry ``engine.resolve`` event
    attaches to a workload-aware pick."""
    n = graph.n
    return {"n": n, "m": graph.m, "packed_words": packed_words(n)}
