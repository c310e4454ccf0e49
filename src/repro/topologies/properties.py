"""Structural properties of digraphs: distances, degrees, connectivity.

Distances are directed (shortest dipath lengths); for symmetric digraphs they
coincide with the usual undirected graph distances.  The implementations are
plain breadth-first searches over the index-based adjacency, vectorised with
numpy only where it pays off — instance sizes in this library are at most a
few hundred thousand vertices.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.exceptions import TopologyError
from repro.topologies.base import Digraph, Vertex

__all__ = [
    "distances_from",
    "all_pairs_distances",
    "eccentricity",
    "diameter",
    "set_distance",
    "out_degrees",
    "in_degrees",
    "max_degree",
    "degree_parameter",
    "is_symmetric",
    "is_strongly_connected",
    "is_regular",
]

#: Sentinel used for "unreachable" in integer distance arrays.
UNREACHABLE = -1


def distances_from(g: Digraph, source: Vertex) -> dict[Vertex, int]:
    """Directed BFS distances from ``source`` to every reachable vertex."""
    if not g.has_vertex(source):
        raise TopologyError(f"unknown source vertex {source!r}")
    dist: dict[Vertex, int] = {source: 0}
    queue: deque[Vertex] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.out_neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def _index_adjacency(g: Digraph) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for tail, head in g.arcs:
        adjacency[g.index(tail)].append(g.index(head))
    return adjacency


def all_pairs_distances(g: Digraph) -> np.ndarray:
    """Dense ``(n, n)`` matrix of directed BFS distances (``-1`` if unreachable)."""
    adjacency = _index_adjacency(g)
    n = g.n
    result = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for source in range(n):
        dist = result[source]
        dist[source] = 0
        queue: deque[int] = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in adjacency[u]:
                if dist[v] == UNREACHABLE:
                    dist[v] = du + 1
                    queue.append(v)
    return result


def eccentricity(g: Digraph, source: Vertex) -> int:
    """Maximum directed distance from ``source``; raises if some vertex is unreachable."""
    dist = distances_from(g, source)
    if len(dist) != g.n:
        raise TopologyError(
            f"vertex {source!r} does not reach every vertex; eccentricity undefined"
        )
    return max(dist.values())


def diameter(g: Digraph) -> int:
    """Directed diameter; raises if the digraph is not strongly connected."""
    best = 0
    for v in g.vertices:
        best = max(best, eccentricity(g, v))
    return best


def set_distance(g: Digraph, sources: Iterable[Vertex], targets: Iterable[Vertex]) -> int:
    """``min_{x ∈ sources, y ∈ targets} dist(x, y)`` — the quantity in Definition 3.5.

    Computed with a multi-source BFS from ``sources``; returns ``-1`` when no
    target is reachable from any source.
    """
    source_list = list(sources)
    target_set = set(targets)
    if not source_list or not target_set:
        raise TopologyError("set_distance needs non-empty source and target sets")
    for v in source_list:
        if not g.has_vertex(v):
            raise TopologyError(f"unknown source vertex {v!r}")
    for v in target_set:
        if not g.has_vertex(v):
            raise TopologyError(f"unknown target vertex {v!r}")
    dist: dict[Vertex, int] = {v: 0 for v in source_list}
    queue: deque[Vertex] = deque(source_list)
    if target_set & set(source_list):
        return 0
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.out_neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                if v in target_set:
                    return du + 1
                queue.append(v)
    return UNREACHABLE


def out_degrees(g: Digraph) -> dict[Vertex, int]:
    """Out-degree of every vertex."""
    return {v: g.out_degree(v) for v in g.vertices}


def in_degrees(g: Digraph) -> dict[Vertex, int]:
    """In-degree of every vertex."""
    return {v: g.in_degree(v) for v in g.vertices}


def max_degree(g: Digraph) -> int:
    """Maximum of in- and out-degrees over all vertices."""
    return max(max(g.out_degree(v), g.in_degree(v)) for v in g.vertices)


def degree_parameter(g: Digraph) -> int:
    """The parameter ``d`` of the broadcast lower bounds [22, 2] quoted in Section 1.

    For undirected (symmetric) digraphs this is the maximum degree minus one;
    for genuinely directed digraphs it is the maximum out-degree.
    """
    if g.is_symmetric():
        return max(g.out_degree(v) for v in g.vertices) - 1
    return max(g.out_degree(v) for v in g.vertices)


def is_symmetric(g: Digraph) -> bool:
    """``True`` iff every arc has its opposite arc."""
    return g.is_symmetric()


def is_strongly_connected(g: Digraph) -> bool:
    """``True`` iff every vertex reaches every other vertex."""
    first = g.vertices[0]
    if len(distances_from(g, first)) != g.n:
        return False
    return len(distances_from(g.reverse(), first)) == g.n


def is_regular(g: Digraph) -> bool:
    """``True`` iff all in-degrees and all out-degrees are equal."""
    outs = {g.out_degree(v) for v in g.vertices}
    ins = {g.in_degree(v) for v in g.vertices}
    return len(outs) == 1 and len(ins) == 1
