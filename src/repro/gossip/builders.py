"""Builders that turn a topology into systolic rounds.

The historical route to systolic ("periodic") gossip, due to Liestman and
Richards [20] and formalised in [8, 18], is an *edge colouring*: colour the
edges of the underlying graph properly, then cyclically activate one colour
class per round.  This module provides

* a deterministic greedy proper edge colouring (Δ+1 colours at most on the
  graphs used here — we do not need optimality, only validity),
* converters from a colouring into half-duplex rounds (each colour yields two
  rounds, one per direction) and into full-duplex rounds (each colour yields
  one round containing both directions), and
* a seeded random systolic schedule generator, useful for stress-testing the
  delay-digraph machinery on irregular protocols.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.exceptions import ProtocolError
from repro.gossip.model import Mode, Round, SystolicSchedule, make_round
from repro.topologies.base import Arc, Digraph, Vertex

__all__ = [
    "greedy_edge_coloring",
    "edge_coloring_rounds",
    "half_duplex_rounds_from_coloring",
    "full_duplex_rounds_from_coloring",
    "random_systolic_schedule",
]


def greedy_edge_coloring(graph: Digraph) -> dict[frozenset[Vertex], int]:
    """Proper edge colouring of the undirected edges of a symmetric digraph.

    Edges are processed in a deterministic order (sorted by repr) and each
    receives the smallest colour not used by an incident edge.  The result
    maps each undirected edge (a two-element frozenset) to a colour index.
    """
    if not graph.is_symmetric():
        raise ProtocolError("edge colouring requires a symmetric digraph (an undirected graph)")
    edges = sorted(graph.undirected_edges(), key=lambda e: sorted(map(repr, e)))
    incident_colors: dict[Vertex, set[int]] = {v: set() for v in graph.vertices}
    coloring: dict[frozenset[Vertex], int] = {}
    for edge in edges:
        u, v = tuple(edge)
        used = incident_colors[u] | incident_colors[v]
        color = 0
        while color in used:
            color += 1
        coloring[edge] = color
        incident_colors[u].add(color)
        incident_colors[v].add(color)
    return coloring


def _color_classes(coloring: dict[frozenset[Vertex], int]) -> list[list[frozenset[Vertex]]]:
    if not coloring:
        return []
    num_colors = max(coloring.values()) + 1
    classes: list[list[frozenset[Vertex]]] = [[] for _ in range(num_colors)]
    for edge, color in coloring.items():
        classes[color].append(edge)
    for cls in classes:
        cls.sort(key=lambda e: sorted(map(repr, e)))
    return classes


def half_duplex_rounds_from_coloring(
    graph: Digraph, coloring: dict[frozenset[Vertex], int]
) -> list[Round]:
    """Two half-duplex rounds per colour class, one for each arc direction.

    Within a colour class the edges form a matching, so orienting them all
    the same way still yields a matching of arcs; cycling through the colours
    twice (once per direction) produces a ``2·(#colours)``-round period that
    activates every arc of the symmetric digraph.
    """
    rounds: list[Round] = []
    for cls in _color_classes(coloring):
        forward: list[Arc] = []
        backward: list[Arc] = []
        for edge in cls:
            u, v = sorted(edge, key=repr)
            forward.append((u, v))
            backward.append((v, u))
        rounds.append(make_round(forward))
        rounds.append(make_round(backward))
    return rounds


def full_duplex_rounds_from_coloring(
    graph: Digraph, coloring: dict[frozenset[Vertex], int]
) -> list[Round]:
    """One full-duplex round per colour class (both arc directions active)."""
    rounds: list[Round] = []
    for cls in _color_classes(coloring):
        arcs: list[Arc] = []
        for edge in cls:
            u, v = sorted(edge, key=repr)
            arcs.append((u, v))
            arcs.append((v, u))
        rounds.append(make_round(arcs))
    return rounds


def edge_coloring_rounds(graph: Digraph, mode: Mode) -> list[Round]:
    """Convenience wrapper: colour the graph and convert to rounds for ``mode``."""
    coloring = greedy_edge_coloring(graph)
    if mode is Mode.FULL_DUPLEX:
        return full_duplex_rounds_from_coloring(graph, coloring)
    if mode is Mode.HALF_DUPLEX:
        return half_duplex_rounds_from_coloring(graph, coloring)
    raise ProtocolError(
        "edge-colouring rounds are defined for half- and full-duplex modes; "
        "directed protocols should be built explicitly"
    )


def random_systolic_schedule(
    graph: Digraph,
    period: int,
    mode: Mode = Mode.HALF_DUPLEX,
    *,
    seed: int = 0,
    rng: random.Random | None = None,
    activation_probability: float = 0.9,
) -> SystolicSchedule:
    """A seeded random s-systolic schedule whose rounds are valid matchings.

    Each round is built by scanning the arcs (full-duplex: undirected edges)
    in a seeded random order and greedily adding each with probability
    ``activation_probability`` whenever it does not conflict with the
    matching built so far.  The result is a structurally valid schedule; it
    is *not* guaranteed to complete gossip (callers that need completeness
    should check with the simulator), which is exactly what is needed for
    stress-testing the lower-bound machinery on arbitrary periods — and for
    generating restart candidates in :mod:`repro.search`, whose fuzzer draws
    schedules through a shared ``rng`` instance.

    ``rng`` takes precedence over ``seed``: pass an existing
    :class:`random.Random` to draw from a caller-owned stream (successive
    calls then yield *different* schedules), or a ``seed`` for the
    historical one-shot deterministic behaviour.
    """
    if period <= 0:
        raise ProtocolError(f"period must be positive, got {period}")
    if not 0.0 < activation_probability <= 1.0:
        raise ProtocolError("activation_probability must be in (0, 1]")
    if mode in (Mode.HALF_DUPLEX, Mode.FULL_DUPLEX) and not graph.is_symmetric():
        raise ProtocolError(f"{mode.value} schedules require a symmetric digraph")

    if rng is None:
        rng = random.Random(seed)
        seed_tag = f"seed{seed}"
    else:
        seed_tag = "rng"
    rounds: list[Round] = []
    for _ in range(period):
        used: set[Vertex] = set()
        arcs: list[Arc] = []
        if mode is Mode.FULL_DUPLEX:
            candidates = [tuple(sorted(e, key=repr)) for e in graph.undirected_edges()]
            rng.shuffle(candidates)
            for u, v in candidates:
                if u in used or v in used:
                    continue
                if rng.random() <= activation_probability:
                    used.update((u, v))
                    arcs.append((u, v))
                    arcs.append((v, u))
        else:
            candidates = list(graph.arcs)
            rng.shuffle(candidates)
            for tail, head in candidates:
                if tail in used or head in used:
                    continue
                if rng.random() <= activation_probability:
                    used.update((tail, head))
                    arcs.append((tail, head))
        rounds.append(make_round(arcs))
    return SystolicSchedule(
        graph,
        rounds,
        mode=mode,
        name=f"{graph.name}-random-{mode.value}-s{period}-{seed_tag}",
    )
