"""Construction heuristics: initial schedules for the local-search drivers.

Two complementary seeds:

* :func:`~repro.protocols.generic.coloring_systolic_schedule` — the
  classical Liestman–Richards route (colour the edges properly, cycle
  through the colour classes), built in :mod:`repro.protocols.generic`.
  Always valid, always completes, and on 1-factorable regular topologies
  often already optimal — but the greedy colouring fixes an arbitrary
  *order* of the colour classes, which is exactly the degree of freedom the
  search exploits.
* :func:`greedy_frontier_schedule` — a constructive heuristic that builds
  the period round by round, each round a maximal matching chosen to
  maximise the number of *new* (vertex, item) deliveries given the exact
  knowledge state reached so far (simulated as the rounds are laid down).
  This is the constructive twin of the frontier engine's view of gossip:
  activate the arcs whose tails currently hold the most news for their
  heads.

Both return :class:`~repro.gossip.model.SystolicSchedule` objects whose
rounds are valid matchings by construction.
"""

from __future__ import annotations

from repro.exceptions import ProtocolError
from repro.gossip.builders import edge_coloring_rounds
from repro.gossip.model import Mode, Round, SystolicSchedule, make_round
from repro.search.moves import activation_units
from repro.topologies.base import Arc, Digraph, Vertex

__all__ = ["greedy_frontier_schedule"]


def _units(graph: Digraph, mode: Mode) -> list[tuple[Arc, ...]]:
    """Activation units: single arcs, or opposite arc pairs in full duplex."""
    return [
        (forward,) if forward == backward else (forward, backward)
        for forward, backward in activation_units(graph, mode)
    ]


def greedy_frontier_schedule(
    graph: Digraph,
    mode: Mode = Mode.HALF_DUPLEX,
    *,
    period: int | None = None,
    name: str | None = None,
) -> SystolicSchedule:
    """Greedy frontier-aware constructor.

    Builds ``period`` rounds (default: the edge-colouring period, so the two
    seeds are directly comparable) by simulating the paper's knowledge
    dynamics while constructing: each round greedily packs activation units
    (arcs, or opposite pairs in full duplex) in decreasing order of the
    *news* they would deliver — ``|K(tail) \\ K(head)|`` on the current
    knowledge state — breaking ties toward the least-recently activated
    unit so that no arc starves.  Units that never fired within the target
    period are appended in extra matching rounds, which guarantees the
    unrolled schedule activates every arc at least once per period and
    therefore completes gossip on every (strongly) connected digraph.
    """
    if mode in (Mode.HALF_DUPLEX, Mode.FULL_DUPLEX) and not graph.is_symmetric():
        raise ProtocolError(f"{mode.value} schedules require a symmetric digraph")
    if period is not None and period <= 0:
        raise ProtocolError(f"period must be positive, got {period}")
    if period is None:
        period = max(1, len(edge_coloring_rounds(graph, mode))) if mode is not Mode.DIRECTED else max(
            1, max(graph.out_degree(v) + graph.in_degree(v) for v in graph.vertices)
        )

    n = graph.n
    index = graph.index
    knowledge = [1 << i for i in range(n)]
    units = _units(graph, mode)
    last_used = [-1] * len(units)

    def unit_gain(unit: tuple[Arc, ...]) -> int:
        gain = 0
        for tail, head in unit:
            gain += (knowledge[index(tail)] & ~knowledge[index(head)]).bit_count()
        return gain

    def build_round(candidates: list[int]) -> list[int]:
        """Greedy maximal matching over candidate unit indices (by gain)."""
        ranked = sorted(
            candidates, key=lambda u: (-unit_gain(units[u]), last_used[u], u)
        )
        used: set[Vertex] = set()
        chosen: list[int] = []
        for u in ranked:
            endpoints = {v for arc in units[u] for v in arc}
            if endpoints & used:
                continue
            used |= endpoints
            chosen.append(u)
        return chosen

    def apply_round(chosen: list[int], round_number: int) -> Round:
        arcs: list[Arc] = []
        updates: dict[int, int] = {}
        for u in chosen:
            last_used[u] = round_number
            for tail, head in units[u]:
                arcs.append((tail, head))
                h = index(head)
                updates[h] = updates.get(h, knowledge[h]) | knowledge[index(tail)]
        for h, bits in updates.items():
            knowledge[h] = bits
        return make_round(arcs)

    rounds: list[Round] = []
    for r in range(period):
        rounds.append(apply_round(build_round(list(range(len(units)))), r))

    # Coverage fix-up: pack any unit that never fired into extra rounds so
    # the period activates every arc (the completion guarantee above).
    unused = [u for u, last in enumerate(last_used) if last < 0]
    while unused:
        chosen = build_round(unused)
        rounds.append(apply_round(chosen, len(rounds)))
        unused = [u for u in unused if u not in set(chosen)]

    return SystolicSchedule(
        graph,
        rounds,
        mode=mode,
        name=name or f"{graph.name}-greedy-{mode.value}-s{len(rounds)}",
    )
