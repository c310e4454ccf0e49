"""Protocol analysis helpers.

These utilities inspect protocols from the point of view the lower-bound
machinery takes: locally at a vertex, an s-systolic half-duplex protocol is a
periodic word over {left activation, right activation, idle} (Section 4), and
globally the interesting quantities are which arcs are exercised, how often,
and when each item first arrives at each vertex.

Every simulation-backed helper here runs exactly **one** engine pass.  The
arrival/eccentricity analyses used to be per-source workloads (one
simulation per source vertex); they now batch through a single tracked run
(``track_arrivals`` / ``track_item_completion``) and take an ``engine=``
keyword, so any registered backend can serve them.  The frontier engine
maintains the arrival matrix incrementally from its (vertex, item) pair
events, while the dense kernel must diff O(n·W) words per round: the
frontier engine wins arrival-tracked runs on deep graphs, where gossip
takes many rounds, and the dense kernel wins them on low-diameter ones;
see the decision function in :mod:`repro.gossip.engines` before picking
one explicitly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines import ArrivalRounds, SimulationEngine, resolve_engine
from repro.gossip.model import GossipProtocol, Mode, SystolicSchedule
from repro.topologies.base import Arc, Digraph, Vertex

__all__ = [
    "LEFT",
    "RIGHT",
    "IDLE",
    "BOTH",
    "ArrivalTimesView",
    "local_activation_sequence",
    "activation_counts",
    "arrival_times",
    "all_arrival_times",
    "eccentricities",
    "protocol_summary",
]

#: Symbols of the local activation alphabet.
LEFT = "L"  #: an incoming arc of the vertex is active (a *left* activation)
RIGHT = "R"  #: an outgoing arc of the vertex is active (a *right* activation)
IDLE = "-"  #: no arc incident to the vertex is active
BOTH = "B"  #: both directions active in the same round (full-duplex only)


def local_activation_sequence(
    schedule_or_protocol: SystolicSchedule | GossipProtocol,
    vertex: Vertex,
    *,
    length: int | None = None,
) -> str:
    """The local activation word of ``vertex``: one symbol per round.

    For a systolic schedule the default length is one period; for an explicit
    protocol it is the protocol length.  In the directed and half-duplex
    modes each round contributes ``L``, ``R`` or ``-``; a full-duplex
    activation (both directions in the same round) contributes ``B``.
    """
    if isinstance(schedule_or_protocol, SystolicSchedule):
        schedule = schedule_or_protocol
        graph = schedule.graph
        rounds = length if length is not None else schedule.period
        supplier = schedule.round
    elif isinstance(schedule_or_protocol, GossipProtocol):
        protocol = schedule_or_protocol
        graph = protocol.graph
        rounds = length if length is not None else protocol.length
        supplier = protocol.round
    else:
        raise SimulationError(
            f"expected GossipProtocol or SystolicSchedule, got {type(schedule_or_protocol)!r}"
        )
    if not graph.has_vertex(vertex):
        raise SimulationError(f"unknown vertex {vertex!r}")

    symbols: list[str] = []
    for i in range(1, rounds + 1):
        incoming = outgoing = False
        for tail, head in supplier(i):
            if head == vertex:
                incoming = True
            if tail == vertex:
                outgoing = True
        if incoming and outgoing:
            symbols.append(BOTH)
        elif incoming:
            symbols.append(LEFT)
        elif outgoing:
            symbols.append(RIGHT)
        else:
            symbols.append(IDLE)
    return "".join(symbols)


def activation_counts(protocol: GossipProtocol) -> Counter:
    """How many times each arc is activated over the whole protocol."""
    counts: Counter = Counter()
    for round_arcs in protocol.rounds:
        counts.update(round_arcs)
    return counts


def _tracked_run(
    protocol_or_schedule,
    max_rounds: int | None,
    engine: str | SimulationEngine | None,
    **track,
):
    """One engine pass over either protocol flavour with tracking enabled."""
    from repro.gossip.simulation import _program_for

    program = _program_for(protocol_or_schedule, max_rounds)
    resolved = resolve_engine(
        engine,
        program,
        track_item_completion=track.get("track_item_completion", False),
        track_arrivals=track.get("track_arrivals", False),
    )
    with telemetry.span(
        "analysis.tracked_run", engine=resolved.name, n=program.graph.n
    ):
        return program, resolved.run(program, **track)


def arrival_times(
    protocol_or_schedule,
    source: Vertex,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> dict[Vertex, int]:
    """First round after which each vertex knows the item of ``source``.

    The source itself maps to 0.  Vertices the item never reaches are absent
    from the result, so callers can detect incomplete broadcasts.

    The computation is a single engine run seeded with *only* the source's
    item (knowledge dynamics are bitwise-parallel, so one item's spread is
    independent of the others), stopping as soon as the item has reached
    every vertex.  Accepts a :class:`GossipProtocol` or a
    :class:`SystolicSchedule`; for a finite protocol the round budget is its
    length, matching the historical pure-Python scan.
    """
    graph = protocol_or_schedule.graph
    if not graph.has_vertex(source):
        raise SimulationError(f"unknown source vertex {source!r}")
    source_index = graph.index(source)
    source_bit = 1 << source_index
    _, result = _tracked_run(
        protocol_or_schedule,
        max_rounds,
        engine,
        initial=[source_bit if i == source_index else 0 for i in range(graph.n)],
        target_mask=source_bit,
        track_arrivals=True,
    )
    assert result.arrival_rounds is not None
    return {
        graph.vertex(i): round_number
        for i, round_number in enumerate(result.arrival_rounds.column(source_index))
        if round_number is not None
    }


class ArrivalTimesView(Mapping):
    """Lazy ``{source: {vertex: round}}`` view over a tracked arrival matrix.

    Behaves like the eager nested dict :func:`all_arrival_times` used to
    return — ``view[source][vertex]``, iteration over sources, ``len``,
    ``in`` — but each source's inner dict is materialised (and cached) only
    on first access, so profiling a handful of sources no longer pays the
    full n×n Python-object conversion.  ``to_numpy()`` exposes the backing
    ``(vertex, item)`` matrix (``-1`` for "never arrived") for vectorised
    consumers, in the narrowest of int16, int32 and int64 that holds the
    last round the run could stamp: cast before arithmetic that could pass
    that type's maximum.
    """

    __slots__ = ("_graph", "_arrivals", "_cache")

    def __init__(self, graph: Digraph, arrivals: ArrivalRounds) -> None:
        self._graph = graph
        self._arrivals = arrivals
        self._cache: dict[Vertex, dict[Vertex, int]] = {}

    def __getitem__(self, source: Vertex) -> dict[Vertex, int]:
        cached = self._cache.get(source)
        if cached is not None:
            return cached
        if not self._graph.has_vertex(source):
            raise KeyError(source)
        column = self._arrivals.column(self._graph.index(source))
        times = {
            self._graph.vertex(i): round_number
            for i, round_number in enumerate(column)
            if round_number is not None
        }
        self._cache[source] = times
        return times

    def __iter__(self):
        return iter(self._graph.vertices)

    def __len__(self) -> int:
        return self._graph.n

    def to_numpy(self):
        """The backing first-arrival matrix; see :meth:`ArrivalRounds.to_numpy`."""
        return self._arrivals.to_numpy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrivalTimesView(graph={self._graph.name!r}, n={self._graph.n})"


def all_arrival_times(
    protocol_or_schedule,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> ArrivalTimesView:
    """Arrival times of *every* source's item, from one batched simulation.

    ``result[source][vertex]`` is the first round after which ``vertex``
    knows the item of ``source`` (0 for the source itself); vertices an item
    never reaches are absent from its inner mapping.  One tracked engine run
    replaces the ``n`` per-source :func:`arrival_times` sweeps, and the
    returned :class:`ArrivalTimesView` converts each source's column to
    Python objects lazily (``.to_numpy()`` skips the conversion entirely).
    """
    graph = protocol_or_schedule.graph
    _, result = _tracked_run(
        protocol_or_schedule, max_rounds, engine, track_arrivals=True
    )
    assert result.arrival_rounds is not None
    return ArrivalTimesView(graph, result.arrival_rounds)


def eccentricities(
    protocol_or_schedule,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> dict[Vertex, int | None]:
    """Broadcast eccentricity of every vertex under the protocol.

    The eccentricity of ``v`` is the first round after which *every* vertex
    knows ``v``'s item — its broadcast time, and the protocol analogue of
    graph eccentricity.  ``None`` marks vertices whose item never reaches
    everyone within the round budget (unlike
    :func:`repro.gossip.simulation.broadcast_times_all` this does not
    raise, so incomplete protocols can still be profiled).  All values come
    from one per-item-tracked engine run.
    """
    graph = protocol_or_schedule.graph
    _, result = _tracked_run(
        protocol_or_schedule, max_rounds, engine, track_item_completion=True
    )
    assert result.item_completion_rounds is not None
    return {
        graph.vertex(j): round_number
        for j, round_number in enumerate(result.item_completion_rounds)
    }


def protocol_summary(
    protocol: GossipProtocol,
    *,
    engine: str | SimulationEngine | None = "auto",
) -> dict[str, object]:
    """A compact structural + behavioural summary used by reports and examples.

    The structural fields are pure bookkeeping; the behavioural fields
    (``gossip_rounds`` and the per-source ``broadcast_times``) come from a
    **single** per-item-tracked simulation instead of one simulation per
    source vertex.  Sources whose item does not reach every vertex within
    the protocol's length map to ``None``, and ``gossip_rounds`` is ``None``
    when the protocol does not complete gossip.
    """
    counts = activation_counts(protocol)
    total_activations = sum(counts.values())
    rounds = protocol.length
    n = protocol.graph.n
    idle_slots = rounds * n - 2 * total_activations
    _, result = _tracked_run(protocol, None, engine, track_item_completion=True)
    assert result.item_completion_rounds is not None
    broadcast_times = {
        protocol.graph.vertex(j): round_number
        for j, round_number in enumerate(result.item_completion_rounds)
    }
    return {
        "name": protocol.name,
        "graph": protocol.graph.name,
        "n": n,
        "mode": protocol.mode.value,
        "length": rounds,
        "minimal_period": protocol.minimal_period(),
        "distinct_arcs_used": len(counts),
        "total_activations": total_activations,
        "mean_activations_per_round": (total_activations / rounds) if rounds else 0.0,
        "idle_vertex_rounds": idle_slots,
        "gossip_rounds": result.completion_round,
        "broadcast_times": broadcast_times,
    }
