"""Round-based dissemination simulator, dispatching to pluggable engines.

Knowledge sets are represented exactly: vertex ``v``'s knowledge is a bitset
whose bit ``j`` is set iff ``v`` knows the item originating at the vertex
with index ``j``.  The semantics follow Section 3 of the paper: if arc
``(x, y)`` is active at round ``i`` then at the beginning of round ``i + 1``
vertex ``y`` additionally knows everything ``x`` knew at the beginning of
round ``i``.  All arcs of a round act simultaneously on the same snapshot.

Engine registry
---------------
The actual execution is delegated to a *simulation engine* selected by the
``engine`` keyword accepted by every function here:

* ``"reference"`` — the original pure-Python loop over arbitrary-precision
  integers (one Python iteration per arc per round); the semantic oracle.
* ``"vectorized"`` — a NumPy kernel that packs the knowledge sets into an
  ``(n, ceil(n/64)) uint64`` matrix, precompiles each round's arc list into
  tail/head index arrays once per period, and applies rounds as L2-tiled
  bulk gather + scatter-OR operations, testing completion once per batch
  of rounds.
* ``"frontier"`` — a sparse engine that transmits only the newly-learned
  (vertex, item) pairs of each round; the fastest backend for
  arrival-tracked periodic schedules on deep topologies (cycles, paths,
  grids, tori) at large n.
* ``"auto"`` (default) — workload-aware selection: every function here
  hands the compiled program and its tracking flags to
  :func:`repro.gossip.engines.resolve_engine`, whose decision function
  picks per workload (the frontier engine for arrival-tracked runs on
  graphs whose BFS depth is at least √n, the dense kernel for everything
  else); overridable globally via the ``REPRO_SIM_ENGINE`` environment
  variable.
  See :mod:`repro.gossip.engines` for the decision function.

All backends return bit-for-bit identical results (enforced by
``tests/test_engines_differential.py`` and the randomized fuzz suite
``tests/test_engines_fuzz.py``, which both iterate over the engine
registry).  New backends implement the
:class:`~repro.gossip.engines.base.SimulationEngine` protocol and join via
:func:`repro.gossip.engines.register_engine`; see
:mod:`repro.gossip.engines` for the packed bitset layout and the
differential-certification workflow.

Telemetry
---------
When a :mod:`repro.telemetry` recorder is active (CLI ``--trace`` /
``REPRO_TRACE`` / ``--metrics``), every simulation run self-reports: engine
resolution emits an ``engine.resolve`` event with the workload rationale,
and each engine run records an ``engine.run`` span plus its run counters
in that recorder (results carry no telemetry).  With the default
``NullRecorder`` all of this reduces to one context-variable read per run;
recording never changes results (``tests/test_telemetry.py``).
"""

from __future__ import annotations

from repro.exceptions import SimulationError
from repro.gossip.engines import SimulationEngine, resolve_engine
from repro.gossip.engines.base import RoundProgram, SimulationResult
from repro.gossip.model import GossipProtocol, SystolicSchedule
from repro.topologies.base import Vertex

__all__ = [
    "SimulationResult",
    "simulate",
    "simulate_systolic",
    "gossip_time",
    "broadcast_time",
    "broadcast_times_all",
    "is_complete_gossip",
    "knowledge_counts",
]

def simulate(
    protocol: GossipProtocol,
    *,
    engine: str | SimulationEngine | None = "auto",
) -> SimulationResult:
    """Run an explicit protocol to its end (or until gossip completes earlier)."""
    program = RoundProgram.from_protocol(protocol)
    return resolve_engine(engine, program).run(program)


def simulate_systolic(
    schedule: SystolicSchedule,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> SimulationResult:
    """Repeat a systolic schedule until gossip completes (or ``max_rounds`` elapse).

    The default round budget is generous (``4·s·n``); a correct systolic
    gossip schedule on a connected graph always terminates well within it,
    and schedules that cannot complete (for example because they never
    activate some arc direction) are reported as incomplete rather than
    looping forever.
    """
    program = RoundProgram.from_schedule(schedule, max_rounds)
    return resolve_engine(engine, program).run(program)


def _program_for(protocol_or_schedule, max_rounds: int | None) -> RoundProgram:
    """Normalise either protocol flavour into a :class:`RoundProgram`."""
    if isinstance(protocol_or_schedule, SystolicSchedule):
        return RoundProgram.from_schedule(protocol_or_schedule, max_rounds)
    if isinstance(protocol_or_schedule, GossipProtocol):
        return RoundProgram.from_protocol(protocol_or_schedule, max_rounds)
    raise SimulationError(
        f"expected GossipProtocol or SystolicSchedule, got {type(protocol_or_schedule)!r}"
    )


def gossip_time(
    protocol_or_schedule,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> int:
    """Number of rounds the protocol needs to complete gossip.

    Raises :class:`SimulationError` if gossip does not complete, so callers
    can rely on the returned value being a genuine completion time.
    """
    program = _program_for(protocol_or_schedule, max_rounds)
    result = resolve_engine(engine, program).run(program)
    if result.completion_round is None:
        raise SimulationError(
            f"gossip did not complete within {result.rounds_executed} rounds"
        )
    return result.completion_round


def broadcast_time(
    protocol_or_schedule,
    source: Vertex,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> int:
    """Rounds needed for the item of ``source`` to reach every vertex."""
    program = _program_for(protocol_or_schedule, max_rounds)
    source_bit = 1 << program.graph.index(source)
    result = resolve_engine(engine, program).run(program, target_mask=source_bit)
    if result.completion_round is None:
        raise SimulationError(
            f"broadcast from {source!r} did not complete within {result.rounds_executed} rounds"
        )
    return result.completion_round


def broadcast_times_all(
    protocol_or_schedule,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> dict[Vertex, int]:
    """Broadcast time of *every* source, from one batched simulation.

    Runs the full gossip simulation once with per-item completion tracking:
    the broadcast time of vertex ``v`` is the first round after which every
    vertex knows ``v``'s item.  This costs one simulation instead of ``n``
    (one :func:`broadcast_time` call per source) and the maximum over all
    sources equals :func:`gossip_time` by definition.

    Raises :class:`SimulationError` if any item fails to reach every vertex
    within the round budget.
    """
    program = _program_for(protocol_or_schedule, max_rounds)
    result = resolve_engine(engine, program, track_item_completion=True).run(
        program, track_item_completion=True
    )
    rounds = result.item_completion_rounds
    assert rounds is not None  # engines always honour track_item_completion
    missing = [j for j, r in enumerate(rounds) if r is None]
    if missing:
        raise SimulationError(
            f"broadcast of {len(missing)} item(s) (first: vertex "
            f"{program.graph.vertex(missing[0])!r}) did not complete within "
            f"{result.rounds_executed} rounds"
        )
    return {program.graph.vertex(j): r for j, r in enumerate(rounds)}


def is_complete_gossip(
    protocol: GossipProtocol,
    *,
    engine: str | SimulationEngine | None = "auto",
) -> bool:
    """``True`` iff the protocol completes gossip within its own length."""
    return simulate(protocol, engine=engine).complete


def knowledge_counts(result: SimulationResult) -> list[int]:
    """Number of items known by each vertex at the end of a run (index order)."""
    return [bin(k).count("1") for k in result.knowledge]
