"""Pure-Python reference engine: the semantic oracle.

This is the original simulator loop of :mod:`repro.gossip.simulation`, kept
as an engine so that every other backend can be differentially tested
against it.  Knowledge sets are arbitrary-precision Python integers (bit
``j`` set iff the vertex knows item ``j``); set union is integer OR, which
gives exact semantics with no dependencies.  It is deliberately simple and
obviously correct rather than fast — the vectorized engine exists for speed.

The engine is just that loop: the run driver
(:mod:`repro.gossip.engines.checkpoint`) hands it the start knowledge as a
list of Python ints, and the tracked prefixes as the same arrays every
engine fills (``-1`` for "not yet"), into which the loop only writes the
rounds it stamps.  A resumed run simply restarts the loop from the
snapshot's knowledge vector at the snapshot's round, which makes this
engine the oracle for the differential resume suite as well.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from repro.gossip.engines.base import iter_set_bits
from repro.gossip.engines.checkpoint import CheckpointingMixin, EngineRun

__all__ = ["ReferenceEngine"]


class ReferenceEngine(CheckpointingMixin):
    """Arbitrary-precision-integer bitset loop (one Python iteration per arc)."""

    name = "reference"
    engine_counters = ("slots_fired",)

    def _execute(self, run: EngineRun):
        program = run.program
        n = program.graph.n
        index = program.graph.index
        full = run.target_mask
        knowledge = run.start
        item_rounds = run.item_rounds
        arrivals = run.arrivals
        known_by_all = reduce(and_, knowledge) if item_rounds is not None else 0
        next_capture = run.next_capture
        slots_fired = 0
        completion = None
        executed = run.base
        for round_number in range(run.base + 1, program.max_rounds + 1):
            arcs = program.arcs_at(round_number)
            if arcs:
                slots_fired += 1
                snapshot = knowledge  # reads below use pre-round values
                updates: dict[int, int] = {}
                for tail, head in arcs:
                    h = index(head)
                    updates[h] = updates.get(h, snapshot[h]) | snapshot[index(tail)]
                for h, bits in updates.items():
                    if arrivals is not None:
                        for j in iter_set_bits(bits & ~knowledge[h]):
                            if j < n:
                                arrivals[h, j] = round_number
                    knowledge[h] = bits
            executed = round_number
            if item_rounds is not None:
                now_known = reduce(and_, knowledge)
                for j in iter_set_bits(now_known & ~known_by_all):
                    if j < n:
                        item_rounds[j] = round_number
                known_by_all = now_known
            if all(k & full == full for k in knowledge):
                completion = round_number
            if round_number == next_capture:
                next_capture = run.capture(round_number, completion, knowledge)
            if completion is not None:
                break
        return knowledge, executed, completion, {"slots_fired": slots_fired}
