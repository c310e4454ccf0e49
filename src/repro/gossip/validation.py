"""Validation of the model constraints of Definition 3.1.

Two structural constraints apply to every round ``A_i``:

* **matching** — no two active arcs share an endpoint.  In the full-duplex
  mode the constraint is relaxed exactly as in the paper: two active arcs
  either share no endpoint or are opposite to each other;
* **pairing** (full-duplex only) — whenever ``(x, y)`` is active, ``(y, x)``
  is active in the same round.

The *coverage* condition (item 2 of Definition 3.1 — every ordered vertex
pair is served by a properly timed dipath) is a global property most easily
checked by running the protocol; :func:`validate_protocol` delegates it to
the simulator when ``require_complete=True``.
"""

from __future__ import annotations

from collections import Counter

from repro.exceptions import ValidationError
from repro.gossip.model import GossipProtocol, Mode, Round

__all__ = [
    "check_matching",
    "check_full_duplex_pairing",
    "validate_round",
    "validate_protocol",
]


def check_matching(round_arcs: Round, *, allow_opposite_pairs: bool = False) -> None:
    """Raise :class:`ValidationError` unless the round is a matching.

    With ``allow_opposite_pairs=True`` (full-duplex mode) an endpoint may be
    shared by two arcs only when those arcs are opposite to each other.
    """
    arc_set = set(round_arcs)
    endpoint_use: Counter = Counter()
    for tail, head in round_arcs:
        endpoint_use[tail] += 1
        endpoint_use[head] += 1

    if not allow_opposite_pairs:
        offenders = [v for v, count in endpoint_use.items() if count > 1]
        if offenders:
            raise ValidationError(
                f"round is not a matching: vertices {offenders[:5]!r} are endpoints of "
                "more than one active arc"
            )
        return

    # Full-duplex: each vertex may appear at most twice, and when it appears
    # twice the two incident active arcs must be an opposite pair.
    for vertex, count in endpoint_use.items():
        if count > 2:
            raise ValidationError(
                f"vertex {vertex!r} is an endpoint of {count} active arcs; "
                "full-duplex rounds allow at most an opposite pair per vertex"
            )
    for tail, head in round_arcs:
        if endpoint_use[tail] == 2 or endpoint_use[head] == 2:
            if (head, tail) not in arc_set:
                raise ValidationError(
                    f"arc {(tail, head)!r} shares an endpoint with another active arc "
                    "that is not its opposite"
                )


def check_full_duplex_pairing(round_arcs: Round) -> None:
    """Raise unless every active arc is accompanied by its opposite."""
    arc_set = set(round_arcs)
    for tail, head in round_arcs:
        if (head, tail) not in arc_set:
            raise ValidationError(
                f"full-duplex round activates {(tail, head)!r} without its opposite"
            )


def validate_round(round_arcs: Round, mode: Mode) -> None:
    """Validate a single round against the constraints of the given mode."""
    if mode is Mode.FULL_DUPLEX:
        check_full_duplex_pairing(round_arcs)
        check_matching(round_arcs, allow_opposite_pairs=True)
    else:
        check_matching(round_arcs, allow_opposite_pairs=False)


def validate_protocol(protocol: GossipProtocol, *, require_complete: bool = False) -> None:
    """Validate every round of a protocol; optionally require gossip completeness.

    ``require_complete=True`` additionally simulates the protocol and raises
    unless, at the end, every vertex knows every item (condition 2 of
    Definition 3.1).
    """
    for position, round_arcs in enumerate(protocol.rounds, start=1):
        try:
            validate_round(round_arcs, protocol.mode)
        except ValidationError as exc:
            raise ValidationError(f"round {position}: {exc}") from exc

    if require_complete:
        # Imported lazily to avoid a circular import at package load time.
        from repro.gossip.simulation import is_complete_gossip

        if not is_complete_gossip(protocol):
            raise ValidationError(
                f"protocol {protocol.name!r} of length {protocol.length} does not "
                "complete gossip on its digraph"
            )
