"""Experiment UPPER — sandwiching the lower bounds with constructive protocols.

For a battery of concrete instances we compute three numbers:

* the **certified lower bound** — Theorem 4.1 applied to the delay matrix of
  the instance's systolic schedule (``λ`` optimised per schedule);
* the **analytic lower bound** — the leading term ``e(s)·log₂(n)`` of the
  general bound for the schedule's period and mode (reported for context;
  the ``−O(log log n)`` slack means it need not be met on small instances);
* the **measured gossip time** of the schedule, from exact simulation.

The invariant every row must satisfy is ``certified ≤ measured``; the
benchmark asserts it and the EXPERIMENTS.md table reports the margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.gossip.engines import resolve_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule
from repro.protocols.complete import complete_graph_schedule
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.protocols.grid import grid_systolic_schedule
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.protocols.tree import tree_systolic_schedule
from repro.search.gap import certified_gap
from repro.topologies.butterfly import wrapped_butterfly
from repro.topologies.debruijn import de_bruijn
from repro.topologies.kautz import kautz

__all__ = ["SandwichRow", "sandwich_table", "default_instances"]


@dataclass(frozen=True)
class SandwichRow:
    """Certified lower bound vs. measured gossip time for one instance."""

    name: str
    graph: str
    n: int
    mode: str
    period: int
    certified_lower_bound: int
    analytic_coefficient: float | None
    analytic_lower_bound: float | None
    measured_gossip_time: int
    norm_at_lambda: float | None
    lam: float | None
    engine: str

    @property
    def consistent(self) -> bool:
        """The inequality the theory guarantees on every instance."""
        return self.certified_lower_bound <= self.measured_gossip_time

    @property
    def gap_ratio(self) -> float:
        """Measured time divided by certified bound (≥ 1 when consistent)."""
        if self.certified_lower_bound == 0:
            return math.inf
        return self.measured_gossip_time / self.certified_lower_bound


def default_instances() -> list[SystolicSchedule]:
    """The standard battery of instances used by the sandwich benchmark."""
    return [
        hypercube_dimension_exchange(4, Mode.FULL_DUPLEX),
        hypercube_dimension_exchange(4, Mode.HALF_DUPLEX),
        complete_graph_schedule(16, Mode.FULL_DUPLEX),
        complete_graph_schedule(16, Mode.HALF_DUPLEX),
        path_systolic_schedule(12, Mode.HALF_DUPLEX),
        path_systolic_schedule(12, Mode.FULL_DUPLEX),
        cycle_systolic_schedule(12, Mode.HALF_DUPLEX),
        grid_systolic_schedule(4, 4, Mode.HALF_DUPLEX),
        tree_systolic_schedule(2, 3, Mode.HALF_DUPLEX),
        coloring_systolic_schedule(de_bruijn(2, 4), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(wrapped_butterfly(2, 3), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(kautz(2, 3), Mode.HALF_DUPLEX),
    ]


def sandwich_row(
    schedule: SystolicSchedule, *, unroll_periods: int = 3, engine: str = "auto"
) -> SandwichRow:
    """Build the sandwich comparison for one systolic schedule.

    One :func:`repro.search.gap.certified_gap` call measures the schedule
    and certifies it.  A row without a valid Theorem 4.1 certificate
    (periods 1-2 fall outside the theorem) takes the digraph diameter as
    its bound — a valid lower bound on any gossip protocol (an item needs
    ``dist(x, y)`` rounds to travel, one arc per round) — and reports no
    λ/norm, mirroring the missing analytic column.  A schedule that never
    completes gossip raises :class:`~repro.exceptions.SimulationError`.
    """
    # Resolve against the schedule's own program so the row records the
    # backend that actually ran (never a literal "auto").
    resolved = resolve_engine(engine, RoundProgram.from_schedule(schedule))
    report = certified_gap(schedule, engine=resolved, unroll_periods=unroll_periods)
    if report.found is None:
        raise SimulationError(
            f"schedule {schedule.name!r} on {schedule.graph.name} did not complete gossip"
        )
    coefficient = report.analytic_coefficient
    return SandwichRow(
        name=report.schedule_name,
        graph=report.graph_name,
        n=report.n,
        mode=report.mode,
        period=report.period,
        certified_lower_bound=(
            report.diameter_bound
            if report.certified_rounds is None
            else report.certified_rounds
        ),
        analytic_coefficient=coefficient,
        analytic_lower_bound=None if coefficient is None else coefficient * math.log2(report.n),
        measured_gossip_time=report.found,
        norm_at_lambda=report.norm,
        lam=report.lam,
        engine=resolved.name,
    )


def sandwich_table(
    instances: list[SystolicSchedule] | None = None,
    *,
    unroll_periods: int = 3,
    engine: str = "auto",
) -> list[SandwichRow]:
    """Certified-vs-measured comparison for a battery of instances.

    ``engine`` selects the simulation backend for the measured gossip times.
    """
    schedules = default_instances() if instances is None else instances
    return [
        sandwich_row(schedule, unroll_periods=unroll_periods, engine=engine)
        for schedule in schedules
    ]
