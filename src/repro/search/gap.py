"""Certified optimality gaps: connect synthesized schedules to the bounds.

The paper proves lower bounds; the engines measure concrete schedules; this
module closes the loop.  Given a schedule (typically a search winner) it
reports the triple the whole subsystem exists for::

    (found, lower_bound, gap)        gap = found - lower_bound >= 0

``found`` is the schedule's measured gossip time.  ``lower_bound`` is the
best *finite-n valid* bound available:

* the Theorem 4.1 certificate of :func:`repro.core.certificates.certify_protocol`
  (λ optimised per schedule) whenever the period admits one (``s ≥ 3``), and
* the digraph diameter (an item needs ``dist(x, y)`` rounds to travel from
  ``x`` to ``y``, one arc per round), which covers the short periods the
  certificate machinery excludes.

The asymptotic machinery is reported alongside for context: the general
``e(s)·log₂ n`` bound of the schedule's mode/period and — when the caller
supplies the family's ⟨α, ℓ⟩ constants (:mod:`repro.topologies.separators`)
— the separator-refined coefficient of Theorem 5.1.  Both carry a
``−o(log n)`` slack, so they are *not* folded into ``lower_bound`` on
concrete instances; they show how far the finite certificate sits from the
asymptotic truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.certificates import LowerBoundCertificate, certify_protocol
from repro.core.full_duplex import full_duplex_general_bound
from repro.core.general_bound import general_lower_bound
from repro.core.separator_bound import separator_lower_bound
from repro.exceptions import BoundComputationError, SimulationError
from repro.gossip.engines import SimulationEngine
from repro.gossip.model import Mode, SystolicSchedule
from repro.search.objective import evaluate_schedule
from repro.topologies.properties import diameter

__all__ = ["GapReport", "certified_gap"]


@dataclass(frozen=True)
class GapReport:
    """The certified optimality gap of one concrete schedule.

    ``lower_bound`` is always a valid bound for the instance (see the module
    docstring); ``gap`` can only be negative if a bound implementation is
    wrong, which is exactly why the test suite asserts ``gap >= 0``.
    """

    schedule_name: str
    graph_name: str
    n: int
    mode: str
    period: int
    found: int | None
    certified_rounds: int | None
    diameter_bound: int
    lower_bound: int
    analytic_coefficient: float | None
    separator_coefficient: float | None
    lam: float | None
    norm: float | None

    @property
    def gap(self) -> int | None:
        """``found - lower_bound`` (``None`` when the schedule never completes)."""
        if self.found is None:
            return None
        return self.found - self.lower_bound


def _certificate(
    schedule: SystolicSchedule, unroll_periods: int, optimize_lambda: bool
) -> LowerBoundCertificate | None:
    try:
        certificate = certify_protocol(
            schedule,
            optimize_lambda=optimize_lambda,
            unroll_periods=unroll_periods,
        )
    except BoundComputationError:
        # Periods 1-2 sit outside the certificate machinery (the paper's
        # s <= 2 remark); the diameter bound still applies.
        return None
    return certificate if certificate.valid else None


def _analytic_coefficient(mode: Mode, period: int) -> float | None:
    try:
        if mode is Mode.FULL_DUPLEX:
            return full_duplex_general_bound(period).coefficient
        return general_lower_bound(period).coefficient
    except BoundComputationError:
        return None


def certified_gap(
    schedule: SystolicSchedule,
    *,
    found: int | None = None,
    engine: str | SimulationEngine | None = "auto",
    unroll_periods: int = 3,
    optimize_lambda: bool = True,
    separator: tuple[float, float] | None = None,
) -> GapReport:
    """Measure and certify one schedule; see the module docstring.

    ``found`` skips the measurement when the caller already knows the
    schedule's gossip time (search drivers do); ``separator`` supplies the
    schedule's family ⟨α, ℓ⟩ constants to additionally report the
    Theorem 5.1 coefficient.
    """
    graph = schedule.graph
    if found is None:
        value = evaluate_schedule(schedule, engine=engine)
        found = value.rounds  # None when the schedule cannot complete

    certificate = _certificate(schedule, unroll_periods, optimize_lambda)
    try:
        diameter_bound = diameter(graph)
    except Exception as exc:  # disconnected graphs cannot gossip at all
        raise SimulationError(
            f"cannot bound gossip on {graph.name}: {exc}"
        ) from exc

    certified = certificate.certified_rounds if certificate is not None else None
    lower_bound = max(diameter_bound, certified or 0)

    separator_coefficient: float | None = None
    if separator is not None:
        alpha, ell = separator
        separator_coefficient = separator_lower_bound(
            alpha,
            ell,
            schedule.period if schedule.period >= 3 else None,
            mode="full-duplex" if schedule.mode is Mode.FULL_DUPLEX else "half-duplex",
        ).coefficient

    return GapReport(
        schedule_name=schedule.name,
        graph_name=graph.name,
        n=graph.n,
        mode=schedule.mode.value,
        period=schedule.period,
        found=found,
        certified_rounds=certified,
        diameter_bound=diameter_bound,
        lower_bound=lower_bound,
        analytic_coefficient=_analytic_coefficient(schedule.mode, schedule.period),
        separator_coefficient=separator_coefficient,
        lam=certificate.lam if certificate is not None else None,
        norm=certificate.norm if certificate is not None else None,
    )
