"""Robustness metrics over fault-injected trial results.

Everything here is a pure summary of a
:class:`~repro.faults.montecarlo.FaultTrialResult` — the Monte-Carlo driver
runs once, the metrics slice the outcome from as many angles as needed:
completion probability against a round budget (and whole budget curves),
expected and quantile gossip times, and per-vertex reachability degradation
(how much of the item space each vertex still receives under faults).  The
one exception is :func:`worst_case_gossip_time`, which is not statistical
at all: it delegates to the adversarial model's exact-or-greedy deletion
search and reports the worst gossip time any ≤ k per-period arc deletion
can force.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.faults.models import AdversarialArcFaults, AdversarialReport
from repro.faults.montecarlo import FaultTrialResult
from repro.gossip.engines import SimulationEngine
from repro.gossip.simulation import _program_for

__all__ = [
    "completion_probability",
    "completion_curve",
    "expected_gossip_time",
    "gossip_time_quantile",
    "reachability_degradation",
    "worst_case_gossip_time",
]


def completion_probability(result: FaultTrialResult, budget: int | None = None) -> float:
    """Fraction of trials that completed gossip within ``budget`` rounds.

    ``budget`` defaults to the result's full horizon; larger budgets are
    clamped to it (what happened beyond the horizon was never simulated).
    """
    if budget is None:
        budget = result.horizon
    hits = sum(
        1 for r in result.completion_rounds if r is not None and r <= budget
    )
    return hits / result.trials


def completion_curve(
    result: FaultTrialResult, budgets: tuple[int, ...] | None = None
) -> tuple[tuple[int, float], ...]:
    """``(budget, completion probability)`` pairs, a CDF of gossip time.

    ``budgets`` defaults to ~eight evenly spaced checkpoints up to and
    always *including* the horizon itself, so the final point equals the
    overall completion rate.  The curve is non-decreasing by construction.
    """
    if budgets is None:
        step = max(1, result.horizon // 8)
        budgets = tuple(range(step, result.horizon + 1, step))
        if not budgets or budgets[-1] != result.horizon:
            budgets += (result.horizon,)
    return tuple((b, completion_probability(result, b)) for b in budgets)


def _completed_rounds(result: FaultTrialResult) -> list[int]:
    return [r for r in result.completion_rounds if r is not None]


def expected_gossip_time(result: FaultTrialResult) -> float | None:
    """Mean completion round over the trials that completed (else ``None``).

    Report it next to :func:`completion_probability` — conditioning on
    completion is what makes the mean finite under fault models that can
    permanently disconnect the network (crashes).
    """
    done = _completed_rounds(result)
    if not done:
        return None
    return sum(done) / len(done)


def gossip_time_quantile(result: FaultTrialResult, q: float) -> int | None:
    """The ``q``-quantile of completion rounds over completed trials.

    ``q`` lies in [0, 1]; returns ``None`` when no trial completed.  Uses
    the nearest-rank definition, so the value is always one of the observed
    completion rounds.
    """
    if not 0.0 <= q <= 1.0:
        raise SimulationError(f"quantile must lie in [0, 1], got {q!r}")
    done = sorted(_completed_rounds(result))
    if not done:
        return None
    rank = min(len(done) - 1, max(0, int(np.ceil(q * len(done))) - 1))
    return done[rank]


def reachability_degradation(result: FaultTrialResult) -> np.ndarray:
    """Per-vertex mean fraction of items known at the end of a trial.

    Entry ``v`` is the average over trials of ``|known(v)| / n`` — 1.0
    everywhere means every trial still delivered everything, and the
    minimum entry locates the vertex the fault model starves hardest
    (under crashes, typically a crashed vertex itself).
    """
    n = result.graph.n
    totals = np.zeros(n, dtype=np.float64)
    for knowledge in result.knowledge:
        totals += np.fromiter(
            (value.bit_count() for value in knowledge), dtype=np.float64, count=n
        )
    return totals / (result.trials * n)


def worst_case_gossip_time(
    protocol_or_schedule,
    k: int,
    *,
    exact_limit: int = 2048,
    engine: str | SimulationEngine | None = "auto",
) -> AdversarialReport:
    """Worst gossip time any ≤ k per-period arc deletion can force.

    Exact (full enumeration) while the subset count stays within
    ``exact_limit``; greedy — a *lower* bound on the damage, i.e. an upper
    bound on robustness — beyond.  ``report.rounds is None`` means some
    deletion prevents completion altogether.
    """
    model = AdversarialArcFaults(k, exact_limit=exact_limit, engine=engine)
    return model.worst_deletion(_program_for(protocol_or_schedule, None))
