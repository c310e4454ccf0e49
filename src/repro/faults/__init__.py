"""Fault injection & robustness: stress-testing gossip schedules.

The paper (and everything the repo synthesizes from it) assumes every
scheduled call succeeds.  This package asks the opposite question — *how
does a schedule degrade when calls fail?* — with the three standard fault
classes of the fault-tolerant broadcasting literature and the machinery to
answer it at scale:

* :mod:`repro.faults.models` — composable per-round arc perturbations
  behind one :class:`~repro.faults.models.FaultModel` protocol:
  :class:`~repro.faults.models.BernoulliArcFaults` (independent random call
  failures), :class:`~repro.faults.models.CrashFaults` (fail-stop vertex
  crashes) and :class:`~repro.faults.models.AdversarialArcFaults`
  (worst-case per-period link deletion, exact for small budgets, greedy
  beyond);
* :mod:`repro.faults.montecarlo` — the trial driver: a batched
  ``(n, trials, W)`` bitset tensor kernel advancing *all* trials one round
  per NumPy pass, plus a looped per-engine fallback; both consume the same
  seeded fault realisation, so results are bit-identical across paths and
  engines — and :func:`~repro.faults.montecarlo.monte_carlo_stacked`
  extends the tensor across whole candidate portfolios
  (``(n, candidates·trials, W)``), which is how robust batch search
  amortises its trials;
* :mod:`repro.faults.metrics` — completion probability vs round budget,
  expected/quantile gossip times, per-vertex reachability degradation, and
  :func:`~repro.faults.metrics.worst_case_gossip_time`.

Quick start::

    from repro.faults import BernoulliArcFaults, monte_carlo, completion_probability
    from repro.protocols.cycle import cycle_systolic_schedule
    from repro.gossip.model import Mode

    schedule = cycle_systolic_schedule(64, Mode.HALF_DUPLEX)
    result = monte_carlo(schedule, BernoulliArcFaults(0.1), trials=500, seed=0)
    print(result.completion_rate, completion_probability(result, 2 * 64))

The search subsystem consumes the same machinery: the
``"robust_gossip_rounds"`` objective (:mod:`repro.search.objective`) scores
candidates by their mean behaviour over a fixed seeded fault sample, so
``synthesize_schedule`` can trade nominal rounds for fault tolerance; the
``python -m repro robustness`` CLI subcommand and
:mod:`repro.experiments.robustness` expose the whole pipeline.
"""

from __future__ import annotations

from repro.faults.metrics import (
    completion_curve,
    completion_probability,
    expected_gossip_time,
    gossip_time_quantile,
    reachability_degradation,
    worst_case_gossip_time,
)
from repro.faults.models import (
    AdversarialArcFaults,
    AdversarialReport,
    BernoulliArcFaults,
    CrashFaults,
    FaultModel,
    FaultSample,
)
from repro.faults.montecarlo import (
    METHODS,
    FaultTrialResult,
    default_horizon,
    monte_carlo,
    monte_carlo_stacked,
)

__all__ = [
    "FaultModel",
    "FaultSample",
    "BernoulliArcFaults",
    "CrashFaults",
    "AdversarialArcFaults",
    "AdversarialReport",
    "FaultTrialResult",
    "METHODS",
    "monte_carlo",
    "monte_carlo_stacked",
    "default_horizon",
    "completion_probability",
    "completion_curve",
    "expected_gossip_time",
    "gossip_time_quantile",
    "reachability_degradation",
    "worst_case_gossip_time",
]
