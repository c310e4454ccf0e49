"""Experiment ROBUSTNESS — fault tolerance of nominal vs robust schedules.

For each instance the table stress-tests two schedules under random call
failures (:class:`~repro.faults.models.BernoulliArcFaults`): the plain
edge-colouring *baseline* and a *robust* schedule synthesized with the
fault-aware ``"robust_gossip_rounds"`` objective (the same seeded fault
sample for every candidate).  Each row reports, per failure probability
``p``, the nominal (fault-free) gossip rounds of both schedules next to
their completion probability and mean completion time over a fresh
Monte-Carlo sample — the tradeoff curve the fault-aware search exists for:
a robust schedule may spend extra nominal rounds (or redundant
activations) to keep completing when calls fail.  The adversarial
worst-case gossip time under a single per-period arc deletion
(``worst_case_k1``, ``None`` when the deletion disconnects the schedule)
rides along as the non-statistical robustness anchor of the baseline.

All trials run through the batched Monte-Carlo tensor kernel; the
``engine`` parameter reaches the nominal runs and every search evaluation,
exactly as in the other experiment tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import (
    AdversarialArcFaults,
    BernoulliArcFaults,
    expected_gossip_time,
    monte_carlo,
)
from repro.gossip.model import Mode, SystolicSchedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.search import RobustnessSpec, synthesize_schedule
from repro.search.objective import evaluate_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import cycle_graph, grid_2d

__all__ = ["RobustnessRow", "robustness_instances", "robustness_table"]


@dataclass(frozen=True)
class RobustnessRow:
    """One (instance, p) line: nominal-optimal vs fault-aware schedule."""

    family: str
    n: int
    mode: str
    p: float
    trials: int
    baseline_rounds: int
    baseline_completion: float
    baseline_mean: float | None
    robust_rounds: int | None
    robust_completion: float
    robust_mean: float | None
    worst_case_k1: int | None
    engine: str

    @property
    def consistent(self) -> bool:
        """Sanity invariants: probabilities in [0, 1], means ≥ nominal."""
        ok = 0.0 <= self.baseline_completion <= 1.0
        ok = ok and 0.0 <= self.robust_completion <= 1.0
        if self.baseline_mean is not None:
            ok = ok and self.baseline_mean >= self.baseline_rounds
        if self.worst_case_k1 is not None:
            ok = ok and self.worst_case_k1 >= self.baseline_rounds
        return ok


def robustness_instances() -> list[Digraph]:
    """The default battery: a cycle and a grid (the tradeoff showcases)."""
    return [cycle_graph(12), grid_2d(3, 4)]


def _stress(
    schedule: SystolicSchedule, p: float, trials: int, seed: int, engine: str
) -> tuple[float, float | None]:
    """(completion rate, mean completion round) under Bernoulli(p) faults.

    ``engine="auto"`` takes the batched tensor kernel; naming an engine
    exercises the looped per-trial fallback through that backend instead
    (the instances here are small enough for either).
    """
    result = monte_carlo(
        schedule, BernoulliArcFaults(p), trials=trials, seed=seed, engine=engine
    )
    return result.completion_rate, expected_gossip_time(result)


def robustness_table(
    *,
    engine: str = "auto",
    seed: int = 0,
    trials: int = 60,
    ps: tuple[float, ...] = (0.05, 0.2),
    search_iters: int = 60,
    search_trials: int = 6,
    instances: list[Digraph] | None = None,
) -> list[RobustnessRow]:
    """Stress-test baseline vs robust-synthesized schedules per instance.

    ``trials`` perturbed runs grade each schedule (drawn from ``seed + 1``,
    a *fresh* sample — grading on the search's own training sample would
    flatter it); ``search_trials``/``search_iters`` budget the fault-aware
    synthesis.  Deterministic for fixed parameters.
    """
    from repro.gossip.engines import resolve_engine
    from repro.gossip.engines.base import RoundProgram

    mode = Mode.HALF_DUPLEX
    rows: list[RobustnessRow] = []
    for graph in instances if instances is not None else robustness_instances():
        baseline = coloring_systolic_schedule(graph, mode)
        # Per-instance resolution against the baseline program, so the row
        # reports (and every evaluation uses) the backend auto actually picks.
        resolved = resolve_engine(engine, RoundProgram.from_schedule(baseline))
        baseline_value = evaluate_schedule(baseline, engine=resolved)
        assert baseline_value.rounds is not None  # colourings always complete
        worst = AdversarialArcFaults(1, engine=resolved)
        worst_report = worst.worst_deletion(RoundProgram.from_schedule(baseline))
        for p in ps:
            spec = RobustnessSpec(
                BernoulliArcFaults(p), trials=search_trials, seed=seed
            )
            robust = synthesize_schedule(
                graph,
                mode,
                objective="robust_gossip_rounds",
                robustness=spec,
                seed=seed,
                max_iters=search_iters,
                engine=resolved,
            )
            base_rate, base_mean = _stress(baseline, p, trials, seed + 1, engine)
            robust_rate, robust_mean = _stress(
                robust.schedule, p, trials, seed + 1, engine
            )
            rows.append(
                RobustnessRow(
                    family=graph.name,
                    n=graph.n,
                    mode=mode.value,
                    p=p,
                    trials=trials,
                    baseline_rounds=baseline_value.rounds,
                    baseline_completion=base_rate,
                    baseline_mean=base_mean,
                    robust_rounds=robust.found_rounds,
                    robust_completion=robust_rate,
                    robust_mean=robust_mean,
                    worst_case_k1=worst_report.rounds,
                    engine=resolved.name,
                )
            )
    return rows
