"""Experiment SEARCH — synthesized schedules vs. certified lower bounds.

For every (instance, mode) pair the table runs the full synthesis pipeline
(:func:`repro.search.synthesize_schedule`): seed from the edge-colouring
baseline and the greedy frontier constructor, locally search the
neighbourhood, then certify the winner
(:func:`repro.search.certified_gap`).  Each row reports the triple the
subsystem exists for — ``(found, lower_bound, gap)`` — next to the
edge-colouring baseline it had to beat.

Like the broadcast sweep, the table doubles as an engine exerciser: the
``engine`` parameter reaches every candidate evaluation, so running the
search under two backends is an end-to-end differential check on thousands
of simulations.  The search itself is deterministic for a fixed ``seed``,
so the table is reproducible row for row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gossip.model import Mode
from repro.protocols.generic import coloring_systolic_schedule
from repro.search import certified_gap, synthesize_schedule
from repro.search.objective import evaluate_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import (
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    torus_2d,
)
from repro.topologies.debruijn import de_bruijn
from repro.topologies.separators import family_parameters

__all__ = ["SearchGapRow", "search_gap_instances", "search_gaps_table"]


@dataclass(frozen=True)
class SearchGapRow:
    """One (instance, mode) line: baseline vs. synthesized vs. certified."""

    family: str
    n: int
    mode: str
    period: int
    baseline_rounds: int
    found: int
    lower_bound: int
    gap: int
    certified_rounds: int | None
    diameter_bound: int
    separator_coefficient: float | None
    evaluations: int
    engine: str

    @property
    def beats_baseline(self) -> bool:
        """Strictly fewer rounds than the plain edge-colouring schedule."""
        return self.found < self.baseline_rounds

    @property
    def consistent(self) -> bool:
        """The invariant the theory guarantees: found ≥ every lower bound."""
        return self.gap >= 0


def search_gap_instances() -> list[tuple[Digraph, tuple[float, float] | None]]:
    """The default battery: one instance per topology family of the paper.

    Each entry pairs a digraph with its family's ⟨α, ℓ⟩ separator constants
    (``None`` for the families Lemma 3.1 does not cover), which the gap
    report surfaces as the separator-refined asymptotic coefficient.
    """
    return [
        (cycle_graph(12), None),
        (path_graph(12), None),
        (grid_2d(3, 4), None),
        (torus_2d(4, 4), None),
        (hypercube(3), None),
        (de_bruijn(2, 3), family_parameters("DB", 2)),
    ]


def search_gaps_table(
    *,
    engine: str = "auto",
    seed: int = 0,
    strategy: str = "anneal",
    max_iters: int = 150,
    instances: list[tuple[Digraph, tuple[float, float] | None]] | None = None,
) -> list[SearchGapRow]:
    """Synthesize-and-certify every instance in both duplex modes."""
    from repro.search.objective import resolve_objective_engine

    rows: list[SearchGapRow] = []
    for graph, separator in (
        instances if instances is not None else search_gap_instances()
    ):
        for mode in (Mode.HALF_DUPLEX, Mode.FULL_DUPLEX):
            seed_schedule = coloring_systolic_schedule(graph, mode)
            # One workload-aware resolution per (instance, mode), keyed off
            # the baseline seed, so every candidate scores on one backend.
            resolved = resolve_objective_engine(
                engine, graph, tuple(seed_schedule.base_rounds)
            )
            baseline = evaluate_schedule(seed_schedule, engine=resolved)
            result = synthesize_schedule(
                graph,
                mode,
                strategy=strategy,
                seed=seed,
                max_iters=max_iters,
                engine=resolved,
            )
            report = certified_gap(
                result.schedule,
                found=result.found_rounds,
                engine=resolved,
                separator=separator,
            )
            assert baseline.rounds is not None  # colourings always complete
            assert report.found is not None and report.gap is not None
            rows.append(
                SearchGapRow(
                    family=graph.name,
                    n=graph.n,
                    mode=mode.value,
                    period=result.schedule.period,
                    baseline_rounds=baseline.rounds,
                    found=report.found,
                    lower_bound=report.lower_bound,
                    gap=report.gap,
                    certified_rounds=report.certified_rounds,
                    diameter_bound=report.diameter_bound,
                    separator_coefficient=report.separator_coefficient,
                    evaluations=result.evaluations,
                    engine=resolved.name,
                )
            )
    return rows
