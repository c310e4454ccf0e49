"""Local-search drivers: seeded hill climbing and simulated annealing.

Both drivers walk the :class:`~repro.search.moves.Neighborhood` move graph
over candidate periods, scoring every candidate through one
:class:`~repro.search.objective._CachedObjective` per walk: repeated
periods are memoized, candidates resume the checkpoints of periods they
share a prefix with, and under ``gossip_rounds`` the hill climb bounds each
run at the incumbent's completion round.  None of that changes a score or
an accept decision, only what an evaluation costs; ``evaluations`` counts
engine runs.  Everything is deterministic given the ``seed``: the same seed
replays the same move sequence, the same candidate stream and therefore the
same winner, which is what the reproducibility tests pin.

:func:`synthesize_schedule` is the one-call entry point: it builds the
constructive seeds (edge colouring, greedy frontier, plus random schedules
drawn through :func:`repro.gossip.builders.random_systolic_schedule` with a
shared ``rng`` — the schedule fuzzer doubling as the restart generator),
scores them as one batch, and runs the selected driver from the best seeds.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import SimulationEngine
from repro.gossip.model import Mode, Round, SystolicSchedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.search.constructors import greedy_frontier_schedule
from repro.search.moves import Neighborhood
from repro.search.objective import (
    ObjectiveValue,
    RobustnessSpec,
    _CachedObjective,
    resolve_objective_engine,
)
from repro.topologies.base import Digraph

__all__ = ["SearchResult", "hill_climb", "simulated_annealing", "synthesize_schedule"]

_log = logging.getLogger("repro.search")

#: Strategy names accepted by :func:`synthesize_schedule`.
STRATEGIES = ("hill", "anneal")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    ``schedule`` is the winning period as a fully validated
    :class:`~repro.gossip.model.SystolicSchedule`; ``objective`` its score;
    ``evaluations`` counts engine runs (the search's unit of cost);
    ``history`` traces the best score after each improvement (for plots and
    convergence assertions).  Search telemetry (accept/reject counts,
    checkpoint-cache hit rates, ...) goes to the installed recorder only.
    """

    schedule: SystolicSchedule
    objective: ObjectiveValue
    evaluations: int
    iterations: int
    restarts: int
    seed_name: str
    history: tuple[float, ...]

    @property
    def found_rounds(self) -> int | None:
        """Gossip rounds of the winner (``None`` if it never completed)."""
        return self.objective.rounds


def _key(value: ObjectiveValue, rounds: tuple[Round, ...]) -> tuple[float, int, int]:
    """Comparison key: score, then fewer rounds per period, then fewer arcs.

    Among equally fast schedules the search prefers shorter periods and
    sparser rounds — cheaper to certify, cheaper to deploy.
    """
    return (value.score, len(rounds), sum(len(r) for r in rounds))


def _portfolio_seeds(
    graph: Digraph, mode: Mode, rng: random.Random, random_seeds: int
) -> list[SystolicSchedule]:
    """The constructive seed portfolio every synthesis starts from.

    Edge colouring, the greedy frontier constructor, and ``random_seeds``
    random schedules drawn through the shared ``rng`` (the differential
    fuzzer's generator doubling as the restart source).  Shared with the
    island search so ``workers=`` never changes which seeds exist.
    """
    seeds: list[SystolicSchedule] = [
        coloring_systolic_schedule(graph, mode),
        greedy_frontier_schedule(graph, mode),
    ]
    baseline_period = seeds[0].period
    for _ in range(random_seeds):
        seeds.append(random_systolic_schedule(graph, baseline_period, mode, rng=rng))
    return seeds


def _scored_portfolio(
    graph: Digraph,
    mode: Mode,
    rng: random.Random,
    random_seeds: int,
    engine,
    objective: str,
    robustness,
) -> tuple[list[tuple[ObjectiveValue, SystolicSchedule]], SimulationEngine, int]:
    """The seed portfolio, scored best first, for both synthesis drivers.

    Returns ``(scored, engine, evaluations)``.  One workload-aware
    resolution serves the whole synthesis: the resolved instance scores the
    seeds as one batch and is then threaded through every driver pass, so
    every candidate runs on the same backend.  The seed evaluator's
    telemetry — its ``search.incremental`` counters and per-evaluation
    histograms — is flushed here, once.
    """
    seeds = _portfolio_seeds(graph, mode, rng, random_seeds)
    resolved = resolve_objective_engine(
        engine, graph, tuple(seeds[0].base_rounds), objective=objective
    )
    evaluator = _CachedObjective(graph, resolved, objective, robustness)
    with telemetry.span(
        "search.seed_scoring", graph=graph.name, seeds=len(seeds)
    ):
        scored = sorted(
            ((evaluator(tuple(s.base_rounds)), s) for s in seeds),
            key=lambda pair: _key(pair[0], tuple(pair[1].base_rounds)),
        )
    rec = telemetry.get_recorder()
    if rec.enabled:
        evaluator.flush(rec)
    return scored, resolved, evaluator.evaluations


def _finalize(
    schedule: SystolicSchedule,
    best_rounds: tuple[Round, ...],
    best_value: ObjectiveValue,
    evaluator: _CachedObjective,
    iterations: int,
    restarts: int,
    seed_name: str,
    history: list[float],
    *,
    driver: str = "search",
    accepts: int = 0,
    rejects: int = 0,
    start_ns: int = 0,
) -> SearchResult:
    winner = SystolicSchedule(
        schedule.graph,
        best_rounds,
        mode=schedule.mode,
        name=f"{schedule.graph.name}-opt-{schedule.mode.value}-s{len(best_rounds)}",
    )
    _log.info(
        "%s finished on %s: score=%s evaluations=%d iterations=%d",
        driver, schedule.graph.name, best_value.score,
        evaluator.evaluations, iterations,
    )
    rec = telemetry.get_recorder()
    if rec.enabled:
        counts = {
            "runs": 1,
            "iterations": iterations,
            "accepts": accepts,
            "rejects": rejects,
            "evaluations": evaluator.evaluations,
            "improvements": max(0, len(history) - 1),
        }
        rec.counters(f"search.{driver}", counts)
        # The evaluator's cumulative totals for this walk, flushed exactly
        # once at walk end.
        evaluator.flush(rec)
        if start_ns:
            telemetry.record_span(
                f"search.{driver}", start_ns,
                graph=schedule.graph.name, engine=evaluator.engine.name,
            )
    return SearchResult(
        schedule=winner,
        objective=best_value,
        evaluations=evaluator.evaluations,
        iterations=iterations,
        restarts=restarts,
        seed_name=seed_name,
        history=tuple(history),
    )


def hill_climb(
    schedule: SystolicSchedule,
    *,
    objective: str = "gossip_rounds",
    seed: int = 0,
    rng: random.Random | None = None,
    max_iters: int = 200,
    patience: int = 60,
    neighborhood: Neighborhood | None = None,
    engine: str | SimulationEngine | None = "auto",
    robustness: RobustnessSpec | None = None,
    initial_value: ObjectiveValue | None = None,
) -> SearchResult:
    """First-improvement hill climbing from one seed schedule.

    Proposes one random neighbour per iteration and accepts it when its
    comparison key (score, then period, then activation count) improves;
    stops after ``max_iters`` proposals or ``patience`` consecutive
    rejections.  ``initial_value`` skips re-scoring a seed the caller
    already evaluated (``synthesize_schedule`` scores all seeds as a batch).

    Under the ``gossip_rounds`` objective each candidate's budget is
    bounded at a complete incumbent's completion round (other objectives
    run every candidate to its full budget), which preserves every
    accept/reject decision and therefore the visited state sequence, the
    winner and the improvement history bit for bit.
    """
    _t0 = time.perf_counter_ns() if telemetry.get_recorder().enabled else 0
    rng = rng if rng is not None else random.Random(seed)
    moves = neighborhood or Neighborhood(schedule.graph, schedule.mode)
    evaluator = _CachedObjective(
        schedule.graph,
        resolve_objective_engine(
            engine, schedule.graph, schedule.base_rounds, objective=objective
        ),
        objective,
        robustness,
    )

    current = tuple(schedule.base_rounds)
    current_value = initial_value if initial_value is not None else evaluator(current)
    best_rounds, best_value = current, current_value
    history = [current_value.score]

    stale = 0
    iterations = 0
    accepts = rejects = 0
    log_info = _log.isEnabledFor(logging.INFO)
    for iterations in range(1, max_iters + 1):
        candidate = moves.propose(current, rng)
        if candidate == current:
            stale += 1
            if stale >= patience:
                break
            continue
        # A complete incumbent's completion round bounds how far any
        # *improving* candidate can need to run; ties at the cutoff are
        # still scored exactly, keeping the secondary key comparisons
        # (period length, arc count) intact.
        cutoff = current_value.rounds if current_value.complete else None
        value = evaluator(candidate, cutoff=cutoff)
        if _key(value, candidate) < _key(current_value, current):
            current, current_value = candidate, value
            stale = 0
            accepts += 1
            if _key(value, candidate) < _key(best_value, best_rounds):
                best_rounds, best_value = candidate, value
                history.append(value.score)
                if log_info:
                    _log.info(
                        "hill_climb improvement at iteration %d: score %s",
                        iterations, value.score,
                    )
        else:
            rejects += 1
            stale += 1
            if stale >= patience:
                break
    return _finalize(
        schedule, best_rounds, best_value, evaluator, iterations, 0,
        schedule.name, history,
        driver="hill_climb", accepts=accepts, rejects=rejects, start_ns=_t0,
    )


def simulated_annealing(
    schedule: SystolicSchedule,
    *,
    objective: str = "gossip_rounds",
    seed: int = 0,
    rng: random.Random | None = None,
    max_iters: int = 400,
    initial_temperature: float = 2.0,
    cooling: float = 0.985,
    restarts: int = 1,
    neighborhood: Neighborhood | None = None,
    engine: str | SimulationEngine | None = "auto",
    robustness: RobustnessSpec | None = None,
    initial_value: ObjectiveValue | None = None,
) -> SearchResult:
    """Simulated annealing with geometric cooling and best-state restarts.

    The walk accepts strictly improving neighbours always and worsening ones
    with probability ``exp(-Δscore / T)``; the temperature decays by
    ``cooling`` per iteration.  After each of the ``restarts`` reheats the
    walk restarts *from the best state seen so far* at the initial
    temperature, which keeps exploration anchored without losing the
    incumbent.  The returned winner is always the best state ever visited.
    ``initial_value`` skips re-scoring a pre-evaluated seed, as in
    :func:`hill_climb`.

    No budget cutoff applies here: the Boltzmann acceptance needs every
    candidate's *exact* score, not just the reject decision a truncated run
    can prove.
    """
    if not 0.0 < cooling < 1.0:
        raise SimulationError(f"cooling must lie in (0, 1), got {cooling}")
    _t0 = time.perf_counter_ns() if telemetry.get_recorder().enabled else 0
    rng = rng if rng is not None else random.Random(seed)
    moves = neighborhood or Neighborhood(schedule.graph, schedule.mode)
    evaluator = _CachedObjective(
        schedule.graph,
        resolve_objective_engine(
            engine, schedule.graph, schedule.base_rounds, objective=objective
        ),
        objective,
        robustness,
    )

    best_rounds = tuple(schedule.base_rounds)
    best_value = initial_value if initial_value is not None else evaluator(best_rounds)
    history = [best_value.score]

    iterations = 0
    accepts = rejects = 0
    for restart in range(restarts + 1):
        current, current_value = best_rounds, best_value
        temperature = initial_temperature
        for _ in range(max_iters):
            iterations += 1
            candidate = moves.propose(current, rng)
            if candidate == current:
                temperature *= cooling
                continue
            value = evaluator(candidate)
            delta = value.score - current_value.score
            if delta < 0 or (
                temperature > 1e-12 and rng.random() < math.exp(-delta / temperature)
            ):
                accepts += 1
                current, current_value = candidate, value
                if _key(value, candidate) < _key(best_value, best_rounds):
                    best_rounds, best_value = candidate, value
                    history.append(value.score)
            else:
                rejects += 1
            temperature *= cooling
    return _finalize(
        schedule, best_rounds, best_value, evaluator, iterations, restarts,
        schedule.name, history,
        driver="simulated_annealing", accepts=accepts, rejects=rejects,
        start_ns=_t0,
    )


def synthesize_schedule(
    graph: Digraph,
    mode: Mode = Mode.HALF_DUPLEX,
    *,
    strategy: str = "anneal",
    objective: str = "gossip_rounds",
    seed: int = 0,
    max_iters: int = 300,
    restarts: int = 1,
    random_seeds: int = 1,
    neighborhood: Neighborhood | None = None,
    engine: str | SimulationEngine | None = "auto",
    robustness: RobustnessSpec | None = None,
    workers: int | None = None,
) -> SearchResult:
    """Synthesize an s-systolic gossip schedule for ``graph`` under ``mode``.

    Seeds the search with the edge-colouring baseline, the greedy
    frontier-aware constructor and ``random_seeds`` random schedules (drawn
    through :func:`~repro.gossip.builders.random_systolic_schedule` with a
    shared ``rng`` — the differential fuzzer's generator doubling as the
    restart source), scores all seeds as one batch on a single resolved
    engine, then runs the chosen local-search driver from the two best
    seeds and returns the overall winner.  ``restarts`` means annealing
    reheats for ``strategy="anneal"`` and additional best-state re-walks
    for ``strategy="hill"``.

    ``workers`` switches to the multi-process island search
    (:func:`~repro.search.islands.run_island_search`): the same seed
    portfolio feeds a fixed number of driver populations with periodic
    best-candidate migration, fanned out over that many worker processes.
    The island result is a pure function of the configuration — any
    ``workers`` count (including ``1``, which runs in-process) returns the
    same winner bit for bit; the count only sets the throughput.

    Deterministic for a fixed ``(strategy, objective, seed, …)``
    configuration; see :mod:`repro.search` for strategy-selection guidance.
    """
    if strategy not in STRATEGIES:
        raise SimulationError(
            f"unknown search strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if workers is not None:
        if neighborhood is not None:
            raise SimulationError(
                "island search rebuilds the default neighborhood in each "
                "worker; a custom neighborhood= cannot be combined with workers="
            )
        from repro.search.islands import run_island_search

        return run_island_search(
            graph,
            mode,
            strategy=strategy,
            objective=objective,
            seed=seed,
            max_iters=max_iters,
            restarts=restarts,
            random_seeds=random_seeds,
            workers=workers,
            engine=engine,
            robustness=robustness,
        )
    rng = random.Random(seed)
    scored, resolved, seed_evaluations = _scored_portfolio(
        graph, mode, rng, random_seeds, engine, objective, robustness
    )

    moves = neighborhood or Neighborhood(graph, mode)
    # Each entry keeps the *originating* seed's name: a hill pass re-walked
    # from a previous pass's winner still traces back to the real seed.
    results: list[tuple[str, SearchResult]] = []
    for value, candidate in scored[:2]:
        kwargs = dict(
            objective=objective,
            rng=rng,
            max_iters=max_iters,
            neighborhood=moves,
            engine=resolved,
            robustness=robustness,
        )
        if strategy == "anneal":
            results.append(
                (
                    candidate.name,
                    simulated_annealing(
                        candidate, restarts=restarts, initial_value=value, **kwargs
                    ),
                )
            )
        else:
            # Random-restart hill climbing: every pass re-walks from the best
            # schedule so far, the shared rng driving a fresh move sequence.
            current, current_value = candidate, value
            for _ in range(max(0, restarts) + 1):
                run = hill_climb(current, initial_value=current_value, **kwargs)
                results.append((candidate.name, run))
                current, current_value = run.schedule, run.objective

    best_seed, best = min(
        results, key=lambda pair: _key(pair[1].objective, tuple(pair[1].schedule.base_rounds))
    )
    return SearchResult(
        schedule=best.schedule,
        objective=best.objective,
        evaluations=seed_evaluations + sum(r.evaluations for _, r in results),
        iterations=sum(r.iterations for _, r in results),
        restarts=restarts,
        seed_name=best_seed,
        history=best.history,
    )
