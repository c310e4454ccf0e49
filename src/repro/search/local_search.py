"""Local-search drivers: seeded hill climbing and simulated annealing.

Both drivers walk the :class:`~repro.search.moves.Neighborhood` move graph
over candidate periods, scoring every candidate through the engine registry
(:mod:`repro.search.objective`).  Everything is deterministic given the
``seed``: the same seed replays the same move sequence, the same candidate
stream and therefore the same winner, which is what the reproducibility
tests pin.

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
from dataclasses import dataclass, field

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import SimulationEngine, resolve_engine
from repro.gossip.model import Mode, Round, SystolicSchedule
from repro.search.constructors import edge_coloring_seed, greedy_frontier_schedule
from repro.search.moves import Neighborhood
from repro.search.objective import (
    ObjectiveValue,
    RobustnessSpec,
    _CachedObjective,
    evaluate_program,
    program_for_rounds,
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
    convergence assertions).  ``run_stats`` carries the telemetry roll-up
    (accept/reject counts, checkpoint-cache hit rates, ...) when a recorder
    was active for the search, ``None`` otherwise; it is excluded from
    equality/repr so recording can never change what two results compare
    as.
    """

    schedule: SystolicSchedule
    objective: ObjectiveValue
    evaluations: int
    iterations: int
    restarts: int
    seed_name: str
    history: tuple[float, ...]
    run_stats: "telemetry.RunStats | None" = field(
        default=None, compare=False, repr=False
    )

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


class _Evaluator:
    """Counts engine runs and owns the resolved backend for one search.

    ``robustness`` (a :class:`~repro.search.objective.RobustnessSpec`) is
    resolved here once per search, so every candidate of the run is scored
    against the same seeded fault sample.

    ``incremental=True`` swaps the per-candidate :func:`evaluate_program`
    call for a per-walk :class:`~repro.search.objective._CachedObjective`:
    repeated periods are memoized, checkpointable engines resume shared
    period prefixes instead of re-simulating them, and drivers holding a
    complete incumbent may pass ``cutoff`` to bound a candidate's budget
    at the incumbent's completion round.  Every *accepted* candidate is
    still scored exactly (cutoff rejects return an ``inf`` sentinel whose
    reject decision matches the exact score's), so a walk visits the
    identical state sequence either way — incremental mode changes the
    cost of an evaluation, never its outcome.
    """

    def __init__(
        self,
        graph: Digraph,
        engine,
        objective: str,
        robustness=None,
        *,
        incremental: bool = False,
        seed_rounds: tuple[Round, ...] | None = None,
    ) -> None:
        self.graph = graph
        # ``seed_rounds`` (the walk's starting period) gives "auto" a
        # representative workload shape; an explicit engine or an instance
        # resolves the same either way.
        self.engine: SimulationEngine = (
            resolve_objective_engine(
                engine, graph, seed_rounds, objective=objective, incremental=incremental
            )
            if seed_rounds is not None
            else resolve_engine(engine)
        )
        self.objective = objective
        self.robustness = robustness
        self.incremental = incremental
        self._cached = (
            _CachedObjective(graph, self.engine, objective, robustness)
            if incremental
            else None
        )
        self._plain_evaluations = 0
        # Same snapshot discipline as _CachedObjective: per-evaluation
        # timing is only paid when a recorder was installed at construction.
        self._telem = telemetry.get_recorder().enabled
        self._plain_eval_ns = telemetry.Histogram()

    @property
    def evaluations(self) -> int:
        if self._cached is not None:
            return self._cached.evaluations
        return self._plain_evaluations

    def __call__(
        self, rounds: tuple[Round, ...], *, cutoff: int | None = None
    ) -> ObjectiveValue:
        if self._cached is not None:
            return self._cached(rounds, cutoff=cutoff)
        self._plain_evaluations += 1
        _t0 = time.perf_counter_ns() if self._telem else 0
        value = evaluate_program(
            program_for_rounds(self.graph, rounds),
            self.engine,
            objective=self.objective,
            robustness=self.robustness,
        )
        if self._telem:
            self._plain_eval_ns.add(time.perf_counter_ns() - _t0)
        return value

    def stats_histograms(self) -> dict[str, telemetry.Histogram]:
        """Per-evaluation distributions, flushed once by the owning search."""
        if self._cached is not None:
            return self._cached.stats_histograms()
        return {"search.eval_ns": self._plain_eval_ns}


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
        edge_coloring_seed(graph, mode),
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
    incremental: bool,
) -> tuple[
    list[tuple[ObjectiveValue, SystolicSchedule]],
    SimulationEngine,
    int,
    "telemetry.RunStats | None",
]:
    """The seed portfolio, scored best first, for both synthesis drivers.

    Returns ``(scored, engine, evaluations, run_stats)``.  One workload-aware
    resolution serves the whole synthesis: the resolved instance scores the
    seeds as one batch and is then threaded through every driver pass, so
    every candidate runs on the same backend.  The seed evaluator's
    telemetry — its ``search.incremental`` counters and per-evaluation
    histograms — is flushed here, once, and returned as ``run_stats`` for
    the caller's roll-up (``None`` when no recorder is active).
    """
    seeds = _portfolio_seeds(graph, mode, rng, random_seeds)
    resolved = resolve_objective_engine(
        engine, graph, tuple(seeds[0].base_rounds), objective=objective,
        incremental=incremental,
    )
    evaluator = _Evaluator(
        graph, resolved, objective, robustness, incremental=incremental
    )
    with telemetry.span(
        "search.seed_scoring", graph=graph.name, seeds=len(seeds)
    ):
        scored = sorted(
            ((evaluator(tuple(s.base_rounds)), s) for s in seeds),
            key=lambda pair: _key(pair[0], tuple(pair[1].base_rounds)),
        )
    rec = telemetry.get_recorder()
    run_stats = None
    if rec.enabled:
        run_stats = telemetry.RunStats()
        if evaluator._cached is not None:
            seed_counts = evaluator._cached.stats_counters()
            rec.counters("search.incremental", seed_counts)
            run_stats.add_counters("search.incremental", seed_counts)
        for name, hist in evaluator.stats_histograms().items():
            if hist.count:
                rec.histogram(name, hist)
                run_stats.add_histogram(name, hist)
    return scored, resolved, evaluator.evaluations, run_stats


def _finalize(
    schedule: SystolicSchedule,
    best_rounds: tuple[Round, ...],
    best_value: ObjectiveValue,
    evaluator: _Evaluator,
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
    run_stats = None
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
        run_stats = telemetry.RunStats.single(f"search.{driver}", counts)
        if evaluator._cached is not None:
            # The cached objective's cumulative totals for this walk,
            # flushed exactly once at walk end.
            inc = evaluator._cached.stats_counters()
            rec.counters("search.incremental", inc)
            run_stats.add_counters("search.incremental", inc)
        for name, hist in evaluator.stats_histograms().items():
            if hist.count:
                rec.histogram(name, hist)
                run_stats.add_histogram(name, hist)
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
        run_stats=run_stats,
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
    incremental: bool = False,
) -> SearchResult:
    """First-improvement hill climbing from one seed schedule.

    Proposes one random neighbour per iteration and accepts it when its
    comparison key (score, then period, then activation count) improves;
    stops after ``max_iters`` proposals or ``patience`` consecutive
    rejections.  ``initial_value`` skips re-scoring a seed the caller
    already evaluated (``synthesize_schedule`` scores all seeds as a batch).

    ``incremental=True`` evaluates candidates through the checkpoint-
    reusing cached objective (see :class:`_Evaluator`); the climb
    additionally bounds each candidate's budget at the incumbent's
    completion round, which preserves every accept/reject decision and
    therefore the visited state sequence, the winner and the improvement
    history bit for bit.
    """
    _t0 = time.perf_counter_ns() if telemetry.get_recorder().enabled else 0
    rng = rng if rng is not None else random.Random(seed)
    moves = neighborhood or Neighborhood(schedule.graph, schedule.mode)
    evaluator = _Evaluator(
        schedule.graph, engine, objective, robustness,
        incremental=incremental, seed_rounds=tuple(schedule.base_rounds),
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
    incremental: bool = False,
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

    ``incremental=True`` enables memoized, checkpoint-resuming candidate
    evaluation (see :class:`_Evaluator`).  No budget cutoff applies here:
    the Boltzmann acceptance needs every candidate's *exact* score, not
    just the reject decision a truncated run can prove.
    """
    if not 0.0 < cooling < 1.0:
        raise SimulationError(f"cooling must lie in (0, 1), got {cooling}")
    _t0 = time.perf_counter_ns() if telemetry.get_recorder().enabled else 0
    rng = rng if rng is not None else random.Random(seed)
    moves = neighborhood or Neighborhood(schedule.graph, schedule.mode)
    evaluator = _Evaluator(
        schedule.graph, engine, objective, robustness,
        incremental=incremental, seed_rounds=tuple(schedule.base_rounds),
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
    incremental: bool = False,
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
    ``incremental`` threads checkpoint-reusing evaluation (see
    :func:`hill_climb`) through seed scoring and every driver pass without
    changing any outcome.
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
            incremental=incremental,
        )
    rng = random.Random(seed)
    scored, resolved, seed_evaluations, run_stats = _scored_portfolio(
        graph, mode, rng, random_seeds, engine, objective, robustness, incremental
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
            incremental=incremental,
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
    total_evaluations = seed_evaluations + sum(r.evaluations for _, r in results)
    if run_stats is not None:
        # Roll the driver passes' stats up into the synthesis-level summary.
        for _, r in results:
            run_stats.merge(r.run_stats)
    return SearchResult(
        schedule=best.schedule,
        objective=best.objective,
        evaluations=total_evaluations,
        iterations=sum(r.iterations for _, r in results),
        restarts=restarts,
        seed_name=best_seed,
        history=best.history,
        run_stats=run_stats,
    )
