"""Multi-process island search over the local-search drivers.

An *island* is one independent population: a current candidate schedule
plus a private random stream, advanced one *generation* at a time by the
ordinary local-search drivers (:func:`~repro.search.local_search.hill_climb`
or :func:`~repro.search.local_search.simulated_annealing`).  After every
generation the islands synchronise: the globally best candidate is
computed, and every island whose own incumbent is strictly worse adopts it
(periodic best-candidate migration).  Generations are embarrassingly
parallel, so they are fanned out over a
:class:`concurrent.futures.ProcessPoolExecutor`.

Determinism regardless of worker count
--------------------------------------
The parallel schedule is fixed *before* any work is distributed:

* island ``i``'s per-generation driver seeds come from its own
  :class:`numpy.random.SeedSequence` stream (``SeedSequence(seed).spawn``),
  a pure function of ``(seed, i)`` — never of which process runs the task
  or in which order tasks finish;
* tasks carry everything a worker needs (the graph, the candidate payload,
  the pinned engine *name*, the pre-computed seed word), so a worker holds
  no cross-task state;
* reports are consumed in island order at a per-generation barrier, so
  migration decisions — the only cross-island coupling — see the same
  inputs in the same order whether the generation ran in-process
  (``workers=1``) or across any number of processes.

Hence ``run_island_search(..., workers=4)`` returns the same winner,
objective and history as ``workers=1``, bit for bit — the property
``tests/test_search_islands.py`` pins.

Everything crossing the process boundary is a plain picklable value
(spawn-start-method safe: the worker entry point is a module-level
function).  Candidates travel as :class:`CandidatePayload` — the graph-free
wire form of a :class:`~repro.gossip.model.SystolicSchedule` — and are
revalidated on decode.

When a :mod:`repro.telemetry` recorder is active the search flushes one
``search.islands`` counter set (``islands``, ``generations``,
``migrations``, ``island_evaluations``), a ``search.islands.workers``
histogram (one sample per search, so worker counts never sum), a
``search.islands.best_score`` gauge, and a ``search.islands`` span — and
it merges the workers' telemetry back in.  Every island generation runs
under a *worker-side* :class:`~repro.telemetry.StatsRecorder` (in the
worker process on the pool path, as a nested recorder in-process when
``workers=1`` — the task is recorded identically either way), and the
frozen :class:`~repro.telemetry.RunStats` rides home inside the
:class:`_IslandReport`.  The driver re-parents the worker spans under its
own ``search.islands`` span (:func:`repro.telemetry.reparented` — fresh
span ids, so cross-process id collisions cannot alias), replays them
through the active recorder (:meth:`~repro.telemetry.Recorder.absorb`,
so streaming sinks see worker records too).  That recorder is the only
place the search's telemetry accumulates (the :class:`SearchResult`
carries none), and it accounts for every island evaluation identically
for any ``workers`` value.  Worker span timestamps are kept verbatim;
``perf_counter_ns`` origins differ between processes, so durations and
in-worker ordering are meaningful but cross-process start times are not
comparable.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.model import Mode, Round, SystolicSchedule
from repro.search.local_search import (
    STRATEGIES,
    SearchResult,
    _key,
    _scored_portfolio,
    hill_climb,
    simulated_annealing,
)
from repro.search.objective import ObjectiveValue, RobustnessSpec
from repro.topologies.base import Digraph

__all__ = [
    "CandidatePayload",
    "encode_candidate",
    "decode_candidate",
    "run_island_search",
]


@dataclass(frozen=True)
class CandidatePayload:
    """Graph-free wire form of one candidate schedule.

    Only the base rounds (label-pair arc tuples), the mode value and the
    name cross the process boundary; the receiving side re-attaches its own
    :class:`~repro.topologies.base.Digraph` and revalidates the rounds
    through the :class:`~repro.gossip.model.SystolicSchedule` constructor,
    so a corrupted payload fails loudly instead of simulating garbage.
    """

    rounds: tuple[Round, ...]
    mode: str
    name: str


def encode_candidate(schedule: SystolicSchedule) -> CandidatePayload:
    """The payload a schedule travels as between island processes."""
    return CandidatePayload(
        rounds=tuple(schedule.base_rounds),
        mode=schedule.mode.value,
        name=schedule.name,
    )


def decode_candidate(payload: CandidatePayload, graph: Digraph) -> SystolicSchedule:
    """Rebuild (and revalidate) a schedule from its wire form."""
    return SystolicSchedule(
        graph, payload.rounds, mode=Mode(payload.mode), name=payload.name
    )


@dataclass(frozen=True)
class _IslandTask:
    """One generation of one island, self-contained and picklable."""

    island: int
    graph: Digraph
    candidate: CandidatePayload
    initial_value: ObjectiveValue
    seed_name: str
    strategy: str
    objective: str
    seed: int
    max_iters: int
    restarts: int
    engine_name: str
    robustness: RobustnessSpec | None
    #: Record worker-side telemetry and ship it home.  Set uniformly for
    #: every task of a search (from the driver's recorder state), never
    #: per-worker — recording must not depend on where a task runs.
    record: bool = False


@dataclass(frozen=True)
class _IslandReport:
    """What a generation sends back: the island's new incumbent."""

    island: int
    candidate: CandidatePayload
    objective: ObjectiveValue
    seed_name: str
    evaluations: int
    iterations: int
    #: The generation's frozen worker-side telemetry (``task.record`` only).
    run_stats: "telemetry.RunStats | None" = None


def _run_island_task(task: _IslandTask) -> _IslandReport:
    """Advance one island by one generation (module-level: spawn-safe)."""
    schedule = decode_candidate(task.candidate, task.graph)
    kwargs = dict(
        objective=task.objective,
        seed=task.seed,
        max_iters=task.max_iters,
        engine=task.engine_name,
        robustness=task.robustness,
        initial_value=task.initial_value,
    )

    def _drive():
        if task.strategy == "anneal":
            return simulated_annealing(schedule, restarts=task.restarts, **kwargs)
        return hill_climb(schedule, **kwargs)

    run_stats = None
    if task.record:
        # The worker-side recorder captures everything the generation's
        # driver and engines self-report (counters, histograms, spans,
        # events); the frozen roll-up travels back in the report.  The
        # in-process path installs it as a nested recorder, so workers=1
        # accounts identically to any pool fan-out.
        worker_rec = telemetry.StatsRecorder()
        with telemetry.recording(worker_rec):
            result = _drive()
        run_stats = worker_rec.stats
    else:
        result = _drive()
    return _IslandReport(
        island=task.island,
        candidate=encode_candidate(result.schedule),
        objective=result.objective,
        seed_name=task.seed_name,
        evaluations=result.evaluations,
        iterations=result.iterations,
        run_stats=run_stats,
    )


def run_island_search(
    graph: Digraph,
    mode: Mode = Mode.HALF_DUPLEX,
    *,
    strategy: str = "anneal",
    objective: str = "gossip_rounds",
    seed: int = 0,
    max_iters: int = 300,
    restarts: int = 1,
    random_seeds: int = 1,
    islands: int = 4,
    generations: int = 4,
    workers: int = 1,
    engine="auto",
    robustness: RobustnessSpec | None = None,
) -> SearchResult:
    """Synthesize a schedule with a parallel island population.

    Builds and batch-scores the same constructive seed portfolio as
    :func:`~repro.search.local_search.synthesize_schedule`, starts
    ``islands`` populations from the best seeds (cycling through the scored
    order), and runs ``generations`` rounds of *drive then migrate*: every
    island advances by ``⌈max_iters / generations⌉`` driver iterations on
    its own seed stream, then strictly-worse islands adopt the global best
    incumbent.  ``workers`` only sets the process fan-out — the result is a
    pure function of the search configuration (see the module docstring),
    so any worker count reproduces the ``workers=1`` run bit for bit.

    The engine is resolved once (workload-aware) and pinned *by name* in
    every worker, so all islands score on the same backend.  ``restarts``
    is forwarded to each annealing generation (reheats); hill-climb islands
    restart implicitly through migration.
    """
    if strategy not in STRATEGIES:
        raise SimulationError(
            f"unknown search strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if workers < 1:
        raise SimulationError(f"at least one worker is required, got {workers}")
    if islands < 1:
        raise SimulationError(f"at least one island is required, got {islands}")
    if generations < 1:
        raise SimulationError(
            f"at least one generation is required, got {generations}"
        )
    _t0 = time.perf_counter_ns() if telemetry.get_recorder().enabled else 0
    # The search.islands span id is allocated up front so worker spans can
    # be re-parented under it as reports arrive, before the span itself is
    # recorded at flush time.
    _islands_span_id = telemetry.next_span_id() if _t0 else None

    scored, resolved, seed_evaluations = _scored_portfolio(
        graph, mode, random.Random(seed), random_seeds, engine, objective,
        robustness,
    )

    # The whole parallel schedule is fixed up front: island i's generation-g
    # driver seed is word g of its own SeedSequence stream.
    streams = np.random.SeedSequence(seed).spawn(islands)
    seed_words = [stream.generate_state(generations, dtype=np.uint64) for stream in streams]

    current: list[tuple[CandidatePayload, ObjectiveValue, str]] = []
    for i in range(islands):
        value, candidate = scored[i % len(scored)]
        current.append((encode_candidate(candidate), value, candidate.name))
    best_candidate, best_value, best_name = min(
        current, key=lambda entry: _key(entry[1], entry[0].rounds)
    )
    history = [best_value.score]

    per_generation = max(1, math.ceil(max_iters / generations))
    migrations = 0
    island_evaluations = 0
    total_iterations = 0
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for generation in range(generations):
            tasks = [
                _IslandTask(
                    island=i,
                    graph=graph,
                    candidate=current[i][0],
                    initial_value=current[i][1],
                    seed_name=current[i][2],
                    strategy=strategy,
                    objective=objective,
                    seed=int(seed_words[i][generation]),
                    max_iters=per_generation,
                    restarts=restarts,
                    engine_name=resolved.name,
                    robustness=robustness,
                    record=bool(_t0),
                )
                for i in range(islands)
            ]
            if executor is None:
                reports = [_run_island_task(task) for task in tasks]
            else:
                reports = list(executor.map(_run_island_task, tasks))
            # Consume in island order: the only cross-island coupling below
            # (global-best updates, history) must not depend on completion
            # order.
            for report in sorted(reports, key=lambda r: r.island):
                island_evaluations += report.evaluations
                total_iterations += report.iterations
                if report.run_stats is not None:
                    # Fresh driver-side span ids + attachment under the
                    # pre-allocated search.islands span; then replay through
                    # the active recorder so streaming sinks emit the worker
                    # records.
                    telemetry.get_recorder().absorb(
                        telemetry.reparented(report.run_stats, _islands_span_id)
                    )
                current[report.island] = (
                    report.candidate,
                    report.objective,
                    report.seed_name,
                )
                if _key(report.objective, report.candidate.rounds) < _key(
                    best_value, best_candidate.rounds
                ):
                    best_candidate = report.candidate
                    best_value = report.objective
                    best_name = report.seed_name
                    history.append(report.objective.score)
            if generation < generations - 1:
                best_key = _key(best_value, best_candidate.rounds)
                for i in range(islands):
                    payload, value, name = current[i]
                    if _key(value, payload.rounds) > best_key:
                        current[i] = (best_candidate, best_value, best_name)
                        migrations += 1
    finally:
        if executor is not None:
            executor.shutdown()

    winner = decode_candidate(best_candidate, graph)
    rec = telemetry.get_recorder()
    if rec.enabled:
        counts = {
            "runs": 1,
            "islands": islands,
            "generations": generations,
            "migrations": migrations,
            "island_evaluations": island_evaluations,
        }
        rec.counters("search.islands", counts)
        # A setting, not an amount: a histogram keeps it from summing across runs.
        rec.histogram("search.islands.workers", telemetry.Histogram.of(workers))
        rec.gauge("search.islands.best_score", best_value.score)
        telemetry.record_span(
            "search.islands", _t0,
            graph=graph.name, engine=resolved.name, workers=workers,
            span_id=_islands_span_id,
        )
    return SearchResult(
        schedule=winner,
        objective=best_value,
        evaluations=seed_evaluations + island_evaluations,
        iterations=total_iterations,
        restarts=restarts,
        seed_name=best_name,
        history=tuple(history),
    )
