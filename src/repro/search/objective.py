"""Objective evaluation for schedule search, through the engine registry.

Every candidate a search driver generates is scored by *running* it: the
rounds are wrapped into a :class:`~repro.gossip.engines.base.RoundProgram`
and executed by whichever simulation backend the caller selected
(``engine="auto" | name | instance`` — the same plumbing every other
simulation entry point uses).  Search is exactly the workload the fast
engines exist for: a single synthesis run evaluates hundreds to thousands
of candidates, so the per-candidate cost is the product that matters.
:func:`evaluate_candidates` is the batched path — it resolves the engine
once and streams all candidates through the same backend instance, so the
``auto``/environment lookup and any engine-level warm state are paid once
per batch rather than once per candidate.

Scores are "smaller is better".  A schedule that completes gossip scores
its completion round; one that does not is pushed far above every
completing schedule (``INCOMPLETE_PENALTY``) *plus* the number of
(vertex, item) pairs still missing, so local search can climb toward
completeness even before any candidate completes.

Fault-aware scoring
-------------------
The ``"robust_gossip_rounds"`` objective scores a candidate by its mean
behaviour over a fixed seeded fault sample (:class:`RobustnessSpec`): the
candidate first runs fault-free (an incomplete candidate is graded exactly
like ``gossip_rounds``); a completing candidate then runs ``spec.trials``
perturbed executions through the batched Monte-Carlo kernel and scores the
mean per-trial cost — the trial's completion round, or the horizon plus its
missing (vertex, item) pairs when the trial failed.  Because the fault
sample is re-derived from the same seed for every candidate, a whole
search (and every candidate of an :func:`evaluate_candidates` batch) is
scored against one fixed fault distribution, which keeps scores comparable
and the search deterministic while letting ``synthesize_schedule`` trade
nominal rounds for fault tolerance.
"""

from __future__ import annotations

import inspect
import math
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.faults.models import FaultModel
from repro.faults.montecarlo import _fault_sample, _run_batched_stacked
from repro.gossip.engines import SimulationEngine, resolve_engine, supports_checkpointing
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Round, SystolicSchedule
from repro.search.incremental import (
    CheckpointCache,
    PeriodKey,
    default_checkpoint_rounds,
)
from repro.telemetry.core import Histogram, get_recorder
from repro.topologies.base import Digraph

__all__ = [
    "INCOMPLETE_PENALTY",
    "OBJECTIVES",
    "ObjectiveValue",
    "RobustnessSpec",
    "program_for_rounds",
    "resolve_objective_engine",
    "evaluate_program",
    "evaluate_schedule",
    "evaluate_candidates",
]

#: Base score of a schedule that does not complete gossip within its round
#: budget; any completing schedule scores strictly below this.
INCOMPLETE_PENALTY = 10.0**9

#: The supported objective names.
#:
#: * ``"gossip_rounds"`` — rounds until every vertex knows every item (the
#:   paper's gossip time); the cheapest evaluation (plain completion run).
#: * ``"max_eccentricity"`` — the worst per-source broadcast time, computed
#:   from a per-item-tracked run.  Equal to the gossip time on completing
#:   schedules (the max broadcast time *is* the gossip time), but evaluated
#:   through the item-completion path, and on incomplete schedules it grades
#:   by how many items finished broadcasting.
#: * ``"mean_eccentricity"`` — the average per-source broadcast time;
#:   optimizes average-case latency rather than the worst source.
#: * ``"robust_gossip_rounds"`` — the mean cost over a fixed seeded fault
#:   sample (requires a :class:`RobustnessSpec`); optimizes fault tolerance
#:   alongside speed.
OBJECTIVES = (
    "gossip_rounds",
    "max_eccentricity",
    "mean_eccentricity",
    "robust_gossip_rounds",
)


@dataclass(frozen=True)
class RobustnessSpec:
    """Fault sample the ``"robust_gossip_rounds"`` objective scores against.

    ``model`` is any :class:`~repro.faults.models.FaultModel`; ``trials``
    perturbed executions are drawn per candidate from ``seed`` (the sample
    is re-derived deterministically per candidate, so one spec fixes one
    fault distribution for the whole search); ``horizon_factor`` scales the
    per-trial round budget off the candidate's own fault-free gossip time
    (rounded up to whole periods, exactly as the Monte-Carlo driver's
    default horizon).
    """

    model: FaultModel
    trials: int = 8
    seed: int = 0
    horizon_factor: int = 3

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SimulationError(f"at least one fault trial is required, got {self.trials}")
        if self.horizon_factor < 1:
            raise SimulationError(
                f"horizon_factor must be positive, got {self.horizon_factor}"
            )


@dataclass(frozen=True)
class ObjectiveValue:
    """Score of one candidate schedule (smaller is better).

    ``rounds`` is the measured gossip completion round (``None`` when the
    candidate never completed within its budget); ``score`` is the value the
    search drivers compare, which equals the objective on completing
    schedules and ``INCOMPLETE_PENALTY`` plus a completeness deficit
    otherwise.
    """

    score: float
    complete: bool
    rounds: int | None
    engine_name: str

    def __lt__(self, other: "ObjectiveValue") -> bool:
        return self.score < other.score


def program_for_rounds(
    graph: Digraph, rounds: Sequence[Round], max_rounds: int | None = None
) -> RoundProgram:
    """A cyclic :class:`RoundProgram` for a candidate period.

    Search drivers mutate plain round tuples and only build a full
    :class:`~repro.gossip.model.SystolicSchedule` (with its arc-existence
    revalidation) for accepted winners; evaluation goes straight to the
    engine layer through this helper.  The default budget matches
    :meth:`RoundProgram.from_schedule`.
    """
    if max_rounds is None:
        max_rounds = max(4 * len(rounds) * graph.n, 16)
    return RoundProgram(graph, tuple(rounds), cyclic=True, max_rounds=max_rounds)


def _incomplete_score(result, n: int) -> float:
    missing = n * n - sum(k.bit_count() for k in result.knowledge)
    return INCOMPLETE_PENALTY + float(missing)


def _check_objective(objective: str, robustness: RobustnessSpec | None) -> None:
    if objective not in OBJECTIVES:
        raise SimulationError(
            f"unknown search objective {objective!r}; expected one of {OBJECTIVES}"
        )
    if objective == "robust_gossip_rounds" and robustness is None:
        raise SimulationError(
            "the robust_gossip_rounds objective needs a RobustnessSpec "
            "(pass robustness=RobustnessSpec(model, trials, seed))"
        )


def _nominal_run_options(objective: str) -> dict:
    """Engine options of the objective's nominal (fault-free) run.

    This is the run incremental evaluation checkpoints and resumes: the
    eccentricity objectives need the per-item completion rounds tracked,
    everything else is a plain completion run.
    """
    if objective in ("max_eccentricity", "mean_eccentricity"):
        return {"track_history": False, "track_item_completion": True}
    return {"track_history": False}


def resolve_objective_engine(
    engine: str | SimulationEngine | None,
    graph: Digraph,
    rounds: Sequence[Round],
    *,
    objective: str = "gossip_rounds",
    max_rounds: int | None = None,
    incremental: bool = False,
) -> SimulationEngine:
    """Resolve ``engine`` against the workload shape the objective will run.

    Search scores candidates by running them, so ``"auto"`` should see what
    the runs will look like: a cyclic program over ``rounds`` (a seed or
    representative candidate period) with the objective's tracking flags —
    and, via ``incremental``, whether evaluations will be checkpoint-resumed
    suffixes rather than cold full runs (which shifts the crossover toward
    the dense kernel; see :func:`~repro.gossip.engines.select_engine_name`).
    One resolution serves a whole walk or batch — every candidate then runs
    on the same backend, keeping scores comparable.
    """
    options = _nominal_run_options(objective)
    program = program_for_rounds(graph, rounds, max_rounds)
    return resolve_engine(
        engine,
        program,
        track_item_completion=options.get("track_item_completion", False),
        incremental=incremental,
    )


def _robust_mean_cost(n, horizon, completion, knowledge, trials) -> float:
    total = 0.0
    for rounds, bits in zip(completion, knowledge):
        if rounds is not None:
            total += rounds
        else:
            missing = n * n - sum(value.bit_count() for value in bits)
            total += horizon + missing
    return total / trials


def _robust_scores_stacked(
    programs: list[RoundProgram],
    results: list,
    engine: SimulationEngine,
    spec: RobustnessSpec,
) -> list[ObjectiveValue]:
    """Robust scores of one candidate set from its nominal runs.

    ``results`` are the candidates' fault-free nominal runs.  An incomplete
    candidate is graded exactly like ``gossip_rounds`` (no trials are spent
    on it); a completing candidate scores the mean over trials of its
    completion round, failed trials contributing the horizon plus their
    missing (vertex, item) pairs so that likelier-to-complete candidates
    always sort ahead.  The completing candidates' trials run through the
    candidate-stacked Monte-Carlo kernel in one invocation (the looped
    per-engine path replays the identical realisation, so the score is
    engine-independent regardless).  Horizons and fault samples are derived
    per candidate from the shared spec, so a candidate's score does not
    depend on the rest of the set.
    """
    values: list[ObjectiveValue | None] = [None] * len(programs)
    stacked: list[tuple[int, RoundProgram, int]] = []
    samples = []
    for i, (program, result) in enumerate(zip(programs, results)):
        if result.completion_round is None:
            values[i] = ObjectiveValue(
                _incomplete_score(result, program.graph.n), False, None, engine.name
            )
            continue
        nominal, sample = _fault_sample(
            program,
            spec.model,
            spec.trials,
            spec.seed,
            nominal=result.completion_round,
            factor=spec.horizon_factor,
        )
        stacked.append((i, program, nominal))
        samples.append(sample)
    if stacked:
        outcomes = _run_batched_stacked([entry[1] for entry in stacked], samples)
        for (i, program, nominal), sample, (completion, knowledge) in zip(
            stacked, samples, outcomes
        ):
            score = _robust_mean_cost(
                program.graph.n, sample.horizon, completion, knowledge, spec.trials
            )
            values[i] = ObjectiveValue(score, True, nominal, engine.name)
    return values


def _score_result(
    result,
    program: RoundProgram,
    engine: SimulationEngine,
    objective: str,
    robustness: RobustnessSpec | None,
) -> ObjectiveValue:
    """Score a candidate from its already-executed nominal run.

    ``result`` must come from a run under :func:`_nominal_run_options` of
    the same objective; splitting scoring from running is what lets the
    incremental evaluator substitute a resumed run for a cold one.
    """
    n = program.graph.n
    if objective == "gossip_rounds":
        if result.completion_round is None:
            return ObjectiveValue(
                _incomplete_score(result, n), False, None, engine.name
            )
        return ObjectiveValue(
            float(result.completion_round), True, result.completion_round, engine.name
        )
    if objective == "robust_gossip_rounds":
        return _robust_scores_stacked([program], [result], engine, robustness)[0]
    times = result.item_completion_rounds
    assert times is not None
    if result.completion_round is None:
        # Grade primarily by missing pairs, with unfinished broadcasts as
        # a tie-break so nearly-complete candidates sort ahead.
        unfinished = sum(1 for t in times if t is None)
        return ObjectiveValue(
            _incomplete_score(result, n) + float(unfinished) / (n + 1),
            False,
            None,
            engine.name,
        )
    if objective == "max_eccentricity":
        score = float(max(times))
    else:
        score = sum(times) / len(times)
    return ObjectiveValue(score, True, result.completion_round, engine.name)


def evaluate_program(
    program: RoundProgram,
    engine: SimulationEngine,
    *,
    objective: str = "gossip_rounds",
    robustness: RobustnessSpec | None = None,
) -> ObjectiveValue:
    """Score one compiled candidate on a resolved engine instance."""
    _check_objective(objective, robustness)
    result = engine.run(program, **_nominal_run_options(objective))
    return _score_result(result, program, engine, objective, robustness)


def evaluate_schedule(
    schedule: SystolicSchedule,
    *,
    objective: str = "gossip_rounds",
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
    robustness: RobustnessSpec | None = None,
) -> ObjectiveValue:
    """Score one systolic schedule (see the module docstring for semantics)."""
    program = program_for_rounds(schedule.graph, schedule.base_rounds, max_rounds)
    resolved = resolve_objective_engine(
        engine,
        schedule.graph,
        schedule.base_rounds,
        objective=objective,
        max_rounds=max_rounds,
    )
    return evaluate_program(
        program, resolved, objective=objective, robustness=robustness
    )


class _CachedObjective:
    """Memoizing, checkpoint-reusing objective evaluator for one search walk.

    Wraps one ``(graph, engine, objective)`` context and scores candidate
    periods through :func:`_score_result`, with three layers the plain
    :func:`evaluate_program` path does not have:

    * **memoization** — identical periods (tuples) are scored once; a walk
      that re-proposes a rejected neighbour pays nothing.  Only *exact*
      values are memoized, never cutoff sentinels.
    * **checkpoint reuse** — on a checkpointable engine, every run captures
      power-of-two round states (:func:`default_checkpoint_rounds`) into a
      per-walk :class:`CheckpointCache`; the next candidate resumes from
      the deepest state its common prefix with a cached period still
      covers, so a move touching slot ``k`` re-simulates only rounds
      ``> k``.  Resume is bit-exact by the engines' contract, so scores
      are identical to cold evaluation by construction.  Engines whose
      ``run_checkpointed`` accepts a ``slot_cache`` additionally share
      compiled per-round firing plans across the walk.
    * **bounded cutoff** — under the ``gossip_rounds`` objective a caller
      holding a complete incumbent at round ``C`` may pass ``cutoff=C``:
      the candidate's budget drops to ``C``, and a run that fails to
      complete within it only proves the true score exceeds ``C``, which
      is all a strictly-improving driver needs to reject.  Such runs
      return an ``inf``-scored sentinel (complete=False) and are not
      memoized; runs completing within the cutoff are exact as usual.
      Candidates tying the incumbent at exactly ``C`` are therefore still
      scored exactly, keeping secondary tie-breaks (period length, arc
      count) intact.
    """

    def __init__(
        self,
        graph: Digraph,
        engine: SimulationEngine,
        objective: str = "gossip_rounds",
        robustness: RobustnessSpec | None = None,
        *,
        max_rounds: int | None = None,
    ) -> None:
        _check_objective(objective, robustness)
        self.graph = graph
        self.engine = engine
        self.objective = objective
        self.robustness = robustness
        self.max_rounds = max_rounds
        self._options = _nominal_run_options(objective)
        self._incremental = supports_checkpointing(engine)
        self._accepts_slot_cache = self._incremental and (
            "slot_cache" in inspect.signature(engine.run_checkpointed).parameters
        )
        self._slot_cache: dict = {}
        self.cache = CheckpointCache()
        self._memo: dict[PeriodKey, ObjectiveValue] = {}
        # Proven score lower bounds from truncated runs: period -> largest
        # cutoff the candidate failed to complete within.  A later call with
        # a cutoff at or below the bound can reject without running.
        self._bound: dict[PeriodKey, int] = {}
        self._horizon: int | None = None
        # Telemetry enablement is snapshotted once per walk: per-evaluation
        # timing (the ``search.eval_ns`` histogram) is only paid when a
        # recorder was installed at construction, keeping the disabled path
        # inside the flush-once overhead contract.
        self._telem = get_recorder().enabled
        #: Per-evaluation wall time of the actual engine runs, in ns —
        #: memo/bound shortcuts contribute nothing, so ``eval_ns.count``
        #: equals the ``evaluations`` counter on a traced walk.
        self.eval_ns = Histogram()
        #: Engine runs performed (memo hits cost none).
        self.evaluations = 0
        #: Candidates answered from the exact-value memo without a run.
        self.memo_hits = 0
        #: Candidates rejected for free by the proven-bound table.
        self.bound_rejects = 0
        #: Runs that hit the cutoff budget without completing (inf sentinel).
        self.cutoff_truncations = 0

    def _budget(self, period: tuple[Round, ...]) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return max(4 * len(period) * self.graph.n, 16)

    def _checkpoint_grid(self, budget: int) -> list[int]:
        """Capture rounds for one run: powers of two, densified near the scale
        the walk actually runs at.

        The power-of-two grid guarantees a resume from at least half of any
        shared prefix, but its gaps grow with depth while real runs end near
        the incumbent's completion round — far below the nominal budget.  So
        once a completion has been observed, evenly spaced captures at an
        eighth of that horizon are added: a late-slot move then resumes
        within ``horizon/8`` rounds of its full shared prefix instead of
        falling back half-way.  The spacing balances per-capture snapshot
        cost against expected re-simulated rounds; capture rounds the run
        never reaches cost nothing.
        """
        grid = set(default_checkpoint_rounds(budget))
        if self._horizon is not None:
            step = max(8, self._horizon // 8)
            grid.update(range(step, min(budget, 2 * self._horizon) + 1, step))
        return sorted(grid)

    def __call__(
        self, rounds: Sequence[Round], *, cutoff: int | None = None
    ) -> ObjectiveValue:
        # One PeriodKey per evaluation caches the (expensive) period hash
        # across the memo, the bound table and the checkpoint cache.
        key = PeriodKey(rounds)
        period = key.period
        memoized = self._memo.get(key)
        if memoized is not None:
            self.memo_hits += 1
            return memoized
        budget = self._budget(period)
        truncated = (
            cutoff is not None
            and self.objective == "gossip_rounds"
            and cutoff < budget
        )
        if truncated:
            bound = self._bound.get(key)
            if bound is not None and cutoff <= bound:
                # Already proven not to complete within `bound >= cutoff`
                # rounds, so the true score exceeds the cutoff: reject free.
                self.bound_rejects += 1
                return ObjectiveValue(math.inf, False, None, self.engine.name)
            budget = cutoff
        program = RoundProgram(self.graph, period, cyclic=True, max_rounds=budget)
        self.evaluations += 1
        _t0 = time.perf_counter_ns() if self._telem else 0
        if self._incremental:
            base, usable = self.cache.lookup(key, max_round=budget)
            kwargs = dict(self._options)
            if self._accepts_slot_cache:
                kwargs["slot_cache"] = self._slot_cache
            run = self.engine.run_checkpointed(
                program,
                checkpoint_rounds=[
                    r for r in self._checkpoint_grid(budget) if r not in usable
                ],
                resume_from=base,
                **kwargs,
            )
            # The reused prefix states are equally states of this period.
            self.cache.record(key, [*usable.values(), *run.checkpoints])
            result = run.result
            if result.completion_round is not None:
                self._horizon = result.completion_round
        else:
            result = self.engine.run(program, **self._options)
        if self._telem:
            self.eval_ns.add(time.perf_counter_ns() - _t0)
        if truncated and result.completion_round is None:
            previous = self._bound.get(key)
            self._bound[key] = cutoff if previous is None else max(previous, cutoff)
            self.cutoff_truncations += 1
            return ObjectiveValue(math.inf, False, None, self.engine.name)
        value = _score_result(
            result, program, self.engine, self.objective, self.robustness
        )
        self._memo[key] = value
        return value

    def stats_counters(self) -> dict[str, int]:
        """Counter snapshot for the telemetry ``search.incremental`` component:
        evaluations, memo/bound shortcuts, cutoff truncations, and the
        checkpoint cache's hit/miss/reused-depth totals."""
        return {
            "evaluations": self.evaluations,
            "memo_hits": self.memo_hits,
            "bound_rejects": self.bound_rejects,
            "cutoff_truncations": self.cutoff_truncations,
            "checkpoint_hits": self.cache.hits,
            "checkpoint_misses": self.cache.misses,
            "reused_rounds": self.cache.reused_rounds,
        }

    def stats_histograms(self) -> dict[str, Histogram]:
        """Distribution snapshot matching :meth:`stats_counters`: the
        per-evaluation wall-time and checkpoint reuse-depth histograms the
        owning search flushes once at walk end."""
        return {
            "search.eval_ns": self.eval_ns,
            "search.reused_rounds": self.cache.reuse_depth,
        }


def evaluate_candidates(
    schedules: Iterable[SystolicSchedule],
    *,
    objective: str = "gossip_rounds",
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
    robustness: RobustnessSpec | None = None,
    incremental: bool = False,
) -> list[ObjectiveValue]:
    """Score a batch of candidates on one resolved engine instance.

    The engine lookup (including the ``auto``/``REPRO_SIM_ENGINE``
    resolution) happens once for the whole batch; every candidate then runs
    on the same backend, which also guarantees the scores are comparable
    (no candidate silently falling back to a different engine).  The same
    holds for ``robustness``: one spec means one fixed seeded fault
    distribution for the whole batch.

    Under ``robust_gossip_rounds`` the non-incremental batch runs all
    completing candidates' fault trials through the candidate-stacked
    Monte-Carlo kernel (one tensor per graph for the whole batch) instead
    of one kernel invocation per candidate; scores are bit-identical to
    the per-candidate path because each candidate keeps its own seeded
    fault sample.

    ``incremental=True`` routes the batch through per-graph
    :class:`_CachedObjective` evaluators: duplicate candidates are scored
    once, and on checkpointable engines candidates sharing period prefixes
    resume each other's runs mid-way.  Scores are bit-identical to the
    plain path by the engines' resume contract.
    """
    candidates = list(schedules)
    if not candidates:
        return []
    first = candidates[0]
    resolved = resolve_objective_engine(
        engine,
        first.graph,
        first.base_rounds,
        objective=objective,
        max_rounds=max_rounds,
        incremental=incremental,
    )
    if not incremental:
        _check_objective(objective, robustness)
        if objective == "robust_gossip_rounds":
            programs = [
                program_for_rounds(s.graph, s.base_rounds, max_rounds)
                for s in candidates
            ]
            nominal_results = [
                resolved.run(p, **_nominal_run_options(objective)) for p in programs
            ]
            # The stacked kernel wants one vertex count per invocation;
            # batches are keyed by graph like the incremental evaluators.
            by_graph: dict[int, list[int]] = {}
            for i, s in enumerate(candidates):
                by_graph.setdefault(id(s.graph), []).append(i)
            values: list[ObjectiveValue | None] = [None] * len(candidates)
            for indices in by_graph.values():
                scored = _robust_scores_stacked(
                    [programs[i] for i in indices],
                    [nominal_results[i] for i in indices],
                    resolved,
                    robustness,
                )
                for i, value in zip(indices, scored):
                    values[i] = value
            return values  # type: ignore[return-value]
        return [
            evaluate_program(
                program_for_rounds(s.graph, s.base_rounds, max_rounds),
                resolved,
                objective=objective,
                robustness=robustness,
            )
            for s in candidates
        ]
    evaluators: dict[int, _CachedObjective] = {}
    values = []
    for s in candidates:
        evaluator = evaluators.get(id(s.graph))
        if evaluator is None:
            evaluator = evaluators[id(s.graph)] = _CachedObjective(
                s.graph, resolved, objective, robustness, max_rounds=max_rounds
            )
        values.append(evaluator(s.base_rounds))
    return values
