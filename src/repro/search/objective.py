"""Objective evaluation for schedule search, through the engine registry.

Every candidate a search driver generates is scored by *running* it: the
rounds are wrapped into a :class:`~repro.gossip.engines.base.RoundProgram`
and executed by whichever simulation backend the caller selected
(``engine="auto" | name | instance`` — the same plumbing every other
simulation entry point uses).  Search is exactly the workload the fast
engines exist for: a single synthesis run evaluates hundreds to thousands
of candidates, so the per-candidate cost is the product that matters.

Search scores every candidate through one :class:`_CachedObjective` per
walk (or per graph of an :func:`evaluate_candidates` batch); its
``evaluations`` count engine runs only.  :func:`evaluate_program` and
:func:`evaluate_schedule` are the one-shot scorers: one cold run, no
state, the oracle the cached path is tested against.

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

import math
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.faults.models import FaultModel
from repro.faults.montecarlo import _fault_sample, _run_batched_stacked
from repro.gossip.engines import SimulationEngine, resolve_engine
from repro.gossip.engines.base import RoundProgram, default_budget
from repro.gossip.model import Round, SystolicSchedule
from repro.search.incremental import (
    CheckpointCache,
    PeriodKey,
    default_checkpoint_rounds,
)
from repro.telemetry.core import Histogram, Recorder, get_recorder
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
    engine layer through this helper.  The default budget is
    :func:`~repro.gossip.engines.base.default_budget`, as in
    :meth:`RoundProgram.from_schedule`.
    """
    if max_rounds is None:
        max_rounds = default_budget(len(rounds), graph.n)
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

    This is the run :class:`_CachedObjective` checkpoints and resumes: the
    eccentricity objectives need the per-item completion rounds tracked,
    everything else is a plain completion run.
    """
    if objective in ("max_eccentricity", "mean_eccentricity"):
        return {"track_item_completion": True}
    return {}


def resolve_objective_engine(
    engine: str | SimulationEngine | None,
    graph: Digraph,
    rounds: Sequence[Round],
    *,
    objective: str = "gossip_rounds",
    max_rounds: int | None = None,
) -> SimulationEngine:
    """Resolve ``engine`` against the workload shape the objective will run.

    Search scores candidates by running them, so ``"auto"`` should see what
    the runs will look like: a cyclic program over ``rounds`` (a seed or
    representative candidate period) with the objective's tracking flags
    (see :func:`~repro.gossip.engines.select_engine_name`).  Whether the
    evaluations resume checkpoints does not change the pick.  One
    resolution serves a whole walk or batch — every candidate then runs on
    the same backend, keeping scores comparable.
    """
    options = _nominal_run_options(objective)
    program = program_for_rounds(graph, rounds, max_rounds)
    return resolve_engine(
        engine,
        program,
        track_item_completion=options.get("track_item_completion", False),
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


def _robust_score(
    program: RoundProgram,
    result,
    engine: SimulationEngine,
    spec: RobustnessSpec,
) -> ObjectiveValue:
    """Robust score of one candidate from its nominal run.

    ``result`` is the candidate's fault-free nominal run.  An incomplete
    candidate is graded exactly like ``gossip_rounds`` (no trials are spent
    on it); a completing candidate scores the mean over trials of its
    completion round, failed trials contributing the horizon plus their
    missing (vertex, item) pairs so that likelier-to-complete candidates
    always sort ahead.  The trials run through the batched Monte-Carlo
    kernel (the looped per-engine path replays the identical realisation,
    so the score is engine-independent regardless).  Horizon and fault
    sample are derived from the shared spec alone, so a candidate's score
    does not depend on what else was scored before it.
    """
    if result.completion_round is None:
        return ObjectiveValue(
            _incomplete_score(result, program.graph.n), False, None, engine.name
        )
    nominal, sample = _fault_sample(
        program,
        spec.model,
        spec.trials,
        spec.seed,
        nominal=result.completion_round,
        factor=spec.horizon_factor,
    )
    [(completion, knowledge)] = _run_batched_stacked([program], [sample], [nominal])
    score = _robust_mean_cost(
        program.graph.n, sample.horizon, completion, knowledge, spec.trials
    )
    return ObjectiveValue(score, True, nominal, engine.name)


def _score_result(
    result,
    program: RoundProgram,
    engine: SimulationEngine,
    objective: str,
    robustness: RobustnessSpec | None,
) -> ObjectiveValue:
    """Score a candidate from its already-executed nominal run.

    ``result`` must come from a run under :func:`_nominal_run_options` of
    the same objective; splitting scoring from running is what lets
    :class:`_CachedObjective` substitute a resumed run for a cold one.
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
        return _robust_score(program, result, engine, robustness)
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

    The one way search scores a candidate.  Wraps one ``(graph, engine,
    objective)`` context, scores candidate periods through
    :func:`_score_result`, and adds three layers to a cold
    :func:`evaluate_program` run:

    * **memoization** — identical periods (tuples) are scored once; a walk
      that re-proposes a rejected neighbour pays nothing.  Only *exact*
      values are memoized, never cutoff sentinels.
    * **checkpoint reuse** — every run captures states at the rounds of
      :meth:`_checkpoint_grid` into a per-walk :class:`CheckpointCache`;
      the next candidate resumes from the deepest state its common prefix
      with a cached period still covers, so a move touching slot ``k``
      re-simulates only rounds ``> k``.  Every engine checkpoints (it is
      part of the engine protocol), and resume is bit-exact by the
      engines' contract, so scores are identical to cold evaluation by
      construction.  One ``slot_cache`` per walk also shares the engine's
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
        return default_budget(len(period), self.graph.n)

    def _checkpoint_grid(self, budget: int, period_length: int) -> list[int]:
        """Capture rounds for one run: powers of two, densified near the scale
        the walk actually runs at, and none past the period length.

        The power-of-two grid guarantees a resume from at least half of any
        shared prefix, but its gaps grow with depth while real runs end near
        the incumbent's completion round.  So once a completion has been
        observed, evenly spaced captures at an eighth of that horizon are
        added: a late-slot move then resumes within ``horizon/8`` rounds of
        its full shared prefix instead of falling back half-way.  The
        spacing balances per-capture snapshot cost against expected
        re-simulated rounds; capture rounds the run never reaches cost
        nothing.

        No capture lands past ``period_length``.  A state after round ``r``
        seeds a *different* period only when ``r ≤ common_prefix_length(a,
        b) ≤ min(len(a), len(b))``, so a deeper state could only resume the
        identical period, and no walk runs one period twice: the memo
        answers every exact score, and a truncated period proposed again
        within a hill walk meets a cutoff that never rises, which the bound
        table rejects without a run.  The deeper captures were paid for and
        never read.
        """
        last = min(budget, period_length)
        grid = set(default_checkpoint_rounds(last))
        if self._horizon is not None:
            step = max(8, self._horizon // 8)
            grid.update(range(step, min(last, 2 * self._horizon) + 1, step))
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
        base, usable = self.cache.lookup(key, max_round=budget)
        run = self.engine.run_checkpointed(
            program,
            checkpoint_rounds=[
                r for r in self._checkpoint_grid(budget, len(period)) if r not in usable
            ],
            resume_from=base,
            slot_cache=self._slot_cache,
            **self._options,
        )
        # The reused prefix states are equally states of this period.
        self.cache.record(key, [*usable.values(), *run.checkpoints])
        result = run.result
        if result.completion_round is not None:
            self._horizon = result.completion_round
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

    def flush(self, rec: Recorder) -> None:
        """Flush this evaluator's cumulative telemetry through ``rec``: the
        ``search.incremental`` counters (evaluations, memo/bound shortcuts,
        cutoff truncations, and the checkpoint cache's hit/miss/reused-depth
        totals) and the non-empty per-evaluation wall-time and checkpoint
        reuse-depth histograms.  The owning search calls it once."""
        rec.counters(
            "search.incremental",
            {
                "evaluations": self.evaluations,
                "memo_hits": self.memo_hits,
                "bound_rejects": self.bound_rejects,
                "cutoff_truncations": self.cutoff_truncations,
                "checkpoint_hits": self.cache.hits,
                "checkpoint_misses": self.cache.misses,
                "reused_rounds": self.cache.reused_rounds,
            },
        )
        for name, hist in (
            ("search.eval_ns", self.eval_ns),
            ("search.reused_rounds", self.cache.reuse_depth),
        ):
            if hist.count:
                rec.histogram(name, hist)


class _ColdObjective(_CachedObjective):
    """Full-replay stand-in for :class:`_CachedObjective`: every call is
    counted and is one cold :func:`evaluate_program` run — no memo, cutoff
    or checkpoints.  Patched over ``repro.search.local_search._CachedObjective``
    it replays a walk with no reuse: the oracle the tests compare cached
    walks against, and the full-replay side of the search benchmark."""

    def __call__(
        self, rounds: Sequence[Round], *, cutoff: int | None = None
    ) -> ObjectiveValue:
        self.evaluations += 1
        return evaluate_program(
            program_for_rounds(self.graph, rounds, self.max_rounds),
            self.engine,
            objective=self.objective,
            robustness=self.robustness,
        )


def evaluate_candidates(
    schedules: Iterable[SystolicSchedule],
    *,
    objective: str = "gossip_rounds",
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
    robustness: RobustnessSpec | None = None,
) -> list[ObjectiveValue]:
    """Score a batch of candidates on one resolved engine instance.

    The engine lookup (including the ``auto``/``REPRO_SIM_ENGINE``
    resolution) happens once for the whole batch; every candidate then runs
    on the same backend, which also guarantees the scores are comparable
    (no candidate silently falling back to a different engine).  The same
    holds for ``robustness``: one spec means one fixed seeded fault
    distribution for the whole batch.

    Candidates go through one :class:`_CachedObjective` per graph, under
    every objective: duplicates are scored once, and candidates sharing
    period prefixes resume each other's runs mid-way, bit-exactly by the
    engines' resume contract.
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
    )
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
