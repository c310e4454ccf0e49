"""Batched Monte-Carlo fault-injection driver.

Runs ``trials`` perturbed executions of one protocol under a
:class:`~repro.faults.models.FaultModel` and reports per-trial completion
rounds and final knowledge.  Two execution paths consume the *same*
:class:`~repro.faults.models.FaultSample` realisation:

* **batched** — one tensor kernel for every batched caller.  The
  vectorized engine's packed ``(n, W) uint64`` matrix is stacked into an
  ``(n, cols, W)`` tensor, one column per trial (trials on the *middle*
  axis, so a round's row gathers are contiguous block copies).  Each round
  slot is precompiled once per period into the shared head-grouped layout
  (:class:`~repro.gossip.engines._bitops.HeadGroups`); one round step — a
  NumPy gather/mask/OR/scatter sequence per candidate block — then
  advances *all* still-active trials a round.  Vertex-disjoint matching
  rounds with an arithmetic-progression structure are applied *densely*
  through copy-free strided views with only the sparse set of faulted
  transmissions snapshot/restored around the OR (exact because a failed
  arc's head receives from nobody else and feeds nobody this round).
  Completion detection (below) compacts finished trials out of the tensor.
  Together this is what makes thousands of perturbed trials per schedule a
  cheap workload (``benchmarks/bench_faults.py`` asserts ≥ 5× over the
  looped path at n = 1024, trials = 256; measured 29–34× on a 2-core Xeon).
* **looped** — the reference fallback: per trial, materialise the perturbed
  finite round sequence and run it through any engine of the registry.
  Slower (per-trial round compilation and per-round Python overhead are
  paid ``trials`` times) but completely general, and the path that extends
  fault coverage to every registered backend.

Because both paths replay one shared realisation, their results agree
bit-for-bit — not just statistically — and the looped path inherits the
engine registry's own differential guarantees, giving cross-engine
bit-exactness of fault trials for free (enforced by
``tests/test_faults_differential.py``).

Completion detection
--------------------
* **No scan before the fault-free completion round.**  A fault mask can
  only silence scheduled arcs, and a round only ORs rows together, so a
  faulted trial's knowledge after round ``r`` is a subset of the fault-free
  run's knowledge after round ``r``: no trial completes before its
  program's fault-free completion round (its *nominal* round, which
  :func:`monte_carlo` measures to derive the default horizon anyway).
  Rounds ``1 … nominal − 1`` therefore run as one stretch, with no saved
  state and no scan.  A caller that passes ``max_rounds`` skips the nominal
  run, and its scans start at round 1.
* **Doubling batches.**  From there on rounds run in batches of doubling
  size (1, 2, 4, …, capped at ``_BATCH_CAP``), each followed by one
  completion scan: ``np.bitwise_and.reduce`` over the row axis gives, per
  column, the items every vertex holds, and a column is complete when that
  equals the full row.  The tensor is copied before each batch.
* **Batched replay.**  The columns a scan finds complete are gathered from
  the pre-batch copy into one ``(n, d, W)`` tensor, the copy is dropped,
  the main tensor is compacted, and the batch's rounds run again on the
  ``d`` columns with the same round step.  A scan after every replayed
  round stamps each column's first complete round and drops it.  Rounds
  past a candidate's own horizon are skipped by the step, so a stamp never
  exceeds the horizon.

Candidate stacking
------------------
The tensor holds a whole *candidate set* over the same vertex count:
``(n, candidates · trials, W)`` with candidate-major column blocks, each
candidate's round slots compiled once into its own head-grouped (and
AP-segmented) layout, and every round advanced with one pass over the
per-candidate block views.  :func:`monte_carlo` is the one-candidate case
and :func:`monte_carlo_stacked` the general one.  Each candidate keeps its
own seeded :class:`~repro.faults.models.FaultSample` (fault draws depend on
the candidate's own horizon and arc count), so every candidate's results
are bit-identical to a standalone :func:`monte_carlo` call — growing the
candidate set never perturbs the trials of the candidates already in it.
Batch bookkeeping (the unscanned stretch, which ends at the stack's
earliest nominal round, the doubling batches, one completion scan and the
compaction of finished columns) is shared across the whole stack, which is
what makes scoring a search neighbourhood's robustness one kernel
invocation instead of one per candidate (``benchmarks/bench_faults.py``
gates the speed-up).  Candidates past their own horizon simply freeze
(their columns ride along untouched) until the stack drains.

Scope: trials start from the paper's initial state (vertex ``i`` knows item
``i``) and target complete gossip — the robustness questions this subsystem
answers.  Use the engine layer directly for custom initial states or
subset targets.

When a :mod:`repro.telemetry` recorder is active, every :func:`monte_carlo`
call records one ``faults.monte_carlo`` span (method, engine, tensor shape)
plus a single ``faults.montecarlo`` counter flush — ``trials``,
``completed``, ``horizon``, and on the batched path ``batches`` (completion
scans; the unscanned stretch is not a batch), ``exact_replays`` (trials
whose completion round a replay stamped) and ``compactions`` (scans that
found finished trials) — and one ``faults.compaction`` event per tensor
shrink, at the round that ended the batch.  All counters are plain gated
ints accumulated locally; with the default ``NullRecorder`` the whole layer
costs one context-variable read per call and never changes results
(``tests/test_telemetry.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.exceptions import SimulationError
from repro.faults.models import FaultModel, FaultSample
from repro.gossip.engines import (
    SimulationEngine,
    engine_override,
    is_auto_spec,
    resolve_engine,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.engines._bitops import (
    BIT_LUT as _BIT_LUT,
    WORD_MASK as _WORD_MASK,
    WORD_SHIFT as _WORD_SHIFT,
    ap_segments as _ap_segments,
    arc_indices as _arc_indices,
    compile_head_groups as _compile_head_groups,
    pack_int as _pack_int,
    unpack_rows as _unpack_rows,
)
from repro.gossip.simulation import _program_for

__all__ = [
    "FaultTrialResult",
    "monte_carlo",
    "monte_carlo_stacked",
    "default_horizon",
    "METHODS",
]

#: Execution paths accepted by :func:`monte_carlo`.
METHODS = ("auto", "batched", "looped")

#: Horizon granted per fault-free gossip round when ``max_rounds`` is not
#: given: generous enough for moderate fault rates to complete, small
#: enough that hopeless trials stop promptly.
_HORIZON_FACTOR = 3


@dataclass(frozen=True)
class FaultTrialResult:
    """Outcome of ``trials`` perturbed executions of one protocol.

    ``completion_rounds[t]`` is the first round after which trial ``t``
    completed gossip (``None`` when it did not within ``horizon``);
    ``knowledge[t]`` the trial's final knowledge bitsets (reference-engine
    integer encoding, indexed like ``graph.vertices``).  ``nominal_rounds``
    is the fault-free gossip time the horizon was derived from (``None``
    when the caller supplied ``max_rounds`` explicitly and the nominal run
    was skipped).  ``engine_name`` records the execution path:
    ``"montecarlo-batched"`` for the tensor kernel, the underlying engine's
    name for looped runs.
    """

    graph: object
    model_name: str
    trials: int
    horizon: int
    seed: int
    nominal_rounds: int | None
    completion_rounds: tuple[int | None, ...]
    knowledge: tuple[tuple[int, ...], ...]
    engine_name: str

    @property
    def completed(self) -> int:
        """Number of trials that completed gossip within the horizon."""
        return sum(1 for r in self.completion_rounds if r is not None)

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that completed gossip within the horizon."""
        return self.completed / self.trials


def default_horizon(nominal_rounds: int, period: int, factor: int = _HORIZON_FACTOR) -> int:
    """The round budget granted to perturbed trials.

    A whole number of periods covering ``factor ×`` the fault-free gossip
    time (so every slot gets an equal number of extra firings), with a
    small floor for degenerate instances.
    """
    target = max(factor * nominal_rounds, 16)
    period = max(period, 1)
    return ((target + period - 1) // period) * period


def _fault_sample(
    program: RoundProgram,
    model: FaultModel,
    trials: int,
    seed: int,
    *,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
    nominal: int | None = None,
    factor: int = _HORIZON_FACTOR,
) -> tuple[int | None, FaultSample]:
    """The nominal gossip time and the seeded fault sample for one program.

    The trial horizon is ``max_rounds`` when given (the nominal run is then
    skipped and ``None`` returned in its place); otherwise it is
    :func:`default_horizon` of the fault-free gossip time — ``nominal`` when
    the caller already measured it, else one plain run on ``engine``, which
    must complete.  A finite program never gets more rounds than its own
    length.  ``sample.horizon`` is the resulting horizon.
    """
    if max_rounds is not None:
        horizon = max_rounds
    else:
        if nominal is None:
            result = resolve_engine(engine, program).run(program, track_history=False)
            nominal = result.completion_round
            if nominal is None:
                raise SimulationError(
                    "the fault-free protocol never completed gossip, so no default "
                    "round budget exists; pass max_rounds explicitly"
                )
        horizon = default_horizon(nominal, len(program.rounds), factor)
    if not program.cyclic:
        horizon = min(horizon, len(program.rounds))
    return nominal, model.sample(program, horizon, trials, seed=seed)


def monte_carlo(
    protocol_or_schedule,
    model: FaultModel,
    *,
    trials: int,
    seed: int = 0,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
    method: str = "auto",
) -> FaultTrialResult:
    """Run ``trials`` fault-perturbed executions and collect their outcomes.

    ``max_rounds`` bounds each trial (default: :func:`default_horizon` of
    the measured fault-free gossip time — which requires the unperturbed
    protocol to complete; pass ``max_rounds`` explicitly otherwise).  For a
    finite :class:`~repro.gossip.model.GossipProtocol` the horizon never
    exceeds the protocol's own length.

    ``method="auto"`` takes the batched tensor kernel whenever NumPy is
    available and no specific engine was requested.  "No specific engine"
    means ``engine`` is ``None`` or ``"auto"`` (case-insensitively) *and*
    the ``REPRO_SIM_ENGINE`` override is unset — a pinned environment, like
    a named ``engine`` or ``method="looped"``, runs the per-trial loop
    through that backend instead.  Both paths consume the same seeded
    fault realisation, so the choice never changes the results, only the
    throughput.
    """
    if method not in METHODS:
        raise SimulationError(f"unknown method {method!r}; expected one of {METHODS}")
    _rec = telemetry.get_recorder()
    _telem = _rec.enabled
    _t0 = time.perf_counter_ns() if _telem else 0
    program = _program_for(protocol_or_schedule, None)
    explicit_engine = not is_auto_spec(engine) or engine_override() is not None

    nominal, sample = _fault_sample(
        program, model, trials, seed, max_rounds=max_rounds, engine=engine
    )
    horizon = sample.horizon

    if method == "auto":
        method = "looped" if explicit_engine else "batched"
    if method == "batched":
        _counts = {"batches": 0, "exact_replays": 0, "compactions": 0} if _telem else None
        ((completion, knowledge),) = _run_batched_stacked(
            [program], [sample], [nominal], telem_counts=_counts
        )
        engine_name = "montecarlo-batched"
    else:
        # Trials are finite perturbed programs, which the decision function
        # sends to the dense kernel; resolve with that workload shape.
        resolved = resolve_engine(
            engine, RoundProgram(program.graph, program.rounds, cyclic=False, max_rounds=horizon)
        )
        completion, knowledge = _run_looped(program, sample, resolved)
        engine_name = resolved.name
        _counts = None

    if _telem:
        counts = {
            "runs": 1,
            "trials": trials,
            "completed": sum(1 for r in completion if r is not None),
            "horizon": horizon,
        }
        if _counts is not None:
            counts.update(_counts)
        _rec.counters("faults.montecarlo", counts)
        _hist = telemetry.Histogram.of(*(r for r in completion if r is not None))
        if _hist.count:
            # Per-trial completion-round distribution (completed trials
            # only — failures are the `trials - completed` counter gap).
            _rec.histogram("faults.completion_rounds", _hist)
        telemetry.record_span(
            "faults.monte_carlo",
            _t0,
            method=method,
            engine=engine_name,
            n=program.graph.n,
            trials=trials,
            horizon=horizon,
            words=max(1, (program.graph.n + _WORD_MASK) >> _WORD_SHIFT),
        )

    return FaultTrialResult(
        graph=program.graph,
        model_name=model.name,
        trials=trials,
        horizon=horizon,
        seed=seed,
        nominal_rounds=nominal,
        completion_rounds=completion,
        knowledge=knowledge,
        engine_name=engine_name,
    )


# --------------------------------------------------------------------- #
def _run_looped(
    program: RoundProgram, sample: FaultSample, engine: SimulationEngine
) -> tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...]]:
    """Reference fallback: one perturbed finite program per trial."""
    graph = program.graph
    horizon = sample.horizon
    completion: list[int | None] = []
    knowledge: list[tuple[int, ...]] = []
    for t in range(sample.trials):
        rounds = tuple(sample.kept_arcs(t, r) for r in range(1, horizon + 1))
        result = engine.run(
            RoundProgram(graph, rounds, cyclic=False, max_rounds=horizon),
            track_history=False,
        )
        completion.append(result.completion_round)
        knowledge.append(result.knowledge)
    return tuple(completion), tuple(knowledge)


#: Largest batch of rounds between two batched completion scans.
_BATCH_CAP = 64


def _apply_masked_round(
    tensor: np.ndarray, g, fails_sorted: np.ndarray, scratch: np.ndarray
) -> None:
    """One faulted round on an ``(n, cols, W)`` tensor.

    ``fails_sorted`` is the per-column *failure* mask in the group's
    head-sorted arc order (leading axes of the gathered source block).  The
    faulted transmissions are silenced by zeroing exactly the failed
    entries — under realistic fault rates a sparse write, far cheaper than
    multiplying the whole block by a success mask.  The tail rows are
    gathered before the single head-row write, so the paper's snapshot
    semantics hold even when a head also appears as a tail.  ``scratch`` is
    the kernel's flat uint64 block of at least ``(m + heads) · cols · W``
    words; both gathers land in reshaped prefixes of it (``np.take``'s
    ``out=`` wants a plain C-ordered target, and two fresh multi-megabyte
    allocations per round would cost more than the gathers).
    """
    cols, words = tensor.shape[1:]
    block = cols * words
    m, heads = g.m, g.uheads.size
    src = scratch[: m * block].reshape(m, cols, words)
    np.take(tensor, g.src_tails, axis=0, out=src)
    if fails_sorted.any():
        src[fails_sorted] = 0
    if g.heads_distinct:
        agg = src
    else:
        agg = np.bitwise_or.reduceat(src, g.group_starts, axis=0)
    old = scratch[m * block : (m + heads) * block].reshape(heads, cols, words)
    np.take(tensor, g.uheads, axis=0, out=old)
    np.bitwise_or(old, agg, out=old)
    tensor[g.uheads] = old


def _slot_segments(groups: list) -> list:
    """Per-slot AP segments (or ``None``) for the batched kernel.

    A vertex-disjoint matching round whose head-sorted arcs decompose into
    a few arithmetic progressions (``_bitops.ap_segments``) is applied
    *densely* through copy-free slice views, and the sparse set of faulted
    transmissions is snapshot/restored around the dense OR.  That is exact
    precisely because of disjointness: a failed arc's head receives from no
    other arc this round (heads distinct), and its pre-round row is never a
    source for anyone (no head is a tail), so restoring it yields the same
    state as never firing the arc.
    """
    segments = []
    for g in groups:
        seg = None
        if (
            g.m
            and g.heads_distinct
            and np.intersect1d(g.src_tails, g.uheads).size == 0
        ):
            seg = _ap_segments(g.src_tails, g.uheads)
        segments.append(seg)
    return segments


def _run_batched_stacked(
    programs: list[RoundProgram],
    samples: list[FaultSample],
    nominals: list[int | None],
    *,
    telem_counts: dict | None = None,
) -> list[tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...]]]:
    """All trials of all candidates at once over one ``(n, cols, W)`` tensor.

    This is the one batched kernel: :func:`monte_carlo` runs it with a
    single candidate, :func:`monte_carlo_stacked` and the search's robust
    objective with many.  Trials live in the *middle* axis so that gathering
    a round's tail rows is a contiguous block copy (the gather/scatter
    volume — m·cols·W words per round — is the inherent cost; this layout
    moves it at streaming bandwidth instead of strided-access speed).
    Columns are grouped into candidate-major blocks (candidate ``c``'s
    trials occupy one contiguous column slice), and one round step applies
    each candidate's own precompiled slot — its head groups, AP segments and
    fault mask — to its block *view*.

    ``nominals`` are the candidates' fault-free completion rounds (``None``
    when the caller skipped the nominal run).  Completion is found as the
    module docstring's "Completion detection" describes: rounds up to
    ``min(nominals) − 1`` run unscanned, then doubling batches each end in
    one AND-reduce scan, whose finished columns are replayed as one
    ``(n, d, W)`` batch from the saved pre-batch state with the same round
    step.  Applying extra rounds to an already-complete trial cannot change
    its state (its rows hold every item bit, OR is idempotent), so the
    replay is purely about the round *number* — results stay bit-identical
    to the looped path.  Completed trials are compacted out of the tensor,
    preserving column order so the blocks stay contiguous slices and the
    per-round cost tracks the surviving trial count.

    Each candidate runs against its own :class:`FaultSample` (horizon and
    draws included), so its results do not depend on which other candidates
    share the tensor.  Candidates past their horizon freeze — their
    still-live columns ride along untouched until the whole stack drains.
    Candidates must share the vertex count ``n`` (the tensor's row axis);
    everything else — periods, horizons, trial counts — may differ.
    """
    if len(programs) != len(samples):
        raise SimulationError(
            f"stacked Monte-Carlo needs one sample per program, got "
            f"{len(programs)} programs and {len(samples)} samples"
        )
    if not programs:
        return []
    k = len(programs)
    n = programs[0].graph.n
    for program in programs[1:]:
        if program.graph.n != n:
            raise SimulationError(
                f"stacked Monte-Carlo needs candidates over one vertex count, "
                f"got n={n} and n={program.graph.n}"
            )
    words = max(1, (n + _WORD_MASK) >> _WORD_SHIFT)
    full_value = (1 << n) - 1
    full_words = _pack_int(full_value, words)

    groups_by_c = [
        [_compile_head_groups(*_arc_indices(p.graph, arcs)) for arcs in p.rounds]
        for p in programs
    ]
    segments_by_c = [_slot_segments(groups) for groups in groups_by_c]

    def group_at(c: int, r: int):
        groups = groups_by_c[c]
        return groups[(r - 1) % len(groups)] if programs[c].cyclic else groups[r - 1]

    def segment_at(c: int, r: int):
        segments = segments_by_c[c]
        return segments[(r - 1) % len(segments)] if programs[c].cyclic else segments[r - 1]

    # Candidate-major column layout: candidate c's live trials are one
    # contiguous block, recovered after any compaction by searchsorted.
    # ``completion`` is indexed by offsets[c] + trial.
    offsets = np.cumsum([0] + [s.trials for s in samples])
    completion = np.full(int(offsets[-1]), -1, dtype=np.int64)
    col_cand = np.repeat(np.arange(k), [s.trials for s in samples])
    col_trial = np.concatenate([np.arange(s.trials) for s in samples])
    if n == 1:  # the start state is already complete
        completion[:] = 0
        col_cand, col_trial = col_cand[:0], col_trial[:0]

    tensor = np.zeros((n, col_cand.size, words), dtype=np.uint64)
    rows = np.arange(n)
    if col_cand.size:
        tensor[rows, :, (rows >> _WORD_SHIFT)] = _BIT_LUT[rows & _WORD_MASK][:, None]

    def block_bounds(cands: np.ndarray) -> list[int]:
        return np.searchsorted(cands, np.arange(k + 1)).tolist()

    bounds = block_bounds(col_cand)
    # One flat scratch block for every gather: candidate blocks are applied
    # one after another and only ever shrink (compaction and the replay both
    # take column subsets), so the largest block at the start bounds them all.
    scratch = np.empty(
        words
        * max(
            max((g.m + g.uheads.size for g in groups if g.m), default=0)
            * (bounds[c + 1] - bounds[c])
            for c, groups in enumerate(groups_by_c)
        ),
        dtype=np.uint64,
    )

    def step(tensor: np.ndarray, bounds: list[int], trials: np.ndarray, r: int) -> None:
        """Round ``r`` on every candidate block of ``tensor`` (columns
        ``bounds[c]:bounds[c + 1]`` hold candidate ``c``'s ``trials``)."""
        for c in range(k):
            start, stop = bounds[c], bounds[c + 1]
            if start == stop or r > samples[c].horizon:
                continue
            g = group_at(c, r)
            if g.m == 0:
                continue
            rmask = samples[c].round_mask(r)[trials[start:stop]][:, g.arc_order]
            if not rmask.any():
                continue
            view = tensor[:, start:stop]
            seg = segment_at(c, r)
            if seg is not None:
                fails_arc, fails_col = np.nonzero(~rmask.T)
                if fails_arc.size:
                    kept_rows = view[g.uheads[fails_arc], fails_col]
                for tail_part, head_slice in seg:
                    targets = view[head_slice]
                    sources = (
                        view[tail_part]
                        if isinstance(tail_part, slice)
                        else view.take(tail_part, axis=0)
                    )
                    np.bitwise_or(targets, sources, out=targets)
                if fails_arc.size:
                    view[g.uheads[fails_arc], fails_col] = kept_rows
            else:
                _apply_masked_round(view, g, np.ascontiguousarray(~rmask.T), scratch)

    def complete(tensor: np.ndarray) -> np.ndarray:
        """Which columns hold every item (bits ≥ n are never set)."""
        return (np.bitwise_and.reduce(tensor, axis=0) == full_words).all(axis=1)

    def replay(
        finished: np.ndarray, cands: np.ndarray, trials: np.ndarray, start: int, stop: int
    ) -> None:
        """Stamp the first complete round of each ``finished`` column (the
        pre-batch states of candidates ``cands``' ``trials``) by running
        rounds start+1 … stop on them again, dropping stamped columns."""
        ids = offsets[cands] + trials
        bounds = block_bounds(cands)
        for r in range(start + 1, stop + 1):
            step(finished, bounds, trials, r)
            done = complete(finished)
            if not done.any():
                continue
            completion[ids[done]] = r
            if done.all():
                return
            keep = ~done
            finished = finished.compress(keep, axis=1)
            cands, trials, ids = cands[keep], trials[keep], ids[keep]
            bounds = block_bounds(cands)
        raise SimulationError(  # pragma: no cover - scan/replay disagreement
            f"replay of {ids.size} finished trials did not reach completion by round {stop}"
        )

    max_horizon = max(s.horizon for s in samples)
    # Faults only silence scheduled arcs, so nothing completes before the
    # earliest nominal round: run up to it unscanned and unsaved.
    executed = 0 if None in nominals else max(min(nominals) - 1, 0)
    for r in range(1, executed + 1):
        step(tensor, bounds, col_trial, r)
    batch = 1
    while executed < max_horizon and col_cand.size:
        size = min(batch, max_horizon - executed)
        if telem_counts is not None:
            telem_counts["batches"] += 1
        saved = tensor.copy()
        for r in range(executed + 1, executed + size + 1):
            step(tensor, bounds, col_trial, r)
        done = complete(tensor)
        if done.any():
            finished = saved.compress(done, axis=1)
            del saved
            keep = ~done
            finished_cand, finished_trial = col_cand[done], col_trial[done]
            col_cand, col_trial = col_cand[keep], col_trial[keep]
            tensor = tensor.compress(keep, axis=1)
            bounds = block_bounds(col_cand)
            replay(finished, finished_cand, finished_trial, executed, executed + size)
            if telem_counts is not None:
                dropped = int(finished_cand.size)
                telem_counts["exact_replays"] += dropped
                telem_counts["compactions"] += 1
                telemetry.event(
                    "faults.compaction",
                    round=executed + size,
                    dropped=dropped,
                    live=int(col_cand.size),
                )
        executed += size
        batch = min(batch * 2, _BATCH_CAP)

    complete_row = (full_value,) * n
    knowledge = [complete_row if r >= 0 else None for r in completion.tolist()]
    for position, column in enumerate((offsets[col_cand] + col_trial).tolist()):
        knowledge[column] = _unpack_rows(np.ascontiguousarray(tensor[:, position]))
    rounds = [r if r >= 0 else None for r in completion.tolist()]
    return [
        (tuple(rounds[lo:hi]), tuple(knowledge[lo:hi]))
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]


def monte_carlo_stacked(
    candidates,
    model: FaultModel,
    *,
    trials: int,
    seed: int = 0,
    max_rounds: int | None = None,
    engine: str | SimulationEngine | None = "auto",
) -> tuple[FaultTrialResult, ...]:
    """Fault-evaluate a whole candidate set in one stacked kernel invocation.

    Semantically equivalent to ``tuple(monte_carlo(c, model, trials=trials,
    seed=seed, max_rounds=max_rounds) for c in candidates)`` — same
    per-candidate horizons (derived from each candidate's own fault-free
    run when ``max_rounds`` is ``None``), same seeded fault realisations,
    bit-identical completion rounds and knowledge — but executed over one
    ``(n, candidates · trials, W)`` tensor so the batch bookkeeping is paid
    once for the whole set.  All candidates must share the vertex count.

    ``engine`` only drives the nominal (fault-free) horizon runs; the
    trials themselves always run in the stacked kernel, and results carry
    ``engine_name="montecarlo-stacked"``.
    """
    candidates = list(candidates)
    if not candidates:
        return ()
    _rec = telemetry.get_recorder()
    _telem = _rec.enabled
    _t0 = time.perf_counter_ns() if _telem else 0
    programs = [_program_for(candidate, None) for candidate in candidates]

    planned = [
        _fault_sample(program, model, trials, seed, max_rounds=max_rounds, engine=engine)
        for program in programs
    ]
    nominals = [nominal for nominal, _ in planned]
    fault_samples = [sample for _, sample in planned]
    horizons = [sample.horizon for sample in fault_samples]

    _counts = {"batches": 0, "exact_replays": 0, "compactions": 0} if _telem else None
    outcomes = _run_batched_stacked(
        programs, fault_samples, nominals, telem_counts=_counts
    )
    results = tuple(
        FaultTrialResult(
            graph=programs[i].graph,
            model_name=model.name,
            trials=trials,
            horizon=horizons[i],
            seed=seed,
            nominal_rounds=nominals[i],
            completion_rounds=outcomes[i][0],
            knowledge=outcomes[i][1],
            engine_name="montecarlo-stacked",
        )
        for i in range(len(programs))
    )

    if _telem:
        counts = {
            "runs": 1,
            "candidates": len(programs),
            "trials": trials * len(programs),
            "completed": sum(r.completed for r in results),
            "horizon": max(horizons),
        }
        if _counts is not None:
            counts.update(_counts)
        _rec.counters("faults.montecarlo_stacked", counts)
        _hist = telemetry.Histogram.of(
            *(r for result in results for r in result.completion_rounds if r is not None)
        )
        if _hist.count:
            # Same name as the solo path: one distribution to merge across
            # batched and candidate-stacked runs.
            _rec.histogram("faults.completion_rounds", _hist)
        telemetry.record_span(
            "faults.monte_carlo_stacked",
            _t0,
            method="stacked",
            engine="montecarlo-stacked",
            n=programs[0].graph.n,
            candidates=len(programs),
            trials=trials,
            horizon=max(horizons),
            words=max(1, (programs[0].graph.n + _WORD_MASK) >> _WORD_SHIFT),
        )
    return results
