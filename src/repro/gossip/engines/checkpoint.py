"""Checkpoint/resume layer of the engine protocol, and the one run driver.

A *checkpoint* freezes a run mid-program: :class:`EngineState` is the
engine-agnostic snapshot of everything a backend needs to continue the run
— the exact knowledge bitsets after round ``r``, the target mask the run
was started with, and the prefixes of every tracked analysis (per-item
completion, the first-arrival matrix).  ``run_checkpointed(program,
resume_from=state)`` continues a state on a program whose executed rounds
``1 … r`` match the ones that produced the state, and returns a result
**bit-identical to the cold run** of that program.

Determinism contract
--------------------
Resume correctness is guaranteed *by construction*, not by replaying
history:

* the snapshot is canonical (plain Python integers, exactly the
  ``SimulationResult.knowledge`` encoding), so a state captured by one
  backend can be resumed by any other — the differential resume suite
  (``tests/test_engines_resume.py``) checks every ordered engine pair;
* every incremental counter an engine keeps (target-mask totals, per-item
  counts) is recomputed from the snapshot at resume time — the
  union of knowledge bits is time-invariant (bits only spread, never
  appear), so derived quantities like the reachable-bit set are identical
  to the cold run's;
* the sparse frontier engine treats the resume point like a program
  start: for the first ``s`` rounds after round ``r`` every slot fires
  through the dense full-knowledge path (it has no delta window yet),
  after which windows built purely from post-resume deltas take over.  The induction that justifies window transmission therefore never
  references pre-resume history, which is what makes resume exact for
  *any* program suffix — including a suffix the original run never saw,
  the case incremental schedule search exercises on every move.

The caller owns the prefix contract: resuming a state on a program whose
rounds ``1 … r`` differ from the producing run's is undetected and returns
garbage.  The search layer (:mod:`repro.search.incremental`) keys cached
states by the candidate period and only reuses a state below the first
modified round.

Surface
-------
Every engine provides these two methods, which make up the whole
:class:`~repro.gossip.engines.base.SimulationEngine` protocol.  Every
shipped engine inherits them from :class:`CheckpointingMixin`, which
defines them once for all of them:

``run(program, **options) -> SimulationResult``
    A plain run: ``run_checkpointed(program, **options).result``.
``run_checkpointed(program, checkpoint_rounds=..., resume_from=..., **options)``
    The one primitive: run (or resume) a program, capturing a state after
    each requested round, and return a :class:`CheckpointedRun`.
    Checkpoint rounds that the run never reaches (it completed earlier)
    are silently skipped; rounds inside a fixed-point early-exit region
    are synthesized exactly.  ``slot_cache`` is a caller-owned ``dict``
    that memoizes compiled round slots across runs of one engine on one
    graph (:func:`compiled_slots`); an engine that compiles nothing
    ignores it.  ``run_checkpointed(program, checkpoint_rounds=(r,))``
    captures the one state after round ``r``, and
    ``run_checkpointed(program, resume_from=state).result`` continues a
    state to the end of ``program``'s budget.

The run driver
--------------
``run_checkpointed`` owns everything around an engine's round loop.
Before the first round it validates the start (:func:`check_resume_state`
or the initial vector), resolves the target mask and the wanted checkpoint
rounds, builds the tracked prefixes at the start round — from the state,
or from the start knowledge — as arrays with ``-1`` for "not yet", tests
completion and captures the start round.  It then calls the engine's one
hook, ``_execute``, with an :class:`EngineRun`; a start that is already
complete skips the hook.  After the last round it synthesizes the rounds
a fixed-point exit skipped, flushes the telemetry and assembles the
result.  None of this runs per round.

A backend subclasses :class:`CheckpointingMixin` and implements
``_execute(run) -> (knowledge, executed, completion, counters)``: execute
rounds ``run.base + 1`` onwards from the incomplete start, stopping at
completion or at ``run.program.max_rounds``, and return the final
knowledge in public row and bit order (a packed ``uint64`` matrix, or a
list of Python ints), the last executed round, the completion round (or
``None``) and a dict of the engine's own counters, named in its
``engine_counters``.  Along the way the loop stamps each event's round
into ``run``'s tracked prefix arrays in place and calls
:meth:`EngineRun.capture` after round ``run.next_capture``.  An engine
that sets ``stops_at_fixed_point`` may return early once a full period
brought no news: the driver fills in the remaining no-op rounds and
reports ``rounds_synthesized`` and ``early_exit_round`` for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import and_

import numpy as np

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines._bitops import unpack_rows
from repro.gossip.engines.base import (
    ArrivalRounds,
    RoundProgram,
    SimulationResult,
    arrival_dtype,
    check_initial,
    decode_rounds,
    full_mask,
    initial_knowledge,
    iter_set_bits,
)

__all__ = [
    "EngineState",
    "CheckpointedRun",
    "CheckpointingMixin",
    "EngineRun",
]


@dataclass(frozen=True)
class EngineState:
    """Engine-agnostic snapshot of a run after ``round`` rounds.

    ``knowledge`` uses the canonical arbitrary-precision-integer encoding
    (bit ``j`` of entry ``v`` set iff vertex ``v`` knows item ``j``), so the
    state is backend-portable by construction.  ``target_mask`` and which
    prefixes are present (not ``None``) record the option signature of the
    producing run; resume validates them against the requested options,
    because a state captured without (say) arrival tracking cannot seed a
    tracked continuation.

    ``completion_round`` is almost always ``None`` — engines stop at
    completion, so a mid-run snapshot is incomplete by construction; the
    only states carrying a completion are those captured exactly at the
    completing round (or at round 0 of an initially complete program), and
    resuming one short-circuits to the finished result.

    Tracked prefixes: ``item_completion`` / ``arrivals`` are ``None`` when
    the producing run did not track them; otherwise they mirror the
    corresponding :class:`~repro.gossip.engines.base.SimulationResult`
    encodings (``None`` for not-yet events), restricted to what had
    happened by ``round``.
    """

    round: int
    knowledge: tuple[int, ...]
    completion_round: int | None
    target_mask: int
    item_completion: tuple[int | None, ...] | None = None
    arrivals: tuple[tuple[int | None, ...], ...] | None = None
    engine_name: str | None = None

    @property
    def n(self) -> int:
        """Vertex count of the program the state belongs to."""
        return len(self.knowledge)


@dataclass(frozen=True)
class CheckpointedRun:
    """A simulation result plus the states captured along the way.

    ``checkpoints`` is ordered by round and contains exactly the requested
    rounds the run reached (a run completing at round ``c`` yields no state
    beyond ``c``; synthesized fixed-point rounds *are* reachable).
    """

    result: SimulationResult
    checkpoints: tuple[EngineState, ...]


def _resolved_mask(program: RoundProgram, target_mask: int | None) -> int:
    return full_mask(program.graph.n) if target_mask is None else target_mask


def check_resume_state(
    state: EngineState,
    program: RoundProgram,
    *,
    target_mask: int | None,
    track_item_completion: bool,
    track_arrivals: bool,
) -> None:
    """Validate that ``state`` can seed a run of ``program`` under these options.

    Catches signature mismatches (vertex count, target mask, which
    prefixes are tracked), budgets that end before the resume point, and
    tracked prefixes of the wrong shape or holding a round that is neither
    ``None`` nor one of ``0 … state.round``.  The round-prefix contract —
    ``program``'s rounds ``1 … state.round`` must equal the producing
    run's — is the caller's responsibility and is *not* checked here
    (doing so would require storing the whole executed prefix).
    """
    n = program.graph.n
    if state.n != n:
        raise SimulationError(
            f"cannot resume: state snapshots {state.n} vertices, program has {n}"
        )
    if state.round < 0:
        raise SimulationError(f"cannot resume from negative round {state.round}")
    if state.round > program.max_rounds:
        raise SimulationError(
            f"cannot resume at round {state.round}: the program budget is only "
            f"{program.max_rounds} rounds"
        )
    if state.target_mask != _resolved_mask(program, target_mask):
        raise SimulationError(
            "cannot resume: the state was captured under a different target mask"
        )
    wanted = (track_item_completion, track_arrivals)
    have = (state.item_completion is not None, state.arrivals is not None)
    if wanted != have:
        raise SimulationError(
            f"cannot resume: the state was captured with tracking flags "
            f"(items, arrivals) = {have}, the resumed run asks for {wanted}"
        )
    if track_item_completion and len(state.item_completion) != n:
        raise SimulationError(
            f"cannot resume: the state's item-completion prefix does not have "
            f"one entry for each of the {n} items"
        )
    if track_arrivals and (
        len(state.arrivals) != n or any(len(row) != n for row in state.arrivals)
    ):
        raise SimulationError(
            f"cannot resume: the state's arrival prefix is not {n} rows of {n} entries"
        )
    if track_item_completion:
        _check_prefix_rounds("item-completion", (state.item_completion,), state.round)
    if track_arrivals:
        _check_prefix_rounds("arrival", state.arrivals, state.round)


def _check_prefix_rounds(name: str, rows, last: int) -> None:
    """Refuse a tracked prefix holding an entry that is neither ``None`` nor
    a round in ``0 … last``."""
    # One pass collects the distinct entries (at most last + 2 of them in a
    # valid prefix), with no per-entry Python test and no n x n copy.
    seen = set()
    for row in rows:
        seen.update(row)
    seen.discard(None)
    bad = [x for x in seen if not 0 <= x <= last]
    if bad:
        raise SimulationError(
            f"cannot resume: the state's {name} prefix holds round {min(bad)}, "
            f"outside 0 … {last}"
        )


def normalize_checkpoint_rounds(checkpoint_rounds, base: int) -> list[int]:
    """Sorted unique checkpoint rounds at or after the run's start round."""
    wanted = sorted({int(r) for r in checkpoint_rounds})
    if wanted and wanted[0] < 0:
        raise SimulationError(f"checkpoint rounds must be >= 0, got {wanted[0]}")
    return [r for r in wanted if r >= base]


#: Compiled-slot caches are cleared past this size so a long search walk
#: cannot grow one without bound (distinct rounds accumulate with every
#: insert/mutate move).
_SLOT_CACHE_LIMIT = 4096


def compiled_slots(
    rounds, compile_slot, slot_cache: dict | None, *, anchored: bool = False
) -> list:
    """``compile_slot(arcs)`` for every round, compiling each distinct round once.

    Entries are memoized in ``slot_cache`` when given, and otherwise in a
    dict private to the call, so a finite program that repeats its rounds
    (an unrolled schedule) compiles each one once, not once per occurrence.
    Entries are keyed by round *identity*: ``make_round`` interns rounds, so
    one search walk sees the same tuple objects over and over, and an
    identity key avoids re-hashing a whole arc tuple per slot per run.  An
    ``anchored`` compilation also depends on the program's first non-empty
    round (the permuted vectorized kernel's row order is a function of its
    head set), so its key is the ``(id(round), id(anchor))`` pair: a move
    that changes the anchor forces recompilation, and the two key kinds
    never collide.  Each entry holds the objects its key identifies, which
    keeps those ids valid for the entry's lifetime.  The dict is opaque to
    callers and must not be shared across graphs or engines.
    """
    if slot_cache is None:
        slot_cache = {}
    anchor = next((arcs for arcs in rounds if arcs), None) if anchored else None
    slots = []
    for arcs in rounds:
        key = (id(arcs), id(anchor)) if anchored else id(arcs)
        entry = slot_cache.get(key)
        if entry is None:
            if len(slot_cache) >= _SLOT_CACHE_LIMIT:
                slot_cache.clear()
            entry = slot_cache[key] = (arcs, anchor, compile_slot(arcs))
        slots.append(entry[2])
    return slots


def _canonical_knowledge(knowledge) -> tuple[int, ...]:
    """Python-int rows from an engine's list or packed ``uint64`` matrix."""
    return tuple(knowledge) if isinstance(knowledge, list) else unpack_rows(knowledge)


class EngineRun:
    """One run as the driver hands it to an engine's ``_execute`` hook.

    For the hook to read: ``program``; ``base``, the round the run starts
    after (0, or the resumed state's round); ``start``, the knowledge after
    ``base`` as a fresh list of Python ints in public vertex order, which
    the hook may reuse as its own state; the resolved ``target_mask``;
    ``slot_cache`` (see :func:`compiled_slots`); and ``counting``, whether
    a telemetry recorder will take the engine's counters.

    The tracked prefixes, indexed by public vertex and public item, are the
    driver's own arrays and the loop fills them in place, on every engine:
    ``item_rounds`` (``n`` entries, int64) and ``arrivals`` (``n`` rows of
    ``n``, in :func:`~repro.gossip.engines.base.arrival_dtype` of the last
    round the run can stamp, see ``__init__``, which is int16 unless the
    program is long) hold ``-1`` for "not yet", and are ``None`` when
    untracked.

    ``next_capture`` is the next wanted checkpoint round, or a round past
    the budget when none is left; the loop calls :meth:`capture` right
    after executing it.
    """

    __slots__ = (
        "program",
        "base",
        "start",
        "target_mask",
        "item_rounds",
        "arrivals",
        "completion",
        "next_capture",
        "slot_cache",
        "counting",
        "checkpoints",
        "_wanted",
        "_engine_name",
    )

    def __init__(
        self,
        engine,
        program: RoundProgram,
        *,
        checkpoint_rounds,
        resume_from: EngineState | None,
        slot_cache: dict | None,
        initial: list[int] | None,
        target_mask: int | None,
        track_item_completion: bool,
        track_arrivals: bool,
        counting: bool,
    ) -> None:
        n = program.graph.n
        state = resume_from
        if state is not None:
            if initial is not None:
                raise SimulationError(
                    "resume_from and initial are mutually exclusive "
                    "(the state carries the knowledge vector)"
                )
            check_resume_state(
                state,
                program,
                target_mask=target_mask,
                track_item_completion=track_item_completion,
                track_arrivals=track_arrivals,
            )
            start = list(state.knowledge)
            base = state.round
        else:
            start = initial_knowledge(n) if initial is None else list(initial)
            base = 0
        check_initial(start, n)
        full = _resolved_mask(program, target_mask)

        self.program = program
        self.base = base
        self.start = start
        self.target_mask = full
        self.slot_cache = slot_cache
        self.counting = counting
        self.checkpoints: list[EngineState] = []
        self._engine_name = engine.name

        self.item_rounds = self.arrivals = None
        if track_item_completion:
            self.item_rounds = np.full(n, -1, dtype=np.int64)
        if track_arrivals:
            # The last round a first arrival can take.  A finite program
            # stamps at most its budget.  A cyclic program with period s
            # fires each arc of its period once in any s consecutive rounds,
            # so an item a vertex knows after round t reaches every
            # out-neighbour along a period arc by round t + s.  Each item
            # that ever reaches a vertex does so along a shortest such path
            # of at most n - 1 arcs from a vertex that knew it after round
            # base, so by round base + s·(n - 1).  Resumed prefix entries
            # are at most base (check_resume_state).  The loops stamp Python
            # ints, which NumPy refuses with OverflowError rather than
            # wrapping, so a wrong bound fails loudly.
            last = program.max_rounds
            if program.cyclic:
                last = min(last, base + len(program.rounds) * (n - 1))
            self.arrivals = np.full((n, n), -1, dtype=arrival_dtype(last))
        if state is not None:
            self.completion = state.completion_round
            if track_item_completion:
                self.item_rounds[:] = [-1 if x is None else x for x in state.item_completion]
            if track_arrivals:
                # One row at a time: never an n x n nested list on top of
                # the matrix.
                for v, row in enumerate(state.arrivals):
                    self.arrivals[v] = [-1 if x is None else x for x in row]
        else:
            self.completion = 0 if all(v & full == full for v in start) else None
            vertex_items = full_mask(n)
            if track_item_completion:
                # Round 0 for every item that all start rows hold.
                for j in iter_set_bits(reduce(and_, start) & vertex_items):
                    self.item_rounds[j] = 0
            if track_arrivals:
                # Round 0 wherever a start row holds a vertex item.
                for v, bits in enumerate(start):
                    for j in iter_set_bits(bits & vertex_items):
                        self.arrivals[v, j] = 0

        # Wanted rounds as a stack with the next one on top, above a round
        # past the budget: no run reaches that one, so the stack never runs
        # dry.
        self._wanted = [program.max_rounds + 1]
        self._wanted.extend(reversed(normalize_checkpoint_rounds(checkpoint_rounds, base)))
        self.next_capture = self._wanted.pop()

    def capture(self, round_number: int, completion: int | None, knowledge) -> int:
        """Snapshot the run after ``round_number``; return the next wanted round.

        ``knowledge`` is the engine's state after that round in public row
        and bit order — a packed ``uint64`` matrix or a list of Python ints;
        the tracked prefixes come from the run itself.
        """
        self.checkpoints.append(
            EngineState(
                round=round_number,
                knowledge=_canonical_knowledge(knowledge),
                completion_round=completion,
                target_mask=self.target_mask,
                item_completion=(
                    None
                    if self.item_rounds is None
                    else decode_rounds(self.item_rounds.tolist())
                ),
                arrivals=(
                    None
                    if self.arrivals is None
                    else tuple(map(decode_rounds, self.arrivals.tolist()))
                ),
                engine_name=self._engine_name,
            )
        )
        self.next_capture = self._wanted.pop()
        return self.next_capture


class CheckpointingMixin:
    """The run driver: the whole
    :class:`~repro.gossip.engines.base.SimulationEngine` protocol — ``run``
    and ``run_checkpointed`` — around one engine hook, ``_execute`` (see
    the module docstring for the hook's contract).
    Every engine gets its tracked prefixes in the one array form of
    :class:`EngineRun`.

    Class attributes an engine sets:

    ``engine_counters``
        The names of the counters ``_execute`` returns, flushed under
        ``engine.<name>`` after ``runs`` and ``rounds_simulated``.
    ``stops_at_fixed_point``
        The round loop may stop after a full period without news; the
        driver synthesizes the remaining rounds and also reports
        ``rounds_synthesized`` and ``early_exit_round``.
    """

    name: str
    engine_counters: tuple[str, ...] = ()
    stops_at_fixed_point = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Bind both entry points on every engine class itself, so tools that
        # wrap them per class (a profiler, the benchmark's layer tracer in
        # perfbench/tracer.py) reach exactly one backend, and can restore it.
        for attr in ("run", "run_checkpointed"):
            if attr not in cls.__dict__:
                setattr(cls, attr, getattr(cls, attr))

    def _execute(self, run: EngineRun):
        """Execute the rounds after ``run.base``; see the module docstring."""
        raise NotImplementedError

    def run(
        self,
        program: RoundProgram,
        *,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> SimulationResult:
        """Execute ``program`` (see
        :class:`~repro.gossip.engines.base.SimulationEngine`)."""
        return self.run_checkpointed(
            program,
            initial=initial,
            target_mask=target_mask,
            track_item_completion=track_item_completion,
            track_arrivals=track_arrivals,
        ).result

    def run_checkpointed(
        self,
        program: RoundProgram,
        *,
        checkpoint_rounds=(),
        resume_from: EngineState | None = None,
        slot_cache: dict | None = None,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> CheckpointedRun:
        """Run (or resume) ``program``, capturing a state after each wanted
        round; see the module docstring."""
        recorder = telemetry.get_recorder()
        counting = recorder.enabled
        t0 = time.perf_counter_ns() if counting else 0
        run = EngineRun(
            self,
            program,
            checkpoint_rounds=checkpoint_rounds,
            resume_from=resume_from,
            slot_cache=slot_cache,
            initial=initial,
            target_mask=target_mask,
            track_item_completion=track_item_completion,
            track_arrivals=track_arrivals,
            counting=counting,
        )
        base = run.base
        if run.next_capture == base:
            run.capture(base, run.completion, run.start)
        if run.completion is None:
            knowledge, executed, completion, counts = self._execute(run)
        else:
            knowledge, executed, completion = run.start, base, run.completion
            counts = dict.fromkeys(self.engine_counters, 0)

        synthesized = early_exit = 0
        if completion is None and executed < program.max_rounds:
            # The loop stopped at a fixed point: every later round is a no-op,
            # so the remaining rounds, and the checkpoints among them, come
            # from the frozen state, indistinguishable from running them out.
            early_exit = executed
            synthesized = program.max_rounds - executed
            executed = program.max_rounds
            while run.next_capture <= executed:
                run.capture(run.next_capture, None, knowledge)

        if counting:
            if self.stops_at_fixed_point:
                counts = {
                    "rounds_synthesized": synthesized,
                    **counts,
                    "early_exit_round": early_exit,
                }
            simulated = executed - base - synthesized
            counts = {"runs": 1, "rounds_simulated": simulated, **counts}
            component = "engine." + self.name
            recorder.counters(component, counts)
            recorder.histogram(component + ".rounds", telemetry.Histogram.of(simulated))
            telemetry.record_span(
                "engine.run", t0, engine=self.name, n=program.graph.n, resumed_round=base
            )

        result = SimulationResult(
            graph=program.graph,
            rounds_executed=executed,
            completion_round=completion,
            knowledge=_canonical_knowledge(knowledge),
            item_completion_rounds=(
                None if run.item_rounds is None else decode_rounds(run.item_rounds.tolist())
            ),
            arrival_rounds=None if run.arrivals is None else ArrivalRounds(run.arrivals),
            engine_name=self.name,
        )
        return CheckpointedRun(result, tuple(run.checkpoints))
