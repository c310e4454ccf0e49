"""Pluggable simulation engines and their registry.

Three backends ship with the library:

* ``"reference"`` — the pure-Python arbitrary-precision-integer loop
  (:mod:`repro.gossip.engines.reference`), the semantic oracle;
* ``"vectorized"`` — the packed ``uint64`` NumPy bitset kernel
  (:mod:`repro.gossip.engines.vectorized`): one source-map gather-OR per
  round on cache-resident matrices, row-permuted L2-tiled gather/scatter
  on larger ones; typically 10-100× faster than the reference on
  instances with thousands of vertices;
* ``"frontier"`` — the sparse frontier-propagation engine
  (:mod:`repro.gossip.engines.frontier`), which transmits only
  newly-learned (vertex, item) pairs each round.

Selection
---------
Every simulation entry point (:func:`repro.gossip.simulation.simulate` and
friends) takes an ``engine`` keyword: an engine *name*, an engine
*instance*, or ``"auto"`` (the default).  Names are matched
case-insensitively.  The choice is recorded on
``SimulationResult.engine_name`` so a fallback can never go unnoticed.
The ``REPRO_SIM_ENGINE`` environment
variable overrides ``"auto"`` globally (explicitly named engines win over
the environment), which lets benchmarks and CI pin a backend without
threading a flag through every call site.

``"auto"`` heuristics: selection is *workload-aware*.  Entry points pass
the compiled :class:`RoundProgram` and the tracking flags to
:func:`resolve_engine`, and a coded decision function
(:func:`select_engine_name`) reproduces the measured crossover table in
ROADMAP.md from one statistic, computed for arrival-tracked runs only:

* *arrival-tracked cyclic runs* (``track_arrivals``, with or without item
  tracking) → **frontier** when the BFS depth of the program's graph from
  vertex 0 is at least √n (``depth² ≥ n``: cycles, paths, grids, tori),
  **vectorized** below it (trees, hypercubes, cube-connected cycles and
  the de Bruijn, Kautz and butterfly networks).  The dense kernel diffs
  every receiver row each round, so its cost grows with the number of
  rounds, which the depth tracks; the frontier engine pays per delivered
  (vertex, item) pair instead, which only a long run amortises.
* *every other run* → **vectorized**: finite programs (no slot refires,
  so sparse windows never pay off), item-tracked runs (item completion is
  scanned once per doubling batch), and plain runs at any size.

``auto`` never picks **reference**: it is the differential oracle, run by
name only.

Callers that resolve without a program (``resolve_engine()`` bare) keep
the historical pick — the vectorized kernel, whose dense gather/scatter
is never pathological.  Explicit names and ``REPRO_SIM_ENGINE`` always
win over the decision function, and the resolved backend — never the
literal ``"auto"`` — is what lands in ``engine_name``, so a misprediction
is visible in every result.  Dispatch can only change speed, never
results: the registry-parametrized differential and fuzz suites certify
all backends bit-identical.

Batched Monte-Carlo vs looped single runs
-----------------------------------------
Fault-injected trial ensembles (:mod:`repro.faults.montecarlo`) add a
*many-runs-of-one-program* axis to the choice above.  Use the **batched**
tensor path (``monte_carlo(..., method="batched")``, the default under
``engine="auto"``) whenever you run tens of trials or more of the same
program: it stacks all trials into one ``(n, trials, W)`` tensor, compiles
each round slot once for the whole ensemble, and advances every trial per
NumPy pass — measured 29–34× over 256 independent runs at n = 1024.  It is
the one-candidate case of ``monte_carlo_stacked``, which runs a whole
candidate set through the same kernel; both report
``engine_name="montecarlo-batched"``.  Prefer
**looped single runs** (``method="looped"`` with any engine above) when
trials are few, when you need a non-default backend's strengths (e.g. the
frontier engine on a huge sparse instance that dwarfs the trial count), or
when certifying a new backend against the batched kernel — the looped path
replays the identical fault realisation, so disagreement is a bug, never
noise.

Checkpoint/resume
-----------------
Checkpoint/resume is part of the one engine protocol,
:class:`~repro.gossip.engines.base.SimulationEngine`, which every engine
implements and :func:`register_engine` and :func:`resolve_engine` enforce.
All three registered engines get it from one driver,
:class:`~repro.gossip.engines.checkpoint.CheckpointingMixin`
(:mod:`repro.gossip.engines.checkpoint`): ``run_checkpointed`` captures
:class:`EngineState` snapshots after requested rounds, and resumes one
when given ``resume_from``.

The determinism contract: resuming a state on a program whose executed
prefix matches the producing run's returns a result **bit-identical to the
cold run** — final knowledge, rounds executed, completion round, item
completion and arrival matrices all agree exactly, for any program suffix.
States are stored in the canonical integer encoding, so they are portable
across backends (checkpoint on vectorized, resume on frontier, and vice
versa).  This is what lets incremental schedule search
(:mod:`repro.search.incremental`) re-simulate only the rounds a move
changed while provably visiting the same walk as full re-evaluation.
Search runs are plain or item-tracked, so ``engine="auto"`` puts them on
the vectorized kernel whether they resume or not.

Telemetry
---------
Every backend self-reports through :mod:`repro.telemetry` when a recorder
is active (``--trace PATH`` / ``REPRO_TRACE`` stream JSONL; ``--metrics``
prints the in-memory roll-up; both install a recorder around the run).
With the default ``NullRecorder`` the whole layer costs one context-variable
read per run — counters are accumulated as plain local ints in the round
loop and the run driver flushes them once at run end, never per-slot.

Counter vocabulary (component ``engine.<name>``):

* ``runs`` — engine invocations;
* ``rounds_simulated`` — rounds actually executed by the loop: the
  result's ``rounds_executed`` minus the resume round minus
  ``rounds_synthesized``, for every engine;
* ``rounds_synthesized`` — rounds *not* executed because the engine
  proved a fixed point (a full period without news, on the frontier
  engine or in the vectorized batched loop) and the run driver
  synthesized the remainder;
* ``slots_fired_sparse`` / ``slots_fired_dense`` — the frontier engine's
  slot firings by path ("dense" means first firings);
* ``window_elements_routed`` — the frontier engine's sparse-path routing
  volume, in (vertex, item) pairs;
* ``batches`` / ``replayed_rounds`` — the vectorized kernel's doubling
  batches and replay rounds: the rounds a completing batch is replayed at
  full width, plus the rounds an item-tracked batch is replayed on the word
  columns of the items that completed in it (both 0 when an
  arrival-tracked run takes the round-by-round loop).

Each run also records an ``engine.run`` span (wall time, attributed to the
enclosing CLI/search span) and an ``engine.<name>.rounds`` histogram, and
a run that stopped at a fixed point records the round it stopped at in an
``engine.<name>.early_exit_round`` histogram: its count is the number of
early exits, its min and max are exit rounds.  The
recorder is the only place they accumulate: a ``SimulationResult`` carries
no telemetry.  Engine *resolution* emits an ``engine.resolve`` event
carrying the resolved name, the source (``explicit`` / ``env`` / ``auto-program`` / ``auto-bare``)
and — for workload-aware picks — the rationale string from
:func:`explain_engine_selection` saying which statistic crossed which
threshold.  Telemetry can only change what is *recorded*, never results:
the neutrality suite (``tests/test_telemetry.py``) certifies recorded runs
bit-identical to telemetry-off runs for every registered backend.

Adding a fourth backend
-----------------------
Subclass the run driver,
:class:`~repro.gossip.engines.checkpoint.CheckpointingMixin`, give the
class a ``name`` and implement its one hook, ``_execute(run)``, which
executes the rounds (the contract is in the
:mod:`~repro.gossip.engines.checkpoint` docstring), then call
:func:`register_engine`.  The driver supplies ``run`` and
``run_checkpointed``, the resume checks, the tracked prefixes (arrays
with ``-1`` for "not yet", which the hook fills in place), the
snapshots, the telemetry and the result.  An object without both
methods is refused with
:class:`~repro.exceptions.SimulationError`.  Run
``tests/test_engines_differential.py``, the randomized fuzz suite
``tests/test_engines_fuzz.py`` and ``tests/test_engines_resume.py`` with
your engine registered to certify bit-for-bit agreement with the
reference engine, resumes included — all three suites iterate over the
registry, so new backends get coverage for free.
"""

from __future__ import annotations

import os

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines.base import (
    ArrivalRounds,
    RoundProgram,
    SimulationEngine,
    SimulationResult,
)
from repro.gossip.engines.checkpoint import CheckpointedRun, EngineState
from repro.gossip.engines.frontier import FrontierEngine
from repro.gossip.engines.layout import workload_summary
from repro.gossip.engines.reference import ReferenceEngine
from repro.gossip.engines.vectorized import VectorizedEngine
from repro.topologies.properties import distances_from

__all__ = [
    "ArrivalRounds",
    "RoundProgram",
    "SimulationEngine",
    "SimulationResult",
    "CheckpointedRun",
    "EngineState",
    "ReferenceEngine",
    "VectorizedEngine",
    "FrontierEngine",
    "ENGINE_ENV_VAR",
    "AUTO_ENGINE",
    "register_engine",
    "get_engine",
    "available_engines",
    "engine_override",
    "is_auto_spec",
    "select_engine_name",
    "explain_engine_selection",
    "resolve_engine",
]

#: Environment variable that overrides ``engine="auto"`` globally.
ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"

#: The sentinel name meaning "pick the best available backend".
AUTO_ENGINE = "auto"

_REGISTRY: dict[str, SimulationEngine] = {}


def _check_protocol(engine) -> None:
    """Refuse an object without the whole engine protocol."""
    if not isinstance(engine, SimulationEngine):
        raise SimulationError(
            f"{type(engine).__name__} lacks the engine protocol: a name plus run "
            "and run_checkpointed (subclass CheckpointingMixin)"
        )


def register_engine(engine: SimulationEngine, *, replace: bool = False) -> SimulationEngine:
    """Add ``engine`` to the registry under ``engine.name``.

    Registering a name that already exists raises unless ``replace=True``,
    so a typo cannot silently shadow a shipped backend, and so does an
    object without the whole :class:`SimulationEngine` protocol.
    """
    name = engine.name
    if name == AUTO_ENGINE:
        raise SimulationError(f"engine name {AUTO_ENGINE!r} is reserved for automatic selection")
    if name in _REGISTRY and not replace:
        raise SimulationError(f"an engine named {name!r} is already registered")
    _check_protocol(engine)
    _REGISTRY[name] = engine
    return engine


def available_engines() -> tuple[str, ...]:
    """Names of the registered engines, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str, *, source: str | None = None) -> SimulationEngine:
    """Look up a registered engine by name (case-insensitive).

    ``source`` names where a bad spelling came from (e.g. the
    ``REPRO_SIM_ENGINE`` environment variable) so the error identifies the
    knob to fix, not just the value.
    """
    normalized = name.strip().casefold()
    try:
        return _REGISTRY[normalized]
    except KeyError:
        origin = f" (from {source})" if source else ""
        raise SimulationError(
            f"unknown simulation engine {name!r}{origin}; available: "
            f"{', '.join(available_engines()) or '(none)'}"
        ) from None


def engine_override() -> str | None:
    """The ``REPRO_SIM_ENGINE`` value in effect, or ``None`` when unset.

    A non-empty override is a *specific engine request* — it beats the
    automatic decision function everywhere ``"auto"`` would apply (the
    batched Monte-Carlo dispatch honours this too).
    """
    return os.environ.get(ENGINE_ENV_VAR, "").strip() or None


def is_auto_spec(spec: str | SimulationEngine | None) -> bool:
    """Does ``spec`` ask for automatic selection (``None`` or ``"auto"``,
    case-insensitively)?"""
    return spec is None or (
        isinstance(spec, str) and spec.strip().casefold() == AUTO_ENGINE
    )


def select_engine_name(program: RoundProgram, *, track_arrivals: bool = False) -> str:
    """The coded decision function behind workload-aware ``"auto"``.

    Reproduces the measured crossover table (ROADMAP.md).  Arrival-tracked
    cyclic runs go to the frontier engine when the BFS depth of the
    program's graph from vertex 0 is at least √n, and every other run goes
    to the vectorized kernel.  The depth costs one O(n + m) search, run
    for arrival-tracked cyclic programs only.  Returns a registered engine
    *name* — callers wanting an instance go through :func:`resolve_engine`,
    which also applies the env override.  Item tracking does not influence
    the pick, so only ``track_arrivals`` is a parameter.
    """
    return explain_engine_selection(program, track_arrivals=track_arrivals)[0]


def explain_engine_selection(
    program: RoundProgram, *, track_arrivals: bool = False
) -> tuple[str, str]:
    """:func:`select_engine_name` plus its rationale, as ``(name, why)``.

    The rationale string names the statistic that decided the pick and the
    threshold it was compared against; the telemetry ``engine.resolve``
    event carries it so a trace explains every automatic dispatch.
    """
    if not program.cyclic:
        # Finite programs never reuse a round slot, so the frontier
        # engine's windows never pay off: every firing would take the
        # dense path anyway, with extra bookkeeping on top.
        return (
            VectorizedEngine.name,
            "finite (aperiodic) program: sparse windows never pay off",
        )
    if not track_arrivals:
        return (
            VectorizedEngine.name,
            "cyclic run without arrival tracking: the dense kernel wins at every size",
        )
    # The largest finite distance: a graph that is not strongly connected
    # still gets a depth, from the vertices that vertex 0 reaches.
    graph = program.graph
    depth = max(distances_from(graph, graph.vertex(0)).values())
    root = graph.n**0.5
    if depth * depth >= graph.n:
        return (
            FrontierEngine.name,
            f"arrival-tracked cyclic run with BFS depth {depth} >= sqrt(n) "
            f"{root:.1f} (long run: per-round row diffs dominate)",
        )
    return (
        VectorizedEngine.name,
        f"arrival-tracked cyclic run with BFS depth {depth} < sqrt(n) "
        f"{root:.1f} (short run: per-pair routing dominates)",
    )


def resolve_engine(
    spec: str | SimulationEngine | None = None,
    program: RoundProgram | None = None,
    *,
    track_item_completion: bool = False,
    track_arrivals: bool = False,
) -> SimulationEngine:
    """Resolve an ``engine=`` argument to a concrete engine instance.

    ``None`` and ``"auto"`` consult the ``REPRO_SIM_ENGINE`` environment
    variable first and then fall back to automatic selection: when the
    caller supplies the ``program`` it is about to run (plus its tracking
    flags), selection is workload-aware (:func:`select_engine_name`; item
    tracking only sets the ``engine.resolve`` event's ``tracked`` field);
    without a program it keeps the historical program-blind pick (the
    vectorized kernel).  Explicit names — matched case-insensitively —
    always win over both.  An unknown name raises
    :class:`~repro.exceptions.SimulationError` naming the environment
    variable when that is where the bad name came from, rather than
    silently running a different backend.  An engine instance passes
    through unchanged, and raises the same error when it lacks the whole
    :class:`SimulationEngine` protocol.
    """
    if spec is not None and not isinstance(spec, str):
        _check_protocol(spec)
        return spec
    telem = telemetry.get_recorder().enabled
    if not is_auto_spec(spec):
        engine = get_engine(spec)
        if telem:
            telemetry.event(
                "engine.resolve",
                resolved=engine.name,
                source="explicit",
                rationale=f"caller named engine {spec!r}",
            )
        return engine
    override = engine_override()
    if override is not None:
        engine = get_engine(override, source=f"the {ENGINE_ENV_VAR} environment variable")
        if telem:
            telemetry.event(
                "engine.resolve",
                resolved=engine.name,
                source="env",
                rationale=f"{ENGINE_ENV_VAR}={override!r} overrides auto selection",
            )
        return engine
    if program is not None:
        name, rationale = explain_engine_selection(program, track_arrivals=track_arrivals)
        if telem:
            telemetry.event(
                "engine.resolve",
                resolved=name,
                source="auto-program",
                rationale=rationale,
                tracked=bool(track_item_completion or track_arrivals),
                **workload_summary(program.graph),
            )
        return _REGISTRY[name]
    engine = _REGISTRY[VectorizedEngine.name]
    if telem:
        telemetry.event(
            "engine.resolve",
            resolved=engine.name,
            source="auto-bare",
            rationale="no program supplied; historical program-blind pick",
        )
    return engine


register_engine(ReferenceEngine())
register_engine(VectorizedEngine())
register_engine(FrontierEngine())
