"""Layer spans measured from the benchmark side of the program's public API.

The benchmark times each layer at the calls into it.  Spans it opens itself
(around ``gossip_time``, ``synthesize_schedule``, ``monte_carlo`` ...) nest
with spans installed by :func:`instrument` around public methods the layers
call internally: the engines' ``run``/``run_checkpointed``,
``RoundProgram.from_schedule``, ``Neighborhood.propose`` and the fault
models' ``sample``.  Nothing in ``src/`` is edited; the wrappers exist only
while a traced pass runs.

A span's *self* time is its duration minus the time of the spans nested
directly inside it, so the self times of one job add up to the job's wall
time.  *Timers* (compile, moves) only accumulate their own total and count:
their time stays inside the enclosing span's self time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

#: Spans whose self times tile a job: the layers of the accounting check.
LAYER_SPANS = (
    "simulation",
    "engine",
    "search",
    "certify",
    "faults.mc",
    "faults.sample",
    "faults.adversarial",
)


class Tracer:
    """Per-layer total and self time for one traced pass."""

    enabled = True

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: ``(parent span, child span) -> seconds`` for directly nested spans.
        self.nested: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.total[name] += elapsed
            self.calls[name] += 1
            self.self_time[name] += elapsed - frame[1]
            if self._stack:
                parent = self._stack[-1]
                parent[1] += elapsed
                self.nested[(parent[0], name)] += elapsed

    @contextmanager
    def timer(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.total[name] += time.perf_counter() - start
            self.calls[name] += 1

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None


class NullTracer:
    """Stand-in for untraced passes: every hook is a no-op."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, value: int) -> None:
        pass


def _engine_wrapper(tracer: Tracer, method, checkpointed: bool):
    """Time the outermost engine call only (``run`` delegates to
    ``run_checkpointed``, and one engine may fall back on another)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if tracer.innermost() == "engine":
            return method(self, *args, **kwargs)
        with tracer.span("engine"):
            if checkpointed:
                with tracer.timer("engine.checkpointed"):
                    return method(self, *args, **kwargs)
            return method(self, *args, **kwargs)

    return wrapper


def _timed(tracer: Tracer, method, name: str, *, as_span: bool):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        with tracer.span(name) if as_span else tracer.timer(name):
            return method(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the ``with`` block."""
    from repro.faults import BernoulliArcFaults, CrashFaults
    from repro.gossip.engines import available_engines, get_engine
    from repro.gossip.engines.base import RoundProgram
    from repro.search.moves import Neighborhood

    saved: list[tuple[type, str, object]] = []

    def patch(owner: type, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    engine_classes = {type(get_engine(name)) for name in available_engines()}
    for cls in engine_classes:
        for attr, checkpointed in (("run", False), ("run_checkpointed", True)):
            if attr in cls.__dict__:
                patch(cls, attr, _engine_wrapper(tracer, cls.__dict__[attr], checkpointed))
    from_schedule = RoundProgram.__dict__["from_schedule"].__func__
    patch(
        RoundProgram,
        "from_schedule",
        classmethod(_timed(tracer, from_schedule, "compile", as_span=False)),
    )
    patch(
        Neighborhood,
        "propose",
        _timed(tracer, Neighborhood.propose, "moves", as_span=False),
    )
    for model in (BernoulliArcFaults, CrashFaults):
        patch(model, "sample", _timed(tracer, model.sample, "faults.sample", as_span=True))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _counter_sum(stats, prefix: str, name: str) -> int:
    return sum(
        counts.get(name, 0)
        for component, counts in stats.counters.items()
        if component == prefix or component.startswith(prefix + ".")
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


ENGINE_BACKENDS = ("vectorized", "frontier", "hybrid", "reference")


def layer_metrics(tracer: Tracer, stats, job_engine_s: dict, wall_s: float) -> dict:
    """The per-layer metrics of one traced pass.

    ``stats`` is the program's own :class:`repro.telemetry.RunStats` for the
    pass; ``job_engine_s`` maps ``(instance, kind)`` of simulate jobs to the
    engine time spent inside them; ``wall_s`` is the pass's job wall time.
    """
    total, self_time = tracer.total, tracer.self_time
    rounds = _counter_sum(stats, "engine", "rounds_simulated")
    engine_calls = tracer.calls["engine"]
    hits = stats.counter("search.incremental", "checkpoint_hits")
    misses = stats.counter("search.incremental", "checkpoint_misses")
    trials = _counter_sum(stats, "faults", "trials")
    replays = _counter_sum(stats, "faults", "exact_replays")

    tracked_extra = 0.0
    for (instance, kind), seconds in job_engine_s.items():
        if kind != "plain":
            tracked_extra += seconds - job_engine_s[(instance, "plain")]

    metrics = {
        "engines.run_s": total["engine"],
        "engines.calls": engine_calls,
        "engines.compile_s": total["compile"],
        "engines.us_per_call": _ratio(total["engine"] * 1e6, engine_calls),
        "engines.ns_per_round": _ratio(total["engine"] * 1e9, rounds),
        "engines.rounds_simulated": rounds,
        "engines.window_elements_routed": _counter_sum(stats, "engine", "window_elements_routed"),
        "engines.slots_fired_sparse": _counter_sum(stats, "engine", "slots_fired_sparse"),
        "engines.slots_fired_dense": _counter_sum(stats, "engine", "slots_fired_dense"),
        "engines.dense_fallbacks": _counter_sum(stats, "engine", "dense_fallbacks"),
        "engines.tracked_extra_s": tracked_extra,
        "engines.checkpointed_s": total["engine.checkpointed"],
        "simulation.self_s": self_time["simulation"],
        "search.synthesize_s": total["search"],
        "search.self_s": self_time["search"],
        "search.moves_s": total["moves"],
        "search.engine_share": _ratio(tracer.nested[("search", "engine")], total["search"]),
        "search.proposals": tracer.calls["moves"],
        "search.evaluations": tracer.counts["search.evaluations"],
        "search.memo_hits": stats.counter("search.incremental", "memo_hits"),
        "search.cutoff_truncations": stats.counter("search.incremental", "cutoff_truncations"),
        "search.checkpoint_hit_ratio": _ratio(hits, hits + misses),
        "search.reused_rounds": stats.counter("search.incremental", "reused_rounds"),
        "certify.s": total["certify"],
        "faults.sample_s": total["faults.sample"],
        "faults.kernel_s": self_time["faults.mc"],
        "faults.adversarial_s": self_time["faults.adversarial"],
        "faults.trials": trials,
        "faults.batches": _counter_sum(stats, "faults", "batches"),
        "faults.compactions": _counter_sum(stats, "faults", "compactions"),
        "faults.exact_replays": replays,
        "faults.replay_ratio": _ratio(replays, trials),
        "trace.accounted_ratio": _ratio(sum(self_time[name] for name in LAYER_SPANS), wall_s),
    }
    for backend in ENGINE_BACKENDS:
        metrics[f"engines.runs.{backend}"] = stats.counter(f"engine.{backend}", "runs")
    return metrics
