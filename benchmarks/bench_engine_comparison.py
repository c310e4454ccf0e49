"""Benchmark ENGINES — reference vs. vectorized vs. frontier.

Three headline comparisons, all recorded in the session report (and, when
``BENCH_JSON`` points at a file, dumped as JSON so CI can archive the
timing trajectory):

* **vectorized vs. reference**: plain systolic cycle gossip on
  ``C(2048)``; the packed-bitset kernel must stay ≥5× faster than the
  pure-Python loop.
* **tracked: frontier vs. vectorized**: *arrival-tracked* systolic gossip
  — the batched all-pairs arrival analysis behind
  :func:`repro.gossip.analysis.all_arrival_times` — on large deep
  instances (cycle / path / elongated grid at n = 4096).  The dense kernel
  must rescan O(n·W) words per round to diff the knowledge matrix, while
  the frontier engine emits arrival events for free from its per-round
  deltas; it must beat the vectorized kernel on all three topologies.
* **auto selection**: the workload-aware ``"auto"`` pick must land within
  ``AUTO_SELECTION_CEILING`` of the better named backend on tracked runs,
  including arrival-tracked rows on both sides of the BFS-depth rule
  documented in :mod:`repro.gossip.engines`.

Every comparison also asserts the engines agree on the results, so the
benchmark doubles as a large-instance differential check.
"""

from __future__ import annotations

import time

import pytest

from repro import telemetry
from repro.experiments.runner import format_table
from repro.gossip.engines import get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode
from repro.gossip.simulation import gossip_time
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import (
    complete_binary_tree,
    cycle_graph,
    grid_2d,
    path_graph,
    torus_2d,
)
from repro.topologies.kautz import kautz

#: Instance for the pytest-benchmark fixtures (kept moderate so the
#: calibrated multi-iteration timing stays fast).
BENCH_N = 512

#: Instance for the single-shot vectorized-vs-reference measurement (the
#: acceptance bar is n >= 2048).
SPEEDUP_N = 2048

#: Required speedup of the vectorized engine over the reference engine.
SPEEDUP_FLOOR = 5.0

#: Instances for the arrival-tracked comparison: (label, graph builder,
#: required frontier speedup over vectorized).  Floors leave headroom for
#: noisy CI runners — locally the frontier margins are ≈6×, ≈13×, ≈2.3×.
TRACKED_INSTANCES = (
    ("C(4096)", lambda: cycle_graph(4096), 2.0),
    ("P(4096)", lambda: path_graph(4096), 2.0),
    ("grid(16x256)", lambda: grid_2d(16, 256), 1.1),
)


def _cycle_schedule(n: int):
    return coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)


def _timed_run(engine_name: str, program: RoundProgram, **options):
    engine = get_engine(engine_name)
    start = time.perf_counter()
    result = engine.run(program, **options)
    return time.perf_counter() - start, result


def test_engine_reference_cycle(benchmark):
    schedule = _cycle_schedule(BENCH_N)
    result = benchmark(lambda: gossip_time(schedule, engine="reference"))
    assert result == gossip_time(schedule, engine="vectorized")


def test_engine_vectorized_cycle(benchmark):
    schedule = _cycle_schedule(BENCH_N)
    result = benchmark(lambda: gossip_time(schedule, engine="vectorized"))
    assert result > 0


def test_engine_frontier_cycle(benchmark):
    schedule = _cycle_schedule(BENCH_N)
    result = benchmark(lambda: gossip_time(schedule, engine="frontier"))
    assert result == gossip_time(schedule, engine="vectorized")


def test_vectorized_speedup_report(report_sink, bench_json):
    """Single-shot wall-clock comparison on C(2048); asserts the ≥5× bar."""
    schedule = _cycle_schedule(SPEEDUP_N)

    start = time.perf_counter()
    vectorized_rounds = gossip_time(schedule, engine="vectorized")
    vectorized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    frontier_rounds = gossip_time(schedule, engine="frontier")
    frontier_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reference_rounds = gossip_time(schedule, engine="reference")
    reference_seconds = time.perf_counter() - start

    assert vectorized_rounds == reference_rounds == frontier_rounds
    speedup = reference_seconds / vectorized_seconds

    rows = [
        {
            "instance": f"C({SPEEDUP_N}) half-duplex coloring",
            "gossip_rounds": vectorized_rounds,
            "reference_s": reference_seconds,
            "vectorized_s": vectorized_seconds,
            "frontier_s": frontier_seconds,
            "speedup": speedup,
        }
    ]
    report_sink(
        "ENGINES: plain systolic cycle gossip, all three backends",
        format_table(
            rows,
            [
                "instance",
                "gossip_rounds",
                "reference_s",
                "vectorized_s",
                "frontier_s",
                "speedup",
            ],
        ),
    )
    bench_json("plain_gossip_c2048", rows)
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine is only {speedup:.1f}x faster than the reference "
        f"engine on C({SPEEDUP_N}) (required: {SPEEDUP_FLOOR}x)"
    )


def test_tracked_speedup_report(report_sink, bench_json):
    """Arrival-tracked gossip at n = 4096: frontier vs. vectorized.

    This is the batched per-source arrival workload
    (:func:`repro.gossip.analysis.all_arrival_times`) run at engine level.
    Asserts that the frontier engine beats the dense kernel on cycle, path
    and grid, and that both engines return identical arrival matrices
    (a 16M-entry differential check per instance).
    """
    rows = []
    for label, build, frontier_floor in TRACKED_INSTANCES:
        schedule = coloring_systolic_schedule(build(), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule)

        vectorized_seconds, vectorized = _timed_run(
            "vectorized", program, track_arrivals=True
        )
        frontier_seconds, frontier = _timed_run(
            "frontier", program, track_arrivals=True
        )

        assert frontier.completion_round == vectorized.completion_round
        assert frontier.arrival_rounds == vectorized.arrival_rounds
        rows.append(
            {
                "instance": label,
                "gossip_rounds": vectorized.completion_round,
                "vectorized_s": vectorized_seconds,
                "frontier_s": frontier_seconds,
                "frontier_speedup": vectorized_seconds / frontier_seconds,
                "frontier_floor": frontier_floor,
            }
        )

    report_sink(
        "ENGINES: arrival-tracked systolic gossip, frontier vs. vectorized (n = 4096)",
        format_table(
            rows,
            [
                "instance",
                "gossip_rounds",
                "vectorized_s",
                "frontier_s",
                "frontier_speedup",
            ],
        ),
    )
    bench_json("tracked_arrivals_n4096", rows)
    for row in rows:
        assert row["frontier_speedup"] >= row["frontier_floor"], (
            f"frontier engine is only {row['frontier_speedup']:.2f}x faster than "
            f"vectorized on arrival-tracked {row['instance']} "
            f"(required: {row['frontier_floor']}x)"
        )


#: How much slower than the best explicitly-named backend ``"auto"`` may be
#: on any tracked table row.  Auto resolves to one of the named candidates,
#: so the ratio is pure dispatch overhead plus timing noise.
AUTO_SELECTION_CEILING = 1.1

#: Named candidates the auto pick competes against on tracked workloads.
AUTO_CANDIDATES = ("vectorized", "frontier")

#: The tracked workloads the auto gate runs on every ``TRACKED_INSTANCES``
#: row: (label, run options, result field the candidates must agree on).
AUTO_TRACKING = (
    ("arrivals", {"track_arrivals": True}, "arrival_rounds"),
    ("items", {"track_item_completion": True}, "item_completion_rounds"),
)

#: Extra arrival-tracked auto-gate rows on both sides of the BFS-depth
#: rule: the torus is deep enough for the frontier engine (depth 64 ≥ √n
#: ≈ 55), the Kautz network and the binary tree are not (depth 11 on both).
AUTO_ARRIVAL_INSTANCES = (
    ("torus(32x96)", lambda: torus_2d(32, 96)),
    ("K(2,11)", lambda: kautz(2, 11)),
    ("binary tree h=11", lambda: complete_binary_tree(11)),
)


def test_auto_selection_report(report_sink, bench_json):
    """Workload-aware ``"auto"`` vs. every named backend, tracked runs.

    For each tracked-instance table row, under arrival tracking and under
    item-completion tracking, and for each ``AUTO_ARRIVAL_INSTANCES`` row
    under arrival tracking, runs all named candidates and the
    program-aware auto resolution.  Asserts the resolved pick is a concrete
    registered backend, its results are bit-identical to the named runs,
    and its measured time lands within ``AUTO_SELECTION_CEILING`` of the
    best named backend — i.e. the decision function reproduces the
    crossover table it was coded from.  Auto resolves to a *registered*
    engine, so its time is the resolved candidate's own measurement; a
    noisy loser is re-timed (minimum-of-runs) before the row can fail,
    because single-shot timings on shared runners swing far more than the
    margin under test.
    """
    from repro.gossip.engines import available_engines, get_engine, resolve_engine

    rows = []
    cases = [
        (workload, label, build)
        for workload in AUTO_TRACKING
        for label, build, _ in TRACKED_INSTANCES
    ]
    arrivals = AUTO_TRACKING[0]
    cases += [(arrivals, label, build) for label, build in AUTO_ARRIVAL_INSTANCES]
    for (tracking, options, field), label, build in cases:
        schedule = coloring_systolic_schedule(build(), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule)

        named: dict[str, float] = {}
        baseline = None
        for candidate in AUTO_CANDIDATES:
            seconds, result = _timed_run(candidate, program, **options)
            named[candidate] = seconds
            assert result.engine_name == candidate
            if baseline is None:
                baseline = result
            else:
                assert result.completion_round == baseline.completion_round
                assert getattr(result, field) == getattr(baseline, field)

        resolved = resolve_engine("auto", program, **options)
        assert resolved.name in available_engines()
        assert resolved.name != "auto"
        # The resolved pick IS one of the registered named candidates
        # (same instance), so its measurement doubles as auto's.
        assert resolved is get_engine(resolved.name)
        assert resolved.name in named

        def ratio_now():
            best = min(named, key=named.get)
            return best, named[resolved.name] / named[best]

        best, ratio = ratio_now()
        for _ in range(2):
            if ratio <= AUTO_SELECTION_CEILING:
                break
            # Noise check: re-time the pick and the current best, keep minima.
            for candidate in {resolved.name, best}:
                seconds, _ = _timed_run(candidate, program, **options)
                named[candidate] = min(named[candidate], seconds)
            best, ratio = ratio_now()
        rows.append(
            {
                "tracking": tracking,
                "instance": label,
                "auto_engine": resolved.name,
                "best_named": best,
                "auto_s": named[resolved.name],
                "best_named_s": named[best],
                "auto_over_best": ratio,
                **{f"{name}_s": named[name] for name in AUTO_CANDIDATES},
            }
        )

    report_sink(
        "ENGINES: workload-aware auto selection vs. named backends (tracked runs)",
        format_table(
            rows,
            [
                "tracking",
                "instance",
                "auto_engine",
                "best_named",
                "auto_s",
                "best_named_s",
                "auto_over_best",
            ],
        ),
    )
    bench_json("auto_selection", rows)
    for row in rows:
        assert row["auto_over_best"] <= AUTO_SELECTION_CEILING, (
            f"auto pick ({row['auto_engine']}) is {row['auto_over_best']:.2f}x the "
            f"best named backend ({row['best_named']}) on {row['tracking']}-tracked "
            f"{row['instance']} (allowed: {AUTO_SELECTION_CEILING}x)"
        )


#: Ceiling on the recording-on / telemetry-off wall-clock ratio of the
#: tracked C(4096) frontier row.  With telemetry off the instrumented
#: engines pay one context-variable read per run plus dead gated-int
#: branches — within the ≤ 3 % contract by construction (the per-slot
#: counters are plain local ints, flushed once at run end) — so what can
#: actually regress is the cost of *recording*; the ceiling leaves room for
#: shared-runner noise while catching any per-slot recorder call creeping
#: into the inner loops.
TELEMETRY_OVERHEAD_CEILING = 1.15


@pytest.mark.slow
@pytest.mark.perf_regression
def test_tracked_telemetry_overhead(report_sink, bench_json):
    """Recording telemetry on tracked C(4096) frontier: identical, cheap.

    Runs the tracked-arrivals C(4096) frontier row once without a recorder
    and once under an in-memory StatsRecorder.  The two
    ``SimulationResult``s must compare equal, the recorder must hold the
    engine's one-flush counters, and the wall-clock ratio must stay under
    ``TELEMETRY_OVERHEAD_CEILING``.

    The correctness comparison and the timing are separate phases: a
    retained tracked result holds a ~130 MB arrival structure whose mere
    liveness slows the *next* run (GC scan volume and allocator pressure),
    so the timed runs discard their results and only the untimed pair is
    compared.
    """
    schedule = coloring_systolic_schedule(cycle_graph(4096), Mode.HALF_DUPLEX)
    program = RoundProgram.from_schedule(schedule)
    engine = get_engine("frontier")

    # Phase 1 (untimed): bit-identity and the recorder's counters.
    off = engine.run(program, track_arrivals=True)
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        on = engine.run(program, track_arrivals=True)
    assert on == off, "recording telemetry changed the simulation result"
    assert recorder.stats is not None
    assert recorder.stats.counter("engine.frontier", "runs") == 1
    assert recorder.stats.counter("engine.frontier", "slots_fired_sparse") > 0
    del off, on  # keep the timed heap identical between the next two runs

    # Phase 2 (timed): same workload, results dropped as they are produced.
    start = time.perf_counter()
    engine.run(program, track_arrivals=True)
    off_seconds = time.perf_counter() - start

    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        start = time.perf_counter()
        engine.run(program, track_arrivals=True)
        on_seconds = time.perf_counter() - start

    ratio = on_seconds / off_seconds
    rows = [
        {
            "instance": "C(4096)",
            "engine": "frontier",
            "workload": "tracked_arrivals",
            "off_seconds": off_seconds,
            "recording_seconds": on_seconds,
            "overhead_ratio": ratio,
        }
    ]
    report_sink(
        "ENGINES: telemetry overhead on the tracked C(4096) frontier row",
        format_table(
            rows,
            [
                "instance",
                "engine",
                "workload",
                "off_seconds",
                "recording_seconds",
                "overhead_ratio",
            ],
        ),
    )
    bench_json("telemetry_overhead", rows)

    assert ratio <= TELEMETRY_OVERHEAD_CEILING, (
        f"recording telemetry cost {ratio:.2f}x on the tracked C(4096) "
        f"frontier run (ceiling {TELEMETRY_OVERHEAD_CEILING}x)"
    )
