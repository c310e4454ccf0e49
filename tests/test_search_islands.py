"""Island-search determinism and wire-format tests.

The island layer's contract is that ``workers`` is a pure throughput knob:
the per-island seed streams, the task payloads and the migration barrier
are all fixed before any work is distributed, so the same seed must return
the same winner, objective and improvement history for *any* worker count.
These tests pin that bit-for-bit (schedules are compared by their
``base_rounds`` — :class:`~repro.gossip.model.SystolicSchedule` equality is
identity-based), plus the serialisation round-trip of the cross-process
candidate payload.
"""

from __future__ import annotations

import pickle

import pytest

from repro import telemetry
from repro.exceptions import SimulationError
from repro.faults import BernoulliArcFaults
from repro.gossip.model import Mode
from repro.protocols.generic import coloring_systolic_schedule
from repro.search import RobustnessSpec, run_island_search, synthesize_schedule
from repro.search.islands import CandidatePayload, decode_candidate, encode_candidate
from repro.search.moves import Neighborhood
from repro.topologies.classic import cycle_graph, grid_2d


def _fingerprint(result):
    """Everything the determinism contract pins, as comparable values."""
    return (
        tuple(result.schedule.base_rounds),
        result.schedule.mode,
        result.objective,
        result.evaluations,
        result.iterations,
        result.seed_name,
        result.history,
    )


@pytest.mark.parametrize("strategy", ("hill", "anneal"))
def test_worker_count_never_changes_the_result(strategy):
    """workers=1 (in-process) and workers=4 (process pool) are bit-identical."""
    graph = cycle_graph(12)
    runs = [
        synthesize_schedule(
            graph,
            Mode.HALF_DUPLEX,
            strategy=strategy,
            seed=11,
            max_iters=40,
            workers=workers,
        )
        for workers in (1, 4)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    assert runs[0].objective.complete


def test_worker_count_never_changes_incremental_robust_result():
    """The contract holds with incremental evaluation and the robust
    objective threaded through the workers."""
    graph = grid_2d(3, 3)
    spec = RobustnessSpec(BernoulliArcFaults(0.15), trials=4, seed=2)
    runs = [
        synthesize_schedule(
            graph,
            Mode.HALF_DUPLEX,
            strategy="hill",
            objective="robust_gossip_rounds",
            robustness=spec,
            seed=5,
            max_iters=15,
            incremental=True,
            workers=workers,
        )
        for workers in (1, 2)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])


def test_islands_match_direct_entry_point():
    """synthesize_schedule(workers=) is run_island_search with the same
    configuration, nothing more."""
    graph = cycle_graph(10)
    via_synthesize = synthesize_schedule(
        graph, Mode.HALF_DUPLEX, strategy="hill", seed=3, max_iters=24, workers=1
    )
    direct = run_island_search(
        graph, Mode.HALF_DUPLEX, strategy="hill", seed=3, max_iters=24, workers=1
    )
    assert _fingerprint(via_synthesize) == _fingerprint(direct)


def test_candidate_payload_roundtrip():
    """encode → pickle → decode reproduces the schedule's defining data and
    revalidates it against the graph."""
    schedule = coloring_systolic_schedule(cycle_graph(9), Mode.HALF_DUPLEX)
    payload = encode_candidate(schedule)
    wired = pickle.loads(pickle.dumps(payload))
    assert wired == payload
    rebuilt = decode_candidate(wired, schedule.graph)
    assert tuple(rebuilt.base_rounds) == tuple(schedule.base_rounds)
    assert rebuilt.mode == schedule.mode
    assert rebuilt.name == schedule.name


def test_candidate_payload_decode_revalidates():
    """A payload whose rounds reference arcs the graph does not have fails
    loudly on decode instead of simulating garbage."""
    schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
    bogus = CandidatePayload(
        rounds=(((0, 4),),),  # not an arc of the cycle
        mode=schedule.mode.value,
        name="bogus",
    )
    with pytest.raises(Exception):
        decode_candidate(bogus, schedule.graph)


def test_island_telemetry_counters():
    """One search.islands counter flush with the documented keys."""
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        result = synthesize_schedule(
            cycle_graph(10), Mode.HALF_DUPLEX, strategy="hill",
            seed=1, max_iters=20, workers=2,
        )
    counts = recorder.stats.counters["search.islands"]
    assert counts["runs"] == 1
    assert counts["islands"] >= 1
    assert counts["workers"] == 2
    assert counts["island_evaluations"] > 0
    assert counts["migrations"] >= 0
    assert result.run_stats is not None
    assert "search.islands" in result.run_stats.counters


def test_island_telemetry_conservation_across_worker_counts():
    """workers=4 accounts for exactly the work workers=1 does.

    Worker sub-processes run under their own recorder and ship frozen
    RunStats back in their reports; the driver merges them.  The merged
    accounting must be independent of how the islands were distributed:
    identical counters (except the ``workers`` knob itself), identical
    buckets for deterministic histograms, and the per-evaluation timing
    histogram — whose bucket *contents* are wall-clock and therefore
    nondeterministic — must still hold exactly one sample per evaluation
    the result reports, seed scoring included.
    """

    def run(workers):
        recorder = telemetry.StatsRecorder()
        with telemetry.recording(recorder):
            result = run_island_search(
                cycle_graph(12), Mode.HALF_DUPLEX, strategy="hill",
                seed=3, max_iters=25, workers=workers,
            )
        return result, recorder.stats

    solo_result, solo = run(1)
    pool_result, pool = run(4)
    assert _fingerprint(pool_result) == _fingerprint(solo_result)

    for component in set(solo.counters) | set(pool.counters):
        solo_counts = dict(solo.counters[component])
        pool_counts = dict(pool.counters[component])
        if component == "search.islands":
            assert solo_counts.pop("workers") == 1
            assert pool_counts.pop("workers") == 4
        assert pool_counts == solo_counts, component

    assert set(pool.histograms) == set(solo.histograms)
    for name in solo.histograms:
        if name.endswith("_ns"):
            # Timing buckets are nondeterministic; sample counts are not.
            assert pool.histograms[name].count == solo.histograms[name].count
        else:
            assert pool.histograms[name].buckets == solo.histograms[name].buckets

    evaluations = pool_result.evaluations
    assert solo.histograms["search.eval_ns"].count == solo_result.evaluations
    assert pool.histograms["search.eval_ns"].count == evaluations
    assert pool.gauges["search.islands.best_score"] == pool_result.objective.score

    # Worker spans were re-parented under the driver's islands span.
    islands_span = next(s for s in pool.spans if s.name == "search.islands")
    children = [s for s in pool.spans if s.parent_id == islands_span.span_id]
    assert children, "worker spans should attach under search.islands"

    # The merged result-level RunStats carries the same totals.
    pool_rs = pool_result.run_stats
    assert (
        pool_rs.counters["search.islands"]["island_evaluations"]
        == pool.counters["search.islands"]["island_evaluations"]
    )
    assert pool_rs.histograms["search.eval_ns"].count == evaluations


def test_incremental_island_search_records_seed_scoring():
    """The seed portfolio's scoring is flushed with the islands' own work:
    every evaluation the result reports left one ``search.eval_ns`` sample
    and one incremental-evaluator count."""
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        result = run_island_search(
            cycle_graph(12), Mode.HALF_DUPLEX, strategy="hill",
            seed=3, max_iters=40, workers=1, incremental=True,
        )
    stats = recorder.stats
    assert stats.histograms["search.eval_ns"].count == result.evaluations
    assert stats.counters["search.incremental"]["evaluations"] == result.evaluations


def test_island_argument_validation():
    graph = cycle_graph(8)
    with pytest.raises(SimulationError):
        run_island_search(graph, Mode.HALF_DUPLEX, workers=0)
    with pytest.raises(SimulationError):
        run_island_search(graph, Mode.HALF_DUPLEX, islands=0)
    with pytest.raises(SimulationError):
        run_island_search(graph, Mode.HALF_DUPLEX, generations=0)
    with pytest.raises(SimulationError):
        run_island_search(graph, Mode.HALF_DUPLEX, strategy="genetic")
    with pytest.raises(SimulationError):
        synthesize_schedule(
            graph,
            Mode.HALF_DUPLEX,
            workers=1,
            neighborhood=Neighborhood(graph, Mode.HALF_DUPLEX),
        )
