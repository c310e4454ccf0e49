"""Record one dated performance data point in the JSON trajectory.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/record_trajectory.py

Runs a compact battery — one plain and one arrival-tracked engine row, one
incremental hill climb, one two-worker island search, one batched and one
candidate-stacked Monte-Carlo run — each section under its **own**
in-memory :class:`repro.telemetry.StatsRecorder`, and records a row of
the form ::

    {"date": "2026-08-07", "rev": "1324a2b", "sections": {...},
     "telemetry": {...}}

to ``BENCH_trajectory.json`` at the repository root (``--output``
overrides the path).  Each section carries its own wall-clock timing, its
flushed telemetry counters (work actually performed — rounds simulated,
window elements routed, checkpoint reuse, Monte-Carlo batches) and its
histogram bucket maps, so ``repro-gossip report``/``compare`` and the
regression detector (:mod:`repro.telemetry.regress`) can tell a timing
shift apart from a workload shift per section.  The top-level ``telemetry`` block
keeps the across-section counter totals the earlier trajectory format
carried.

Re-running on one day replaces that day's row — the trajectory holds at
most one observation per date.

The battery is deliberately much smaller than the full ``bench_*``
scripts: the point is a cheap, committable trajectory of the same code
paths, not a regression gate — the gates live in the
``perf_regression``-marked benchmarks.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time

from repro import telemetry
from repro.faults import BernoulliArcFaults, monte_carlo, monte_carlo_stacked
from repro.gossip.engines import get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode
from repro.protocols.generic import coloring_systolic_schedule
from repro.search import hill_climb, run_island_search
from repro.topologies.classic import cycle_graph, grid_2d

#: Battery sizes: big enough that the measured loops dominate interpreter
#: startup, small enough that one data point costs seconds.
ENGINE_N = 1024
SEARCH_N = 128
SEARCH_ITERS = 30
ISLANDS_WORKERS = 2
FAULTS_N = 256
FAULTS_TRIALS = 64
STACKED_CANDIDATES = 4

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_trajectory.json"
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _git_rev() -> str:
    """Short git revision of the repo this file lives in (or "unknown")."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=10,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def _engine_section(options: dict) -> dict:
    """One single-shot row on C(ENGINE_N), per backend."""
    schedule = coloring_systolic_schedule(cycle_graph(ENGINE_N), Mode.HALF_DUPLEX)
    program = RoundProgram.from_schedule(schedule)
    seconds = {}
    for name in ("vectorized", "frontier", "hybrid"):
        engine = get_engine(name)
        seconds[name], _ = _timed(
            lambda e=engine: e.run(program, track_history=False, **options)
        )
    best = min(seconds, key=seconds.get)
    return {
        "instance": f"C({ENGINE_N})",
        "seconds": seconds,
        "best_engine": best,
        "best_seconds": seconds[best],
    }


def _search_section() -> dict:
    """Incremental frontier hill climb on C(SEARCH_N)."""
    schedule = coloring_systolic_schedule(cycle_graph(SEARCH_N), Mode.HALF_DUPLEX)
    seconds, result = _timed(
        lambda: hill_climb(
            schedule,
            seed=0,
            engine="frontier",
            max_iters=SEARCH_ITERS,
            incremental=True,
        )
    )
    return {
        "instance": f"C({SEARCH_N})",
        "iters": SEARCH_ITERS,
        "seconds": seconds,
        "evaluations": result.evaluations,
        "evals_per_second": result.evaluations / seconds,
        "objective": result.objective.score,
    }


def _islands_section() -> dict:
    """Two-worker island hill climb on C(SEARCH_N)."""
    seconds, result = _timed(
        lambda: run_island_search(
            cycle_graph(SEARCH_N),
            Mode.HALF_DUPLEX,
            strategy="hill",
            seed=0,
            max_iters=SEARCH_ITERS,
            workers=ISLANDS_WORKERS,
        )
    )
    return {
        "instance": f"C({SEARCH_N})",
        "iters": SEARCH_ITERS,
        "workers": ISLANDS_WORKERS,
        "seconds": seconds,
        "evaluations": result.evaluations,
        "evals_per_second": result.evaluations / seconds,
        "objective": result.objective.score,
    }


def _faults_section() -> dict:
    """Batched Bernoulli Monte-Carlo on C(FAULTS_N)."""
    schedule = coloring_systolic_schedule(cycle_graph(FAULTS_N), Mode.HALF_DUPLEX)
    model = BernoulliArcFaults(0.05)
    seconds, result = _timed(
        lambda: monte_carlo(
            schedule, model, trials=FAULTS_TRIALS, seed=0, method="batched"
        )
    )
    return {
        "instance": f"C({FAULTS_N})",
        "model": model.name,
        "trials": FAULTS_TRIALS,
        "seconds": seconds,
        "trials_per_second": FAULTS_TRIALS / seconds,
        "completion_rate": result.completion_rate,
    }


def _stacked_faults_section() -> dict:
    """Candidate-stacked Bernoulli Monte-Carlo over a mixed portfolio."""
    side = int(FAULTS_N**0.5)
    candidates = [
        coloring_systolic_schedule(cycle_graph(FAULTS_N), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(cycle_graph(FAULTS_N), Mode.FULL_DUPLEX),
        coloring_systolic_schedule(grid_2d(side, side), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(grid_2d(side, side), Mode.FULL_DUPLEX),
    ][:STACKED_CANDIDATES]
    model = BernoulliArcFaults(0.05)
    seconds, results = _timed(
        lambda: monte_carlo_stacked(
            candidates, model, trials=FAULTS_TRIALS, seed=0
        )
    )
    trials = FAULTS_TRIALS * len(candidates)
    return {
        "instance": f"C({FAULTS_N}) + grid {side}x{side}",
        "model": model.name,
        "candidates": len(candidates),
        "trials": trials,
        "seconds": seconds,
        "trials_per_second": trials / seconds,
        "completion_rate": min(result.completion_rate for result in results),
    }


#: The battery, in recorded order: section name -> zero-arg producer.
SECTIONS = (
    ("plain_gossip", lambda: _engine_section({})),
    ("tracked_arrivals", lambda: _engine_section({"track_arrivals": True})),
    ("incremental_hill_climb", _search_section),
    ("island_search", _islands_section),
    ("batched_montecarlo", _faults_section),
    ("stacked_montecarlo", _stacked_faults_section),
)


def _recorded_section(producer) -> dict:
    """Run one section under its own recorder; attach counters/histograms."""
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        section = producer()
    stats = recorder.stats
    assert stats is not None
    section["counters"] = {
        f"{component}.{name}": value
        for component, counts in sorted(stats.counters.items())
        for name, value in sorted(counts.items())
    }
    section["histograms"] = {
        name: {str(index): count for index, count in sorted(hist.buckets.items())}
        for name, hist in sorted(stats.histograms.items())
    }
    return section


def build_entry(date: str | None = None, rev: str | None = None) -> dict:
    """Run the battery and build one trajectory row (no I/O)."""
    sections = {name: _recorded_section(producer) for name, producer in SECTIONS}
    totals: dict[str, int] = {}
    for section in sections.values():
        for name, value in section["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return {
        "date": date or datetime.date.today().isoformat(),
        "rev": rev or _git_rev(),
        "sections": sections,
        "telemetry": totals,
    }


def append_entry(entry: dict, output: str) -> None:
    """Write ``entry`` into the trajectory list, replacing its date's row."""
    trajectory: list = []
    if os.path.exists(output):
        with open(output) as fh:
            trajectory = json.load(fh)
        if not isinstance(trajectory, list):
            raise SystemExit(f"{output} does not hold a JSON list; refusing to append")
    # At most one observation per date: a same-day re-run replaces the
    # earlier row instead of appending a duplicate.
    trajectory = [row for row in trajectory if row.get("date") != entry["date"]]
    trajectory.append(entry)
    with open(output, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_point(output: str) -> dict:
    """Run the battery; write the JSON row; return the row."""
    entry = build_entry()
    append_entry(entry, output)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record one dated benchmark data point in the JSON trajectory."
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="trajectory file to append to (default: BENCH_trajectory.json at the repo root)",
    )
    args = parser.parse_args(argv)
    entry = record_point(args.output)
    best = {
        name: section.get("best_seconds", section.get("seconds"))
        for name, section in entry["sections"].items()
    }
    print(f"recorded {entry['date']} ({entry['rev']}) -> {os.path.abspath(args.output)}")
    for name, seconds in best.items():
        print(f"  {name}: {seconds:.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
