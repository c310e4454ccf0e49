"""The benchmark's workloads: inputs built from a seed, timed jobs, checks.

Each workload is a fixed list of jobs run one after another by a single
caller.  A job's ``run`` is the timed call into the program's public entry
points; its ``digest`` keeps the few values the output check needs and runs
outside the timed region, so large outputs (arrival matrices) are dropped
before the next job starts.  ``check`` compares digests against oracles that
do not share the code under test and names every job that failed.

``scale="toy"`` shrinks every instance so the self-tests finish in seconds;
the benchmark itself always runs ``scale="full"``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.faults import (
    BernoulliArcFaults,
    CrashFaults,
    monte_carlo,
    monte_carlo_stacked,
    worst_case_gossip_time,
)
from repro.gossip.analysis import all_arrival_times
from repro.gossip.model import Mode, SystolicSchedule
from repro.gossip.simulation import broadcast_times_all, gossip_time
from repro.protocols.generic import coloring_systolic_schedule
from repro.search import certified_gap, synthesize_schedule
from repro.topologies.classic import cycle_graph, grid_2d, hypercube, path_graph, torus_2d
from repro.topologies.debruijn import de_bruijn

HALF, FULL = Mode.HALF_DUPLEX, Mode.FULL_DUPLEX

#: Trials the looped Monte-Carlo oracle replays per job.
ORACLE_TRIALS = 8


@dataclass
class Job:
    name: str
    run: Callable[[Any], Any]  # tracer -> output (timed)
    digest: Callable[[Any], Any] = lambda output: output  # untimed
    instance: str = ""
    kind: str = ""


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    #: digests by job name -> {failed job name: reason}
    check: Callable[[dict[str, Any]], dict[str, str]]
    #: extra whole-workload values reported next to the metrics
    summary: Callable[[dict[str, Any]], dict[str, float]] = field(
        default=lambda digests: {}
    )


def _rotated(schedule: SystolicSchedule, shift: int) -> SystolicSchedule:
    """The same schedule started ``shift`` rounds later in its period."""
    rounds = schedule.base_rounds
    shift %= len(rounds)
    return SystolicSchedule(
        schedule.graph,
        rounds[shift:] + rounds[:shift],
        mode=schedule.mode,
        name=f"{schedule.name}-r{shift}",
    )


# --------------------------------------------------------------------- #
# simulate-large
def _simulate_large(seed: int, scale: str) -> Workload:
    n, rows = (3072, 16) if scale == "full" else (64, 4)
    graphs = (cycle_graph(n), path_graph(n), grid_2d(rows, n // rows))
    # The seed picks the phase each period starts in: same work, new input.
    schedules = [
        _rotated(coloring_systolic_schedule(graph, HALF), seed + i)
        for i, graph in enumerate(graphs)
    ]

    def plain(schedule):
        def run(tracer):
            with tracer.span("simulation"):
                return gossip_time(schedule, engine="auto")

        return run

    def items(schedule):
        def run(tracer):
            with tracer.span("simulation"):
                return broadcast_times_all(schedule, engine="auto")

        return run

    def arrivals(schedule):
        def run(tracer):
            with tracer.span("simulation"):
                return all_arrival_times(schedule, engine="auto")

        return run

    def arrival_digest(view):
        matrix = view.to_numpy()
        return int(matrix.max()), int(matrix.min())

    jobs = []
    for schedule in schedules:
        label = schedule.graph.name
        jobs += [
            Job(f"{label}/plain", plain(schedule), instance=label, kind="plain"),
            Job(
                f"{label}/items",
                items(schedule),
                lambda times: max(times.values()),
                instance=label,
                kind="items",
            ),
            Job(
                f"{label}/arrivals",
                arrivals(schedule),
                arrival_digest,
                instance=label,
                kind="arrivals",
            ),
        ]

    def check(digests):
        failures = {}
        for schedule in schedules:
            label = schedule.graph.name
            plain_rounds = digests.get(f"{label}/plain")
            if plain_rounds is None:
                continue
            items_max = digests.get(f"{label}/items")
            if items_max is not None and items_max != plain_rounds:
                failures[f"{label}/items"] = (
                    f"max broadcast time {items_max} != gossip time {plain_rounds}"
                )
            arrival = digests.get(f"{label}/arrivals")
            if arrival is not None and (arrival[0] != plain_rounds or arrival[1] < 0):
                failures[f"{label}/arrivals"] = (
                    f"arrival matrix max/min {arrival} != gossip time {plain_rounds}"
                )
        return failures

    return Workload("simulate-large", jobs, check)


# --------------------------------------------------------------------- #
# optimize-small
def _optimize_small(seed: int, scale: str) -> Workload:
    if scale == "full":
        iterations = 60
        instances = [
            (cycle_graph(128), HALF, "anneal"),
            (cycle_graph(64), HALF, "hill"),
            (grid_2d(8, 8), FULL, "anneal"),
            (hypercube(6), HALF, "hill"),
            (torus_2d(8, 8), HALF, "anneal"),
            (de_bruijn(2, 5), HALF, "anneal"),
        ]
    else:
        iterations = 15
        instances = [(cycle_graph(12), HALF, "anneal"), (grid_2d(3, 3), FULL, "hill")]
    # Incremental evaluation is opt-in while the flag exists; once it is the
    # only path the flag goes away and this benchmark needs no edit.
    options = {}
    if "incremental" in inspect.signature(synthesize_schedule).parameters:
        options["incremental"] = True

    def optimize(graph, mode, strategy):
        def run(tracer):
            with tracer.span("search"):
                result = synthesize_schedule(
                    graph,
                    mode,
                    strategy=strategy,
                    seed=seed,
                    max_iters=iterations,
                    engine="auto",
                    **options,
                )
            tracer.add("search.evaluations", result.evaluations)
            with tracer.span("certify"):
                report = certified_gap(result.schedule, found=result.found_rounds)
            return result, report

        return run

    def digest(output):
        result, report = output
        return result.schedule, result.found_rounds, report.found, report.lower_bound

    jobs = [
        Job(
            f"{graph.name}/{mode.value}/{strategy}/seed{seed}",
            optimize(graph, mode, strategy),
            digest,
            instance=graph.name,
        )
        for graph, mode, strategy in instances
    ]

    def check(digests):
        failures = {}
        for name, (schedule, found, reported, lower) in digests.items():
            resimulated = gossip_time(schedule, engine="reference")
            if not (resimulated == found == reported):
                failures[name] = (
                    f"winner re-simulates to {resimulated}, search reported "
                    f"{found}, gap report {reported}"
                )
            elif lower > found:
                failures[name] = f"lower bound {lower} exceeds found {found}"
        return failures

    def summary(digests):
        return {
            "search_gap_rounds": sum(
                found - lower for _, found, _, lower in digests.values()
            )
        }

    return Workload("optimize-small", jobs, check, summary)


# --------------------------------------------------------------------- #
# faults-mc
def _faults_mc(seed: int, scale: str) -> Workload:
    if scale == "full":
        cycle_n, side, dim, trials = 256, 24, 9, 200
        stacked_n, stacked_side, stacked_trials, adversary_n = 256, 16, 64, 32
    else:
        cycle_n, side, dim, trials = 24, 4, 4, 16
        stacked_n, stacked_side, stacked_trials, adversary_n = 16, 4, 12, 8
    bernoulli = BernoulliArcFaults(0.1)
    crash = CrashFaults(1)
    cycle = coloring_systolic_schedule(cycle_graph(cycle_n), HALF)
    solo = [
        ("bernoulli", cycle, bernoulli),
        ("bernoulli", coloring_systolic_schedule(grid_2d(side, side), FULL), bernoulli),
        ("bernoulli", coloring_systolic_schedule(hypercube(dim), HALF), bernoulli),
        ("crash", cycle, crash),
    ]
    candidates = [
        coloring_systolic_schedule(graph, mode)
        for graph in (cycle_graph(stacked_n), grid_2d(stacked_side, stacked_n // stacked_side))
        for mode in (HALF, FULL)
    ]
    adversary_target = coloring_systolic_schedule(cycle_graph(adversary_n), HALF)

    def solo_run(schedule, model):
        def run(tracer):
            with tracer.span("faults.mc"):
                return monte_carlo(schedule, model, trials=trials, seed=seed)

        return run

    def stacked_run(tracer):
        with tracer.span("faults.mc"):
            return monte_carlo_stacked(candidates, bernoulli, trials=stacked_trials, seed=seed)

    def adversary_run(tracer):
        with tracer.span("faults.adversarial"):
            return worst_case_gossip_time(adversary_target, 1)

    def prefix(result):
        return (
            result.completion_rounds[:ORACLE_TRIALS],
            result.knowledge[:ORACLE_TRIALS],
        )

    jobs = [
        Job(f"{schedule.name}/{label}", solo_run(schedule, model), prefix)
        for label, schedule, model in solo
    ]
    jobs.append(
        Job(
            f"stacked-{len(candidates)}x{stacked_trials}",
            stacked_run,
            lambda results: [prefix(result) for result in results],
        )
    )
    jobs.append(
        Job(
            f"{adversary_target.name}/worst-k1",
            adversary_run,
            lambda report: (report.rounds, report.deletion),
        )
    )

    def looped(schedule, model):
        return prefix(
            monte_carlo(
                schedule, model, trials=ORACLE_TRIALS, seed=seed, method="looped"
            )
        )

    def check(digests):
        failures = {}
        for (label, schedule, model), job in zip(solo, jobs):
            got = digests.get(job.name)
            if got is not None and got != looped(schedule, model):
                failures[job.name] = "batched trials differ from the looped oracle"
        stacked = digests.get(jobs[len(solo)].name)
        if stacked is not None:
            for index, candidate in enumerate(candidates):
                if stacked[index] != looped(candidate, bernoulli):
                    failures[jobs[len(solo)].name] = (
                        f"stacked candidate {candidate.name} differs from the looped oracle"
                    )
        adversary = digests.get(jobs[-1].name)
        if adversary is not None:
            problem = _check_adversary(adversary_target, *adversary)
            if problem:
                failures[jobs[-1].name] = problem
        return failures

    return Workload("faults-mc", jobs, check)


def _check_adversary(schedule: SystolicSchedule, rounds, deletion) -> str | None:
    """Replay the reported worst deletion on the reference engine."""
    deleted = set(deletion)
    kept = [
        tuple(arc for arc in arcs if (slot, arc) not in deleted)
        for slot, arcs in enumerate(schedule.base_rounds)
    ]
    nominal = gossip_time(schedule, engine="reference")
    replay = SystolicSchedule(schedule.graph, kept, mode=schedule.mode)
    try:
        replayed = gossip_time(replay, engine="reference")
    except SimulationError:  # the deletion stops gossip: reported as ``None``
        replayed = None
    if replayed != rounds:
        return f"worst deletion replays to {replayed}, reported {rounds}"
    if rounds is not None and rounds < nominal:
        return f"worst case {rounds} beats the fault-free time {nominal}"
    return None


WORKLOADS = {
    "simulate-large": _simulate_large,
    "optimize-small": _optimize_small,
    "faults-mc": _faults_mc,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](seed, scale)
