"""Schedule synthesis: search for near-optimal systolic gossip schedules.

The paper proves *lower* bounds on s-systolic gossip time; the engine
registry evaluates concrete schedules fast; this package connects them.
Given any :class:`~repro.topologies.base.Digraph` and communication mode it
*discovers* a systolic schedule and certifies how far the result sits from
the theory:

>>> from repro.search import synthesize_schedule, certified_gap
>>> from repro.gossip.model import Mode
>>> from repro.topologies.classic import cycle_graph
>>> result = synthesize_schedule(cycle_graph(8), Mode.HALF_DUPLEX, seed=1)
>>> report = certified_gap(result.schedule, found=result.found_rounds)
>>> (report.found, report.lower_bound, report.gap)  # doctest: +SKIP
(8, 5, 3)

Layout
------
* :mod:`~repro.search.constructors` — seed schedules (edge-colouring
  baseline + greedy frontier-aware constructor);
* :mod:`~repro.search.moves` — the validity-preserving neighbourhood over
  periods (resequencing, round surgery, period ± 1);
* :mod:`~repro.search.objective` — candidate scoring through the engine
  registry: one memoizing, checkpoint-reusing evaluator per walk, the
  batched ``evaluate_candidates`` path, and the one-shot
  ``evaluate_schedule``;
* :mod:`~repro.search.incremental` — the per-walk :class:`CheckpointCache`
  behind every search evaluation: candidates sharing a period prefix
  resume each other's engine checkpoints instead of re-simulating from
  round 0, bit-identically by the engines' resume contract;
* :mod:`~repro.search.local_search` — seeded hill climbing, simulated
  annealing with restarts, and the :func:`synthesize_schedule` driver;
* :mod:`~repro.search.islands` — the multi-process island layer behind
  ``synthesize_schedule(workers=N)``: driver populations with periodic
  best-candidate migration over a process pool, bit-identical for a fixed
  seed regardless of the worker count;
* :mod:`~repro.search.gap` — the certified ``(found, lower_bound, gap)``
  report (Theorem 4.1 certificates + diameter fallback, with the general
  and separator-refined asymptotic coefficients for context).

Choosing a heuristic
--------------------
* **Start from** :func:`synthesize_schedule` with the defaults
  (``strategy="anneal"``): it seeds from both constructors plus random
  schedules and keeps whatever wins.  On 1-factorable regular topologies
  (even cycles, paths, hypercubes, tori) the edge-colouring seed is already
  excellent and the search mostly reorders rounds; on irregular or
  expander-like graphs (de Bruijn, Kautz, butterflies) the greedy frontier
  constructor and the annealer's period-resizing moves do the real work.
* **Hill climbing** (``strategy="hill"``) converges in fewer evaluations
  and is fully greedy — right for quick sweeps, CI smoke tests and as the
  inner loop of parameter scans.  It plateaus earlier; give the annealer
  the budget when the gap matters.
* **Objectives**: ``"gossip_rounds"`` is the cheapest and the default;
  ``"max_eccentricity"`` scores identically on completing schedules but
  grades incomplete candidates by how many broadcasts finished, which
  helps on sparse periods that struggle to complete; ``"mean_eccentricity"``
  optimizes average-case latency instead of the worst source.
* **Engines**: the ``engine=`` keyword reaches every evaluation.  Leave it
  on ``"auto"`` (the vectorized kernel) for moderate n; pick ``"frontier"``
  explicitly for large sparse instances, exactly as in the
  :mod:`repro.gossip.engines` selection notes.  ``evaluations`` counts
  engine runs: a repeated period is answered from a memo or, in a hill
  climb, rejected by a bound an earlier run proved.  Search cost ≈
  evaluations × single-run cost, less the rounds resumed from
  checkpoints.
* **Budgets**: ``max_iters`` is proposals per driver run, not accepted
  moves.  The experiment table (:mod:`repro.experiments.search_gaps`) uses
  ~150 iterations per instance at n ≤ 16; the benchmark
  (``benchmarks/bench_search.py``) records evaluations/second per engine so
  budgets can be sized from measured throughput.
"""

from __future__ import annotations

from repro.search.constructors import edge_coloring_seed, greedy_frontier_schedule
from repro.search.gap import GapReport, certified_gap
from repro.search.incremental import CheckpointCache
from repro.search.islands import run_island_search
from repro.search.local_search import (
    SearchResult,
    hill_climb,
    simulated_annealing,
    synthesize_schedule,
)
from repro.search.moves import MOVE_KINDS, Neighborhood
from repro.search.objective import (
    INCOMPLETE_PENALTY,
    OBJECTIVES,
    ObjectiveValue,
    RobustnessSpec,
    evaluate_candidates,
    evaluate_schedule,
)

__all__ = [
    "CheckpointCache",
    "GapReport",
    "MOVE_KINDS",
    "Neighborhood",
    "INCOMPLETE_PENALTY",
    "OBJECTIVES",
    "ObjectiveValue",
    "RobustnessSpec",
    "SearchResult",
    "certified_gap",
    "edge_coloring_seed",
    "evaluate_candidates",
    "evaluate_schedule",
    "greedy_frontier_schedule",
    "hill_climb",
    "run_island_search",
    "simulated_annealing",
    "synthesize_schedule",
]
