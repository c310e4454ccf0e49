"""Experiment harness: one module per paper table/figure.

* :mod:`repro.experiments.reference` — the values the paper prints (Fig. 4
  fully; the cells of Figs. 5, 6 and 8 quoted in the running text).
* :mod:`repro.experiments.fig4` — the general systolic bound table (Fig. 4).
* :mod:`repro.experiments.fig5` — separator-refined systolic bounds for the
  specific topologies (Fig. 5).
* :mod:`repro.experiments.fig6` — non-systolic bounds for the specific
  topologies (Fig. 6).
* :mod:`repro.experiments.fig8` — full-duplex bounds (Fig. 8).
* :mod:`repro.experiments.structure` — the delay-matrix structure
  illustrations (Figs. 1–3 and 7).
* :mod:`repro.experiments.sandwich` — certified lower bounds vs. measured
  gossip times of constructive protocols on concrete instances.
* :mod:`repro.experiments.broadcast_sweep` — batched multi-source broadcast
  statistics per topology family (one simulation yields every source's
  broadcast time), parameterised over the simulation engine.
* :mod:`repro.experiments.search_gaps` — synthesized schedules
  (:mod:`repro.search`) vs. their certified lower bounds per topology
  family and mode, reporting the ``(found, lower_bound, gap)`` triples.
* :mod:`repro.experiments.robustness` — fault-injection stress tests
  (:mod:`repro.faults`): nominal vs robust-synthesized schedules under
  random call failures, with the adversarial worst case alongside.
* :mod:`repro.experiments.runner` — the one declaration of each table
  (:data:`~repro.experiments.runner.TABLES`: title, build function,
  columns or renderer, CLI options), :func:`format_table`, and
  :func:`run_all`, whose output is EXPERIMENTS.md.  The CLI's table
  commands and the paper-table benchmarks render from the same
  declarations.
"""

from repro.experiments.broadcast_sweep import broadcast_sweep_table
from repro.experiments.fig4 import fig4_table
from repro.experiments.fig5 import fig5_table
from repro.experiments.fig6 import fig6_table
from repro.experiments.fig8 import fig8_table
from repro.experiments.robustness import robustness_table
from repro.experiments.sandwich import sandwich_table
from repro.experiments.search_gaps import search_gaps_table
from repro.experiments.structure import structure_report
from repro.experiments.runner import format_table, run_all

__all__ = [
    "broadcast_sweep_table",
    "fig4_table",
    "fig5_table",
    "fig6_table",
    "fig8_table",
    "robustness_table",
    "sandwich_table",
    "search_gaps_table",
    "structure_report",
    "format_table",
    "run_all",
]
