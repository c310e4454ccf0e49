"""Benchmark UPPER — sandwich the lower bounds with constructive upper bounds.

For the standard instance battery (hypercubes, complete graphs, paths,
cycles, grids, trees, de Bruijn / Wrapped Butterfly / Kautz colourings),
compare the Theorem 4.1 certified lower bound and the general analytic
coefficient with the measured gossip time of the constructive schedule.  The
hard invariant is ``certified ≤ measured`` on every instance.  A row whose
period admits no Theorem 4.1 certificate (``s ≤ 2``, here the full-duplex
path) is bounded by the graph diameter instead.
"""

from __future__ import annotations

from repro.experiments.runner import TABLES
from repro.experiments.sandwich import default_instances, sandwich_table
from repro.topologies.properties import diameter


def _run_and_check():
    instances = default_instances()
    rows = sandwich_table(instances)
    for row, schedule in zip(rows, instances, strict=True):
        assert row.consistent, row
        if row.norm_at_lambda is None:
            assert row.certified_lower_bound == diameter(schedule.graph), row
        else:
            assert row.norm_at_lambda <= 1.0 + 1e-6
    return rows


def test_upper_vs_lower_sandwich(benchmark, report_sink):
    rows = benchmark.pedantic(_run_and_check, rounds=1, iterations=1)
    report_sink(TABLES["sandwich"].title, TABLES["sandwich"].format(rows))
