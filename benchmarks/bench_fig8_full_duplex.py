"""Benchmark FIG8 — full-duplex lower bounds (Fig. 8, Section 6).

Regenerates the full-duplex table for BF, WBF and K (degrees 2, 3; periods
3-8 and ∞), checking that the general column reproduces the broadcasting
coefficients of [22, 2] (the paper's observation that the unrefined
full-duplex bound adds nothing over broadcasting) and that the separator
refinement only ever improves on it.
"""

from __future__ import annotations

from repro.core.full_duplex import full_duplex_general_bound
from repro.experiments.fig8 import fig8_table
from repro.experiments.reference import BROADCAST_DEGREE_COEFFICIENTS
from repro.experiments.runner import TABLES


def _run_and_check():
    # General full-duplex bound at s=3 equals the degree-2 broadcasting bound.
    assert abs(
        full_duplex_general_bound(3).coefficient - BROADCAST_DEGREE_COEFFICIENTS[2]
    ) <= 1e-4
    rows = fig8_table()
    for row in rows:
        assert row.coefficient >= row.general_coefficient - 1e-6
    return rows


def test_fig8_table(benchmark, report_sink):
    rows = benchmark.pedantic(_run_and_check, rounds=1, iterations=1)
    report_sink(TABLES["fig8"].title, TABLES["fig8"].format(rows))
