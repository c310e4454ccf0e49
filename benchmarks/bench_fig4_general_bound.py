"""Benchmark FIG4 — regenerate the general systolic lower-bound table (Fig. 4).

Reproduces ``e(s)`` for ``s = 3 … 8`` and the non-systolic limit and checks
every coefficient against the values printed in the paper (agreement within
one unit of the fourth decimal place, the paper's print precision).
"""

from __future__ import annotations

from repro.experiments.fig4 import fig4_table
from repro.experiments.runner import TABLES


def _run_and_check():
    rows = fig4_table()
    for row in rows:
        assert row.paper_coefficient is not None
        assert abs(row.coefficient - row.paper_coefficient) <= 1e-4, (
            f"s={row.period_label}: computed {row.coefficient}, paper {row.paper_coefficient}"
        )
    return rows


def test_fig4_table(benchmark, report_sink):
    rows = benchmark(_run_and_check)
    report_sink(TABLES["fig4"].title, TABLES["fig4"].format(rows))
