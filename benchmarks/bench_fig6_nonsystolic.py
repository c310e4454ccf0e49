"""Benchmark FIG6 — non-systolic lower bounds per topology (Fig. 6).

Regenerates the ``s → ∞`` table, checking the two cells quoted in the text
(WBF(2,D) → 1.9750 and DB(2,D) → 1.5876) and that every refined value is at
least the general 1.4404 bound.
"""

from __future__ import annotations

from repro.experiments.fig6 import fig6_table
from repro.experiments.reference import TEXT_QUOTED_HALF_DUPLEX_NONSYSTOLIC
from repro.experiments.runner import TABLES


def _run_and_check():
    rows = fig6_table()
    for row in rows:
        assert row.coefficient >= row.general_coefficient - 1e-6
        quoted = TEXT_QUOTED_HALF_DUPLEX_NONSYSTOLIC.get(row.family, {}).get(row.degree)
        if quoted is not None:
            assert abs(row.coefficient - quoted) <= 1e-4
    return rows


def test_fig6_table(benchmark, report_sink):
    rows = benchmark(_run_and_check)
    report_sink(TABLES["fig6"].title, TABLES["fig6"].format(rows))
