"""Benchmark FIG1-3 — structure of the local delay matrices ``Mx``, ``Nx``, ``Ox``.

Rebuilds the Figs. 1–3 matrices for a k = 2 local protocol and verifies the
Section 4 identities (Lemma 4.2 semi-eigenvector inequalities, Lemma 4.3 norm
bound, and the agreement of the reduced spectral radius with the Gram
spectral radius, i.e. Lemma 2.2).
"""

from __future__ import annotations

from repro.experiments.runner import TABLES
from repro.experiments.structure import structure_report


def _run_and_check():
    report = structure_report()
    assert report.lemma42["right_holds"] and report.lemma42["left_holds"]
    assert report.lemma43["worst_split_holds"]
    assert report.lemma43["own_split_holds"]
    assert report.lemma43["reduction_consistent"]
    return report


def test_fig1_3_structure(benchmark, report_sink):
    report = benchmark(_run_and_check)
    report_sink(TABLES["structure"].title, TABLES["structure"].format(report))
