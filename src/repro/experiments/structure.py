"""Experiment FIG1-3 / FIG7 — structure of the local delay matrices.

Figures 1–3 of the paper illustrate, for a ``k = 2`` local protocol, the
local delay matrix ``Mx(λ)`` with its blocks ``B_{i,j}``, and the reduced
matrices ``Nx(λ)`` and ``Ox(λ)``; Fig. 7 shows the banded full-duplex local
matrix for ``s = 4``.  This experiment rebuilds those matrices for the same
shapes, verifies the identities the figures encode (``Nx = M′ P``,
``Ox = (Mxᵀ)′ Q``, Lemma 4.2, Lemma 4.3, Lemma 6.1), and renders them as
text so the benchmark output can be compared with the figures by eye.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.delay import full_duplex_local_matrix
from repro.core.local_protocol import LocalProtocol
from repro.core.full_duplex import verify_lemma_61
from repro.core.reduction import (
    local_delay_matrix,
    reduced_left_matrix,
    reduced_right_matrix,
    verify_lemma_42,
    verify_lemma_43,
)

__all__ = ["StructureReport", "structure_report", "render_matrix", "render_structure"]

#: The k = 2 local protocol used to draw Figs. 1–3 (two left/right block pairs
#: per period; exact block lengths are not material to the figures, this shape
#: matches their general pattern with s = 6).
FIGURE_LOCAL_PROTOCOL = LocalProtocol((2, 1), (1, 2))

#: λ used for the structural illustrations; any value in (0, 1) works, the
#: root of the s = 6 characteristic equation is the natural choice.
FIGURE_LAMBDA = 0.6369


@dataclass(frozen=True)
class StructureReport:
    """All matrices and checks behind Figs. 1–3 and 7."""

    local_protocol: LocalProtocol
    lam: float
    mx: np.ndarray
    nx: np.ndarray
    ox: np.ndarray
    lemma42: dict[str, float | bool]
    lemma43: dict[str, float | bool]
    full_duplex_matrix: np.ndarray
    lemma61: dict[str, float | bool]


def render_matrix(matrix: np.ndarray, *, digits: int = 3) -> str:
    """Plain-text rendering of a matrix (zeros shown as dots, like the figures)."""
    lines: list[str] = []
    for row in np.atleast_2d(matrix):
        cells = []
        for value in row:
            cells.append("." * (digits + 2) if value == 0.0 else f"{value:.{digits}f}")
        lines.append("  ".join(f"{c:>{digits + 3}}" for c in cells))
    return "\n".join(lines)


def render_structure(report: StructureReport) -> str:
    """The FIG1-3/7 text: the local protocol and λ, the matrices ``Mx``,
    ``Nx`` and ``Ox``, the Fig. 7 full-duplex local matrix, and the Lemma
    4.2, 4.3 and 6.1 checks."""
    return "\n".join(
        [
            f"local protocol: {report.local_protocol.activation_word()}  λ = {report.lam}",
            "Mx(λ):",
            render_matrix(report.mx),
            "Nx(λ):",
            render_matrix(report.nx),
            "Ox(λ):",
            render_matrix(report.ox),
            "Fig. 7 full-duplex local matrix:",
            render_matrix(report.full_duplex_matrix),
            f"Lemma 4.2 check: {report.lemma42}",
            f"Lemma 4.3 check: {report.lemma43}",
            f"Lemma 6.1 check: {report.lemma61}",
        ]
    )


def structure_report(
    local: LocalProtocol = FIGURE_LOCAL_PROTOCOL,
    lam: float = FIGURE_LAMBDA,
    *,
    blocks: int = 4,
    full_duplex_period: int = 4,
    full_duplex_rounds: int = 10,
) -> StructureReport:
    """Rebuild the Figs. 1–3 and Fig. 7 matrices and run the associated checks."""
    mx = local_delay_matrix(local, lam, blocks)
    nx = reduced_right_matrix(local, lam, blocks)
    ox = reduced_left_matrix(local, lam, blocks)
    lemma42 = verify_lemma_42(local, lam, blocks)
    lemma43 = verify_lemma_43(local, lam, blocks)
    fd = full_duplex_local_matrix(full_duplex_period, full_duplex_rounds, lam)
    lemma61 = verify_lemma_61(full_duplex_period, full_duplex_rounds, lam)
    return StructureReport(
        local_protocol=local,
        lam=lam,
        mx=mx,
        nx=nx,
        ox=ox,
        lemma42=lemma42,
        lemma43=lemma43,
        full_duplex_matrix=fd,
        lemma61=lemma61,
    )
