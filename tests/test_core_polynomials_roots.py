"""Tests for the polynomial / root-solving layer (repro.core.polynomials, .roots)."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.polynomials import (
    GOLDEN_RATIO_INVERSE,
    full_duplex_norm_bound,
    full_duplex_norm_bound_limit,
    geometric_sum,
    half_duplex_norm_bound,
    half_duplex_norm_bound_limit,
    norm_bound_product,
    p_polynomial,
    split_period,
)
from repro.core import roots
from repro.core.roots import bisection_root, solve_unit_root
from repro.exceptions import BoundComputationError

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every norm-bound equation the library solves: both modes over the periods
#: the experiments reach, and both non-systolic limits.
NORM_BOUND_FAMILIES = {
    "half-duplex": [lambda x, s=s: half_duplex_norm_bound(s, x) for s in range(3, 257)],
    "full-duplex": [lambda x, s=s: full_duplex_norm_bound(s, x) for s in range(3, 257)],
    "half-duplex-limit": [half_duplex_norm_bound_limit],
    "full-duplex-limit": [full_duplex_norm_bound_limit],
}


class TestPPolynomial:
    def test_first_values(self):
        lam = 0.5
        assert p_polynomial(1, lam) == pytest.approx(1.0)
        assert p_polynomial(2, lam) == pytest.approx(1.0 + 0.25)
        assert p_polynomial(3, lam) == pytest.approx(1.0 + 0.25 + 0.0625)

    def test_zero_terms_is_zero(self):
        assert p_polynomial(0, 0.7) == 0.0

    def test_lambda_zero(self):
        assert p_polynomial(5, 0.0) == 1.0

    def test_composition_identity(self):
        # p_i + λ^{2i} p_j = p_{i+j}, the identity the Lemma 4.2 proof uses.
        lam = 0.61
        for i in range(0, 5):
            for j in range(0, 5):
                lhs = p_polynomial(i, lam) + lam ** (2 * i) * p_polynomial(j, lam)
                assert lhs == pytest.approx(p_polynomial(i + j, lam))

    def test_negative_index_rejected(self):
        with pytest.raises(BoundComputationError):
            p_polynomial(-1, 0.5)

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(BoundComputationError):
            p_polynomial(2, 1.0)
        with pytest.raises(BoundComputationError):
            p_polynomial(2, -0.1)

    def test_increasing_in_lambda(self):
        assert p_polynomial(4, 0.3) < p_polynomial(4, 0.6) < p_polynomial(4, 0.9)


class TestGeometricSum:
    def test_basic(self):
        assert geometric_sum(0.5, 1, 3) == pytest.approx(0.5 + 0.25 + 0.125)

    def test_empty_range(self):
        assert geometric_sum(0.5, 3, 2) == 0.0

    def test_lambda_zero(self):
        assert geometric_sum(0.0, 0, 5) == 1.0
        assert geometric_sum(0.0, 1, 5) == 0.0


class TestSplitPeriod:
    @pytest.mark.parametrize("s, expected", [(3, (2, 1)), (4, (2, 2)), (5, (3, 2)), (8, (4, 4))])
    def test_values(self, s, expected):
        assert split_period(s) == expected

    def test_parts_sum_to_period(self):
        for s in range(1, 20):
            left, right = split_period(s)
            assert left + right == s

    def test_invalid(self):
        with pytest.raises(BoundComputationError):
            split_period(0)


class TestNormBounds:
    def test_norm_bound_product_matches_definition(self):
        lam = 0.7
        expected = lam * math.sqrt(p_polynomial(3, lam)) * math.sqrt(p_polynomial(2, lam))
        assert norm_bound_product(3, 2, lam) == pytest.approx(expected)

    def test_half_duplex_uses_balanced_split(self):
        lam = 0.6
        assert half_duplex_norm_bound(5, lam) == pytest.approx(norm_bound_product(3, 2, lam))

    def test_half_duplex_bound_increasing_in_lambda(self):
        values = [half_duplex_norm_bound(4, lam) for lam in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)

    def test_half_duplex_bound_decreasing_in_period_at_fixed_root(self):
        # At fixed λ the bound grows with s, so the root λ(s) decreases with s.
        lam = 0.6
        assert half_duplex_norm_bound(4, lam) <= half_duplex_norm_bound(6, lam)

    def test_balanced_split_is_worst_case(self):
        # λ √p_⌈s/2⌉ √p_⌊s/2⌋ dominates every other split of s (paper's
        # monotonicity argument p_{i+1} p_{j-1} < p_i p_j for i >= j).
        lam = 0.8
        for s in range(3, 10):
            balanced = half_duplex_norm_bound(s, lam)
            for left in range(1, s):
                right = s - left
                assert norm_bound_product(left, right, lam) <= balanced + 1e-12

    def test_half_duplex_limit_is_pointwise_limit(self):
        lam = 0.55
        assert half_duplex_norm_bound(60, lam) == pytest.approx(
            half_duplex_norm_bound_limit(lam), abs=1e-9
        )

    def test_full_duplex_bound(self):
        lam = 0.5
        assert full_duplex_norm_bound(4, lam) == pytest.approx(0.5 + 0.25 + 0.125)

    def test_full_duplex_limit(self):
        lam = 0.4
        assert full_duplex_norm_bound_limit(lam) == pytest.approx(lam / (1 - lam))
        assert full_duplex_norm_bound(80, lam) == pytest.approx(
            full_duplex_norm_bound_limit(lam), abs=1e-9
        )

    def test_invalid_periods(self):
        with pytest.raises(BoundComputationError):
            half_duplex_norm_bound(0, 0.5)
        with pytest.raises(BoundComputationError):
            full_duplex_norm_bound(1, 0.5)

    def test_negative_totals_rejected(self):
        with pytest.raises(BoundComputationError):
            norm_bound_product(-1, 2, 0.5)

    def test_golden_ratio_inverse_is_limit_root(self):
        assert half_duplex_norm_bound_limit(GOLDEN_RATIO_INVERSE) == pytest.approx(1.0)


class TestRootSolving:
    def test_bisection_simple_root(self):
        root = bisection_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_bisection_endpoint_roots(self):
        assert bisection_root(lambda x: x, 0.0, 1.0) == 0.0
        assert bisection_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_bisection_bad_bracket(self):
        with pytest.raises(BoundComputationError):
            bisection_root(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_solve_unit_root_golden_ratio(self):
        lam = solve_unit_root(half_duplex_norm_bound_limit)
        assert lam == pytest.approx(GOLDEN_RATIO_INVERSE, abs=1e-10)

    def test_solve_unit_root_s3(self):
        # s = 3: λ √(1 + λ²) = 1  ⇒  λ² = (√5 − 1)/2.
        lam = solve_unit_root(lambda x: half_duplex_norm_bound(3, x))
        assert lam * lam == pytest.approx(GOLDEN_RATIO_INVERSE, abs=1e-9)

    def test_solve_unit_root_full_duplex_s3(self):
        # λ + λ² = 1 has the golden-ratio root.
        lam = solve_unit_root(lambda x: full_duplex_norm_bound(3, x))
        assert lam == pytest.approx(GOLDEN_RATIO_INVERSE, abs=1e-10)

    def test_root_value_maps_back_to_one(self):
        for s in (3, 4, 5, 6, 7, 8):
            lam = solve_unit_root(lambda x, s=s: half_duplex_norm_bound(s, x))
            assert half_duplex_norm_bound(s, lam) == pytest.approx(1.0, abs=1e-9)

    def test_no_root_raises(self):
        with pytest.raises(BoundComputationError):
            solve_unit_root(lambda x: 0.5 * x)  # stays below 1 on (0, 1)
        with pytest.raises(BoundComputationError):
            solve_unit_root(lambda x: 2.0 + x)  # already above 1

    @pytest.mark.parametrize("family", sorted(NORM_BOUND_FAMILIES))
    def test_bisection_oracle_agrees_with_brent(self, family):
        for norm_bound in NORM_BOUND_FAMILIES[family][::16]:
            lam_brent = solve_unit_root(norm_bound)
            lam_bisect = bisection_root(lambda x: norm_bound(x) - 1.0, 1e-12, 1 - 1e-12)
            assert lam_brent == pytest.approx(lam_bisect, abs=1e-9)

    @pytest.mark.parametrize("family", sorted(NORM_BOUND_FAMILIES))
    def test_brent_port_matches_scipy_brentq_exactly(self, family):
        optimize = pytest.importorskip("scipy.optimize")
        for norm_bound in NORM_BOUND_FAMILIES[family]:
            expected = optimize.brentq(
                lambda x: norm_bound(x) - 1.0,
                1e-15,
                1 - 1e-13,
                xtol=1e-12,
                rtol=8.881784197001252e-16,
            )
            assert solve_unit_root(norm_bound) == expected

    def test_brent_simple_and_endpoint_roots(self):
        assert roots._brent_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )
        assert roots._brent_root(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
        assert roots._brent_root(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0

    def test_brent_bad_bracket_and_non_convergence(self, monkeypatch):
        with pytest.raises(BoundComputationError, match="does not change sign"):
            roots._brent_root(lambda x: x * x + 1.0, 0.0, 1.0, 1e-12)
        monkeypatch.setattr(roots, "_BRENT_MAX_ITERATIONS", 2)
        with pytest.raises(BoundComputationError, match="did not converge in 2 iterations"):
            roots._brent_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)

    def test_certified_gap_imports_no_scipy(self):
        script = textwrap.dedent(
            """
            import sys
            from repro.gossip.model import Mode
            from repro.protocols.generic import coloring_systolic_schedule
            from repro.search import certified_gap
            from repro.topologies.classic import cycle_graph

            schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
            report = certified_gap(schedule)
            assert report.certified_rounds is not None, report
            assert report.analytic_coefficient is not None, report
            print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert completed.stdout.strip() == "[]"
