"""Tests for Theorem 4.1 certificates on concrete protocols (repro.core.certificates)."""

from __future__ import annotations

import pytest

from repro.core.certificates import analytic_lambda_for, certify_protocol
from repro.core.general_bound import theorem41_rounds
from repro.core.polynomials import full_duplex_norm_bound, half_duplex_norm_bound
from repro.exceptions import BoundComputationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.model import Mode
from repro.gossip.simulation import gossip_time
from repro.protocols.complete import complete_graph_schedule
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.topologies.classic import cycle_graph, grid_2d, hypercube, torus_2d
from repro.topologies.debruijn import de_bruijn

HALF, FULL = Mode.HALF_DUPLEX, Mode.FULL_DUPLEX

#: ``(lam, norm, certified_rounds)`` of ``certify_protocol(optimize_lambda=True)``,
#: floats by ``repr``, computed with one SVD per vertex block and all 60
#: bisection steps: the deduplicated norm and the early bisection
#: stop must reproduce them exactly.  The battery of
#: ``benchmarks/bench_thm41_certificates.py`` plus the colouring schedules of
#: the ``optimize-small`` benchmark instances.
CERTIFICATE_PINS = [
    (lambda: hypercube_dimension_exchange(3, FULL), 0.6251363369914195, 0.9999999999999997, 3),
    (lambda: hypercube_dimension_exchange(4, FULL), 0.5504579136783923, 1.0, 3),
    (lambda: complete_graph_schedule(16, HALF), 0.6287784741874087, 1.0, 3),
    (lambda: path_systolic_schedule(10, HALF), 0.6823278038280193, 1.0, 3),
    (lambda: cycle_systolic_schedule(12, HALF), 0.6823278038280193, 1.0, 3),
    (lambda: coloring_systolic_schedule(de_bruijn(2, 4), HALF), 0.6509874418520005, 1.0, 3),
    (lambda: coloring_systolic_schedule(cycle_graph(128), HALF), 0.6823278038280193, 1.0, 6),
    (lambda: coloring_systolic_schedule(cycle_graph(64), HALF), 0.6823278038280193, 1.0, 5),
    (lambda: coloring_systolic_schedule(grid_2d(8, 8), FULL), 0.5504579136783923, 1.0, 4),
    (lambda: coloring_systolic_schedule(hypercube(6), HALF), 0.6216240355089699, 1.0, 5),
    (lambda: coloring_systolic_schedule(torus_2d(8, 8), HALF), 0.6287784741874087, 1.0, 5),
    (lambda: coloring_systolic_schedule(de_bruijn(2, 5), HALF), 0.6514571559147893, 1.0, 4),
]
PIN_IDS = [
    "Q3-fd", "Q4-fd", "K16-hd", "P10-hd", "C12-hd", "DB(2,4)-hd",
    "C128-hd", "C64-hd", "grid8x8-fd", "Q6-hd", "torus8x8-hd", "DB(2,5)-hd",
]


class TestAnalyticLambda:
    def test_half_duplex_root(self):
        lam = analytic_lambda_for(Mode.HALF_DUPLEX, 4)
        assert half_duplex_norm_bound(4, lam) == pytest.approx(1.0, abs=1e-9)

    def test_directed_uses_half_duplex_root(self):
        assert analytic_lambda_for(Mode.DIRECTED, 5) == pytest.approx(
            analytic_lambda_for(Mode.HALF_DUPLEX, 5)
        )

    def test_full_duplex_root(self):
        lam = analytic_lambda_for(Mode.FULL_DUPLEX, 4)
        assert full_duplex_norm_bound(4, lam) == pytest.approx(1.0, abs=1e-9)

    def test_small_periods_rejected(self):
        with pytest.raises(BoundComputationError):
            analytic_lambda_for(Mode.HALF_DUPLEX, 2)
        with pytest.raises(BoundComputationError):
            analytic_lambda_for(Mode.FULL_DUPLEX, 2)


class TestCertifyProtocol:
    def test_certificate_valid_at_analytic_lambda(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        certificate = certify_protocol(schedule)
        assert certificate.valid
        assert certificate.norm <= 1.0 + 1e-9
        assert certificate.period == schedule.period
        assert certificate.n == 8

    def test_certified_bound_not_exceeding_measured_time(self):
        schedules = [
            cycle_systolic_schedule(10, Mode.HALF_DUPLEX),
            path_systolic_schedule(9, Mode.HALF_DUPLEX),
            hypercube_dimension_exchange(3, Mode.FULL_DUPLEX),
            complete_graph_schedule(8, Mode.HALF_DUPLEX),
        ]
        for schedule in schedules:
            certificate = certify_protocol(schedule, optimize_lambda=True)
            assert certificate.valid
            assert certificate.certified_rounds <= gossip_time(schedule)

    def test_optimized_lambda_gives_stronger_or_equal_bound(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        base = certify_protocol(schedule)
        optimized = certify_protocol(schedule, optimize_lambda=True)
        assert optimized.valid
        assert optimized.lam >= base.lam - 1e-9
        assert optimized.certified_rounds >= base.certified_rounds

    def test_certificate_matches_theorem41(self):
        schedule = path_systolic_schedule(8, Mode.HALF_DUPLEX)
        certificate = certify_protocol(schedule)
        assert certificate.certified_rounds == theorem41_rounds(8, certificate.lam)

    def test_explicit_lambda(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        certificate = certify_protocol(schedule, lam=0.3)
        assert certificate.lam == 0.3
        assert certificate.valid

    def test_invalid_when_norm_exceeds_one(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        certificate = certify_protocol(schedule, lam=0.999)
        assert not certificate.valid
        assert certificate.certified_rounds == 0

    def test_invalid_lambda_rejected(self):
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        with pytest.raises(BoundComputationError):
            certify_protocol(schedule, lam=1.5)

    def test_explicit_lambda_with_optimize_rejected(self):
        # The λ search would silently discard the explicit λ.
        schedule = cycle_systolic_schedule(8, Mode.HALF_DUPLEX)
        with pytest.raises(BoundComputationError, match="optimize_lambda"):
            certify_protocol(schedule, lam=0.3, optimize_lambda=True)

    @pytest.mark.parametrize(
        "factory, lam, norm, certified_rounds", CERTIFICATE_PINS, ids=PIN_IDS
    )
    def test_optimized_certificate_pinned_bit_for_bit(
        self, factory, lam, norm, certified_rounds
    ):
        certificate = certify_protocol(factory(), optimize_lambda=True)
        assert (certificate.lam, certificate.norm, certificate.certified_rounds) == (
            lam,
            norm,
            certified_rounds,
        )

    def test_explicit_protocol_accepted(self):
        schedule = cycle_systolic_schedule(6, Mode.HALF_DUPLEX)
        protocol = schedule.unroll(3 * schedule.period)
        certificate = certify_protocol(protocol)
        assert certificate.valid

    def test_wrong_type_rejected(self):
        with pytest.raises(BoundComputationError):
            certify_protocol("not a protocol")

    def test_random_schedules_certify_at_analytic_lambda(self):
        graph = de_bruijn(2, 3)
        for seed in range(4):
            schedule = random_systolic_schedule(graph, 6, Mode.HALF_DUPLEX, seed=seed)
            certificate = certify_protocol(schedule)
            assert certificate.valid, f"seed {seed}: norm {certificate.norm}"

    def test_certificate_metadata(self):
        schedule = hypercube_dimension_exchange(3, Mode.FULL_DUPLEX)
        certificate = certify_protocol(schedule)
        assert certificate.mode == "full-duplex"
        assert certificate.graph_name == "Q(3)"
        assert certificate.asymptotic_coefficient > 0
