"""Certified lower bounds for concrete protocols (Theorem 4.1 applied numerically).

Theorem 4.1 states: if ``⟨A₁, …, A_t⟩`` is an s-systolic gossip protocol for
an ``n``-vertex digraph and ``λ ∈ (0, 1)`` satisfies ``‖M(λ)‖ ≤ 1`` for the
protocol's delay matrix, then ``t² ≥ λ^t·2(n - 1)``.  The contrapositive
yields a *certificate*: given a concrete systolic schedule, compute
``‖M(λ)‖`` numerically, check it does not exceed 1, and report the smallest
``t`` compatible with the inequality — a lower bound on the length of any
gossip protocol that uses this schedule.

The norm is increasing in ``λ`` and the resulting bound improves as ``λ``
grows, so :func:`certify_protocol` can optionally binary-search the largest
``λ`` that keeps the norm at 1, producing the strongest certificate the
schedule admits.  The search stops as soon as the bracket's midpoint rounds
to one of its ends: no later step could move the bracket, so stopping early
returns the same ``λ`` the full iteration budget would.

Every step of that search is one :meth:`~repro.core.delay.DelayDigraph.norm`
evaluation, which indexes a power table with the digraph's precompiled,
deduplicated exponent patterns, stacked by shape, and takes one batched
SVD per pattern shape (see :mod:`repro.core.delay`); the analytic ``λ*``
comes from the scipy-free Brent solver of :mod:`repro.core.roots`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.delay import DelayDigraph
from repro.core.general_bound import theorem41_rounds
from repro.core.polynomials import (
    full_duplex_norm_bound,
    half_duplex_norm_bound,
)
from repro.core.roots import solve_unit_root
from repro.exceptions import BoundComputationError
from repro.gossip.model import GossipProtocol, Mode, SystolicSchedule

__all__ = ["LowerBoundCertificate", "certify_protocol", "analytic_lambda_for"]

#: Norm values up to this much above 1 are treated as "equal to 1" (the root
#: of the analytic bound makes the norm exactly 1 in exact arithmetic).
NORM_SLACK = 1e-9


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Outcome of certifying a concrete schedule.

    Attributes
    ----------
    protocol_name, graph_name, n, mode, period:
        Identification of the certified schedule.
    lam:
        The ``λ`` at which the delay-matrix norm was evaluated.
    norm:
        The measured ``‖M(λ)‖``.
    valid:
        ``True`` iff ``norm ≤ 1`` (within :data:`NORM_SLACK`), i.e. the
        certificate applies.
    certified_rounds:
        Smallest ``t`` with ``t² ≥ λ^t·2(n-1)`` — the certified lower bound
        on the gossip time (meaningful only when ``valid``).
    asymptotic_coefficient:
        ``1/log₂(1/λ)``, the leading constant the certificate implies.
    """

    protocol_name: str
    graph_name: str
    n: int
    mode: str
    period: int
    lam: float
    norm: float
    valid: bool
    certified_rounds: int
    asymptotic_coefficient: float


def analytic_lambda_for(mode: Mode, period: int) -> float:
    """The analytic root ``λ*`` of the norm-bound equation for a mode and period.

    This is the natural λ at which to evaluate a concrete protocol's delay
    matrix: Lemma 4.3 (resp. Lemma 6.1) guarantees ``‖M(λ*)‖ ≤ 1`` for every
    protocol of that period, so the certificate is always expected to
    validate there.
    """
    if mode is Mode.FULL_DUPLEX:
        if period < 3:
            raise BoundComputationError(
                f"full-duplex certificates need period >= 3, got {period}"
            )
        return solve_unit_root(lambda lam: full_duplex_norm_bound(period, lam))
    if period <= 2:
        raise BoundComputationError(
            f"directed/half-duplex certificates need period >= 3, got {period}"
        )
    return solve_unit_root(lambda lam: half_duplex_norm_bound(period, lam))


def _as_protocol(
    protocol_or_schedule: GossipProtocol | SystolicSchedule,
    unroll_periods: int,
) -> tuple[GossipProtocol, int]:
    if isinstance(protocol_or_schedule, SystolicSchedule):
        schedule = protocol_or_schedule
        length = max(1, unroll_periods) * schedule.period
        return schedule.unroll(length), schedule.period
    if isinstance(protocol_or_schedule, GossipProtocol):
        protocol = protocol_or_schedule
        return protocol, protocol.minimal_period()
    raise BoundComputationError(
        f"expected GossipProtocol or SystolicSchedule, got {type(protocol_or_schedule)!r}"
    )


def certify_protocol(
    protocol_or_schedule: GossipProtocol | SystolicSchedule,
    *,
    lam: float | None = None,
    unroll_periods: int = 3,
    optimize_lambda: bool = False,
    lambda_iterations: int = 60,
) -> LowerBoundCertificate:
    """Build a Theorem 4.1 certificate for a concrete schedule or protocol.

    Parameters
    ----------
    protocol_or_schedule:
        A :class:`~repro.gossip.model.SystolicSchedule` (it is unrolled over
        ``unroll_periods`` periods to build the delay digraph — the local
        block norms stabilise after a couple of periods) or an explicit
        :class:`~repro.gossip.model.GossipProtocol`.
    lam:
        Evaluate the norm at this ``λ``.  Defaults to the analytic root for
        the schedule's mode and period (see :func:`analytic_lambda_for`).
    optimize_lambda:
        When true, binary-search the largest ``λ ∈ (0, 1)`` with
        ``‖M(λ)‖ ≤ 1``; concrete schedules are usually strictly better than
        the worst case of Lemma 4.3, so this yields stronger certificates.
        Cannot be combined with an explicit ``lam``.
    lambda_iterations:
        Upper bound on the bisection steps; the search ends earlier once
        the bracket can no longer shrink.

    Periods 1 and 2 are rejected in every mode: Theorem 4.1 is stated for
    ``s ≥ 3`` (the paper's "``s ≤ 2``" remark), and evaluating the delay
    matrix anyway can emit bounds that *exceed* the true gossip time (e.g.
    the 2-systolic full-duplex schedule on ``C(6)`` gossips in 3 rounds
    while the naive certificate claims 4).
    """
    if lam is not None and optimize_lambda:
        raise BoundComputationError(
            f"certify_protocol got both lam={lam!r} and optimize_lambda=True; "
            "the λ search would discard the explicit λ, so pass only one"
        )
    protocol, period = _as_protocol(protocol_or_schedule, unroll_periods)
    if period < 3:
        raise BoundComputationError(
            f"Theorem 4.1 certificates require period >= 3, got {period} "
            "(the theorem does not cover s <= 2)"
        )
    n = protocol.graph.n
    delay = DelayDigraph(protocol, period=period)

    if lam is None and not optimize_lambda:
        lam = analytic_lambda_for(protocol.mode, period)

    if optimize_lambda:
        lo, hi = 1e-9, 1.0 - 1e-9
        if delay.norm(hi) <= 1.0 + NORM_SLACK:
            lam = hi
        else:
            for _ in range(lambda_iterations):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if delay.norm(mid) <= 1.0:
                    lo = mid
                else:
                    hi = mid
            lam = lo
    assert lam is not None
    if not 0.0 < lam < 1.0:
        raise BoundComputationError(f"λ must lie in (0, 1), got {lam!r}")

    norm_value = delay.norm(lam)
    valid = norm_value <= 1.0 + NORM_SLACK
    certified = theorem41_rounds(n, lam) if valid else 0
    coefficient = 1.0 / math.log2(1.0 / lam)
    return LowerBoundCertificate(
        protocol_name=protocol.name,
        graph_name=protocol.graph.name,
        n=n,
        mode=protocol.mode.value,
        period=period,
        lam=float(lam),
        norm=float(norm_value),
        valid=bool(valid),
        certified_rounds=int(certified),
        asymptotic_coefficient=float(coefficient),
    )
