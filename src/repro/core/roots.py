"""Root solving for the characteristic equations of the lower bounds.

Every lower bound in the paper reduces to finding the unique ``λ ∈ (0, 1)``
with ``f(λ) = 1`` for a strictly increasing ``f`` (the norm-bound function of
the relevant mode and period).  :func:`solve_unit_root` brackets the root on
``(0, 1)`` and runs an in-repo port of Brent's method
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973) that
follows the iteration of ``scipy.optimize.brentq`` operation for operation,
so it returns the same float for the same tolerances.  Root solving
therefore never imports scipy, which spares every fresh process that
certifies a schedule the cost of loading it.

:func:`bisection_root` is an independent implementation kept as the test
oracle for the Brent port.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import BoundComputationError

__all__ = ["solve_unit_root", "bisection_root"]

#: Default absolute tolerance on λ. The paper quotes e(s) to four decimals;
#: 1e-12 in λ is far more than enough for that.
DEFAULT_TOLERANCE = 1e-12

#: Relative tolerance on λ: four machine epsilons, the smallest value
#: ``scipy.optimize.brentq`` accepts.
RELATIVE_TOLERANCE = 8.881784197001252e-16

_UPPER_LIMIT = 1.0 - 1e-13

#: Iteration cap of the Brent port, ``scipy.optimize.brentq``'s ``maxiter``.
_BRENT_MAX_ITERATIONS = 100


def bisection_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = 200,
) -> float:
    """Plain bisection for ``f(λ) = 0`` on a sign-changing bracket ``[lo, hi]``."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BoundComputationError(
            f"bisection bracket [{lo}, {hi}] does not change sign: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or (hi - lo) < tolerance:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _brent_root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Brent's method for ``f(x) = 0`` on a sign-changing bracket ``[a, b]``.

    The root ``x0`` returned satisfies ``|x - x0| ≤ xtol + rtol·|x0|`` for the
    exact root ``x``, with ``rtol`` = :data:`RELATIVE_TOLERANCE`.  Each step
    takes the interpolation step (secant, or three-point extrapolation when
    the contrapoint differs from the previous iterate) when it is short
    enough and bisects otherwise; the arithmetic, down to the order of the
    floating-point operations, is that of ``scipy.optimize.brentq``.
    """
    x_pre, x_cur = a, b
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise BoundComputationError(
            f"Brent bracket [{a}, {b}] does not change sign: f(a)={f_pre}, f(b)={f_cur}"
        )
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_MAX_ITERATIONS):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur

        delta = (xtol + RELATIVE_TOLERANCE * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur

        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant step
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # three-point extrapolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try  # good short step
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis

        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0 else -delta
        f_cur = f(x_cur)
    raise BoundComputationError(
        f"Brent's method did not converge in {_BRENT_MAX_ITERATIONS} iterations on [{a}, {b}]"
    )


def solve_unit_root(
    norm_bound: Callable[[float], float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> float:
    """The unique ``λ ∈ (0, 1)`` with ``norm_bound(λ) = 1``.

    ``norm_bound`` must be continuous and strictly increasing on ``(0, 1)``
    with ``norm_bound(0⁺) < 1`` and ``norm_bound(1⁻) > 1`` — true of every
    norm-bound function in the paper for ``s ≥ 3`` (half-duplex) and
    ``s ≥ 2`` (full-duplex), and of both non-systolic limits.
    """
    lo = 1e-15
    hi = _UPPER_LIMIT

    def g(lam: float) -> float:
        return norm_bound(lam) - 1.0

    if g(lo) >= 0.0:
        raise BoundComputationError(
            f"norm bound is already >= 1 at λ={lo}: the equation f(λ)=1 has no root in (0,1)"
        )
    if g(hi) <= 0.0:
        raise BoundComputationError(
            "norm bound stays below 1 on (0,1): the equation f(λ)=1 has no root in (0,1). "
            "This happens for degenerate periods (e.g. the half-duplex bound with s <= 2)."
        )

    root = _brent_root(g, lo, hi, tolerance)
    if not 0.0 < root < 1.0:
        raise BoundComputationError(f"root solver returned λ={root} outside (0, 1)")
    return root
