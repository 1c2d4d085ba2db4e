"""Closed-form power allocation, its brute-force grid oracle, and power-unconstrained limits.

The secrecy rate of the interferer-assisted scheme is piecewise smooth in the
power pair (p1, p2), and the partial derivatives have closed-form signs, so
the maximizing allocation over the box [0, p1_max] x [0, p2_max] is given by
a small case analysis: it compares the gains (a, b) with 1 and 1/a, and the
power caps with the levels of ``_branch_points``.  It prescribes one entry of
``_menu``, and on a branch boundary each distinct menu entry is rated once.
The prescription is the best entry of the menu, so over an axis of channels (the
CLI sweeps) ``_policy_rate`` rates the whole menu with numpy and takes the best
rate, with no case analysis.  ``grid_oracle_detailed`` checks the policy on a
grid with the same levels as grid lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_budget, _count
from .gaussian import GaussianWthi, PowerAllocation, _Math, _rate_array, rate_achievable


@dataclass(frozen=True)
class PolicyIntermediates:
    """Candidate points of the closed-form policy: ``_candidates`` of the channel, with
    ``None`` for each value that is not finite (inapplicable, overflowed or NaN).

    p1_star: transmitter power that lets the receiver decode-and-cancel the
        interferer, b - 1 (defined only for b >= 1).
    p2_star: stationary interferer power of the treat-as-noise rate at full
        transmitter power (defined only for 0 < b, a*b < 1 and a nonnegative
        real root; every policy branch that uses it falls in that range).
    delta: constant term (divided by b) of the stationarity quadratic in p2 at
        p1 = p1_max, [a - b + a(1-b) p1_max] / b; may be negative.

    A ``None`` p2_star reads as unbounded, which the full-power allocation covers.
    """

    p1_star: float | None
    p2_star: float | None
    delta: float | None


def _ratio(num: float, den: float) -> float:
    """num/den, or +inf where the denominator is not positive."""
    return num / den if den > 0.0 else math.inf


def _candidates(a, b, p1_max, xp=_Math, ratio=_ratio) -> tuple:
    """(p1_star, p2_star, delta) of ``PolicyIntermediates``, nan where inapplicable, over
    floats (``xp = _Math``, ``ratio = _ratio``) or arrays (numpy and an array divider).
    No float operation raises: quotients go through ``ratio`` and the root clips the
    discriminant at 0; the masks drop what that lets through."""
    delta = xp.where(b > 0.0, ratio(a, b) * (1.0 + p1_max) - (1.0 + a * p1_max), math.nan)
    disc = (a - 1.0) * (a - 1.0) + (1.0 - a * b) * delta
    root = ratio((a - 1.0) + xp.sqrt(xp.maximum(disc, 0.0)), 1.0 - a * b)
    # A negative stationary point means the rate already falls at p2 = 0, where no branch
    # uses it; a delta that is not finite leaves p2_star masked or not finite.
    p2_star = xp.where((disc >= 0.0) & (a * b < 1.0) & (root >= 0.0), root, math.nan)
    return xp.where(b >= 1.0, b - 1.0, math.nan), p2_star, delta


def intermediates(ch: GaussianWthi) -> PolicyIntermediates:
    """Candidate points used by the policy's case analysis."""
    p1_star, p2_star, delta = _candidates(ch.a, ch.b, ch.p1_max)
    return PolicyIntermediates(p1_star if math.isfinite(p1_star) else None,
                               p2_star if math.isfinite(p2_star) else None,
                               delta if math.isfinite(delta) else None)


def _branch_points(a, b) -> tuple[tuple, tuple]:
    """The power levels where the policy changes branch: (p1 levels, p2 levels).

    p1: b - 1 (decode-and-cancel), (b-1)/(1-ab), (b-a)/(a(1-b)).  p2: a - 1,
    (a-1)/(1-ab), (1-a)/(ab-1).  A ratio is +inf where its denominator is not
    positive, which routes each such case to the correct limiting branch.
    """
    return ((b - 1.0, _ratio(b - 1.0, 1.0 - a * b), _ratio(b - a, a * (1.0 - b))),
            (a - 1.0, _ratio(a - 1.0, 1.0 - a * b), _ratio(1.0 - a, a * b - 1.0)))


# Keys of ``_menu``, in the order a boundary rates its allocations.
_SILENT, _TRANSMIT, _FULL, _CANCEL, _STATIONARY = range(5)


def _menu(pb1, pb2, p1_star, p2_star, least=min) -> tuple:
    """Every (p1, p2) the case analysis can prescribe, by key, over floats or arrays (with
    ``np.fmin``, which reads a nan candidate as unbounded); a ``None`` p1_star makes the
    cancel entry ``None`` (inapplicable), a ``None`` p2_star means unbounded."""
    return ((0.0, 0.0), (pb1, 0.0), (pb1, pb2),
            None if p1_star is None else (least(pb1, p1_star), pb2),
            (pb1, pb2 if p2_star is None else least(pb2, p2_star)))


def _prescribed(a, b, pb1, pb2, gt) -> int:
    """Closed-form case analysis on the gains and power caps: the ``_menu`` key of
    the prescribed allocation.  ``gt(x, y)`` says x > y, so each caller tracks the
    comparisons that sit on a branch boundary."""
    (cancel1, joint1, harm1), (silent2, noise2, cancel2) = _branch_points(a, b)
    inv_a = _ratio(1.0, a)
    if a >= 1.0:
        if gt(b, 1.0) and gt(pb2, silent2):
            return _CANCEL
        if gt(inv_a, b) and gt(pb2, noise2):
            return _STATIONARY
        return _SILENT

    if not gt(inv_a, b) and not gt(cancel1, pb1) and not gt(cancel2, pb2):
        return _CANCEL
    if gt(1.0, b) and not gt(harm1, pb1):
        return _STATIONARY
    if (not gt(1.0, b) and not gt(b, inv_a) and gt(pb1, joint1)) or (
        gt(b, a) and gt(1.0, b) and gt(harm1, pb1)
    ):
        return _TRANSMIT
    return _FULL


def optimal_power(ch: GaussianWthi) -> tuple[PowerAllocation, PolicyIntermediates]:
    """Rate-maximizing power pair from the closed-form case analysis.

    Optimal among single power pairs only: the caps bound average power, so
    time-sharing two pairs over the block can give a higher rate.

    In the interior of a branch the prescription is returned as-is.  On a
    branch boundary each distinct allocation of the menu is rated once
    through ``rate_achievable``, in menu order, and the exact best is
    returned (the rate is continuous, so boundary assignment cannot lose
    rate); equal rates go to the lower p1 + p2, then the lower p1, then the
    lower p2, so the result does not depend on the menu order.
    """
    a, pb1, pb2 = ch.a, ch.p1_max, ch.p2_max
    # a comparison within 1e-9 (relative above 1, absolute below) sits on a branch
    # boundary; every comparison has a finite side, so no two operands are both inf
    on_boundary = a >= 1.0 and math.isclose(a, 1.0, rel_tol=1e-9, abs_tol=1e-9)

    def gt(x: float, y: float) -> bool:  # x >= y is ``not gt(y, x)``: no operand is nan
        nonlocal on_boundary
        on_boundary = on_boundary or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
        return x > y

    inter = intermediates(ch)
    key = _prescribed(a, ch.b, pb1, pb2, gt)
    menu = _menu(pb1, pb2, inter.p1_star, inter.p2_star)
    if not on_boundary:
        return PowerAllocation(*menu[key]), inter
    rates = {pair: rate_achievable(ch, PowerAllocation(*pair))[0]
             for pair in filter(None, dict.fromkeys(menu))}  # None marks inapplicable
    p1, p2 = min(rates, key=lambda pair: (-rates[pair], pair[0] + pair[1], *pair))
    return PowerAllocation(p1, p2), inter


def _policy_rate(a, b, p1_max, p2_max) -> np.ndarray:
    """The rate of ``optimal_power``'s allocation, within rounding, at each point of gains
    and caps that broadcast into one axis: the best ``_rate_array`` of the four non-silent
    ``_menu`` entries (the silent one rates 0, which no rate undercuts).  The policy is
    the best of its menu, and a maximum does not depend on how ties are broken.  Where a
    menu rate overflows, the point rates ``optimal_power``'s own allocation, in axis
    order, so a sweep fails at the point and with the error that the policy does."""
    axis = np.broadcast_arrays(*(np.asarray(x, float) for x in (a, b, p1_max, p2_max)))

    def ratio(num, den):  # ``_ratio`` over arrays
        return np.divide(num, den, out=np.full(den.shape, np.inf), where=den > 0.0)

    with np.errstate(all="ignore"):
        p1_star, p2_star, _ = _candidates(*axis[:3], np, ratio)
        menu = _menu(*axis[2:], p1_star, p2_star, np.fmin)[_TRANSMIT:]
        rates = np.max([_rate_array(a, b, p1, p2, strict=True) for p1, p2 in menu], axis=0)
        for i in np.flatnonzero(np.isnan(rates)).tolist():
            alloc = optimal_power(GaussianWthi(*(x[i] for x in axis)))[0]
            rates[i:i + 1] = _rate_array(*(x[i:i + 1] for x in axis[:2]), alloc.p1, alloc.p2,
                                         strict=True)
    return rates


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridOracleResult:
    alloc: PowerAllocation
    rate: float
    eps_grid: float  # max rate variation between adjacent cells of the refined window


def _axis(limit: float, n: int, extras: tuple[float | None, ...]) -> np.ndarray:
    pts = [x for x in extras if x is not None and 0.0 < x < limit]
    return np.unique(np.concatenate([np.linspace(0.0, limit, n), pts]))


def grid_oracle_detailed(ch: GaussianWthi, n1: int, n2: int) -> GridOracleResult:
    """Best rate over the power box, ``==`` to rating every point of the grid.

    The uniform n1 x n2 grid gains the policy's candidate points and branch
    thresholds as grid lines.  The p1-derivative signs of the rate pieces are
    free of p1: 1 + p2 - a (decode-and-cancel), 1 + p2 - a - ab*p2 (joint
    decoding, treat-as-noise), 1 - a (wiretap); the piece changes only at the
    grid line b - 1, and the rate is 0 at p1 = 0, never below.  So each column
    peaks on row b - 1 (clipped to the box) or p1_max, and a column whose peak
    there trails the best by over a relative 1e-12 is not rated.  A nan or inf
    reaches row p1_max and keeps every column.  An a*p1 that overflows (a > 1)
    zeroes its row, where the rate rises only below b - 1, or from p1 = 0 if
    b < 1: row b - 1 bounds each column, or every edge rate is 0.  ``eps_grid``
    is the largest rate step between adjacent cells of a 10x finer window
    refined once around the argmax, a discretization bound for comparing the
    policy with the oracle.  Ties break to the lowest p1, then the lowest p2;
    n1 * n2 is at most 4,000,000.
    """
    n1, n2 = _count("n1", n1, 2), _count("n2", n2, 2)
    _check_budget(n1 * n2, "oracle grid points")
    p1_levels, p2_levels = _branch_points(ch.a, ch.b)
    ax1 = _axis(ch.p1_max, n1, p1_levels)
    ax2 = _axis(ch.p2_max, n2, (*p2_levels, intermediates(ch).p2_star))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        rows = np.array([min(max(ch.b - 1.0, 0.0), ch.p1_max), ch.p1_max])  # _axis adds b - 1
        edge = _rate_array(ch.a, ch.b, rows[:, None], ax2).max(axis=0)
        top = edge.max()
        cols = np.flatnonzero(~(edge + 1e-12 * (1.0 + abs(top)) < top))
        rates = _rate_array(ch.a, ch.b, ax1[:, None], ax2[cols])
        i, k = divmod(int(np.argmax(rates)), cols.size)
        f1, f2 = (np.linspace(ax[max(m - 1, 0)], ax[min(m + 1, ax.size - 1)], 21)
                  for ax, m in ((ax1, i), (ax2, cols[k])))
        fine = _rate_array(ch.a, ch.b, f1[:, None], f2)
        fi, fj = divmod(int(np.argmax(fine)), 21)
        eps = float(max(abs(fine[1:] - fine[:-1]).max(), abs(fine[:, 1:] - fine[:, :-1]).max()))
    p1, p2, rate = ((f1[fi], f2[fj], fine[fi, fj]) if fine[fi, fj] > rates[i, k]
                    else (ax1[i], ax2[cols[k]], rates[i, k]))
    if not (math.isfinite(rate) and math.isfinite(eps)):
        raise DomainError(f"the rate overflows on the power grid of {ch}")
    return GridOracleResult(alloc=PowerAllocation(p1, p2), rate=float(rate), eps_grid=eps)


def asymptotic_rate(a: float, b: float) -> float:
    """Power-unconstrained secrecy rate: the limit as both power caps grow.

    (1/2)log2(b) when the interferer-receiver channel dominates
    (b > max(1, 1/a)); (1/2)log2(1/(a*b)) when both cross gains are weak
    (b < min(1, 1/a)); otherwise the plain wiretap limit (1/2)[log2(1/a)]+.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"gains must be finite and > 0, got a={a!r}, b={b!r}")
    log_a, log_b = math.log2(a), math.log2(b)  # finite even where 1/a or a*b is not
    if log_b > max(0.0, -log_a):
        return 0.5 * log_b
    if log_b < min(0.0, -log_a):
        return -0.5 * (log_a + log_b)
    return max(0.0, -0.5 * log_a)
