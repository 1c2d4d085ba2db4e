"""Closed-form power allocation, its brute-force grid oracle, and power-unconstrained limits.

The secrecy rate of the interferer-assisted scheme is piecewise smooth in the
power pair (p1, p2), and the partial derivatives have closed-form signs, so
the maximizing allocation over the box [0, p1_max] x [0, p2_max] is given by
a small case analysis on the gains (a, b).  ``grid_oracle_detailed`` provides
an independent exhaustive check of that case analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian import GaussianWthi, PowerAllocation, _rate_achievable_grid, rate_achievable

# Relative tolerance used to detect that a channel sits exactly on a branch
# boundary of the policy, where adjacent candidate allocations are compared.
_BOUNDARY_RTOL = 1e-9


@dataclass(frozen=True)
class PolicyIntermediates:
    """Candidate points of the closed-form policy; ``None`` marks inapplicable.

    p1_star: transmitter power that lets the receiver decode-and-cancel the
        interferer, b - 1 (defined only for b >= 1).
    p2_star: stationary interferer power of the treat-as-noise rate at full
        transmitter power (defined only for 0 < b, a*b < 1 and a nonnegative
        real root; every policy branch that uses it falls in that range).
    delta: constant term (divided by b) of the stationarity quadratic in p2;
        may be negative.
    """

    p1_star: float | None
    p2_star: float | None
    delta: float | None


def _delta(ch: GaussianWthi) -> float | None:
    # Constant coefficient of the quadratic d/dp2 == 0 at p1 = p1_max,
    # divided by b:  [a - b + a(1-b) p1_max] / b.
    if ch.b <= 0.0:
        return None
    return (ch.a / ch.b) * (1.0 + ch.p1_max) - (1.0 + ch.a * ch.p1_max)


def _p2_star(ch: GaussianWthi) -> float | None:
    a, b = ch.a, ch.b
    d = _delta(ch)
    if d is None or a * b >= 1.0:
        return None
    disc = (a - 1.0) ** 2 + (1.0 - a * b) * d
    if disc < 0.0:
        return None
    root = ((a - 1.0) + math.sqrt(disc)) / (1.0 - a * b)
    # A negative stationary point means the rate is already decreasing at
    # p2 = 0; no branch uses the candidate there, so flag it inapplicable.
    return root if root >= 0.0 else None


def intermediates(ch: GaussianWthi) -> PolicyIntermediates:
    """Candidate points used by the policy's case analysis."""
    p1_star = ch.b - 1.0 if ch.b >= 1.0 else None
    return PolicyIntermediates(p1_star=p1_star, p2_star=_p2_star(ch), delta=_delta(ch))


def _near(x: float, y: float) -> bool:
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= _BOUNDARY_RTOL * max(1.0, abs(x), abs(y))


def _prescribed(ch: GaussianWthi, inter: PolicyIntermediates) -> tuple[PowerAllocation, bool]:
    """Closed-form case analysis on the gains and power caps.

    Returns the prescribed allocation plus a flag saying the channel sits on
    (or numerically at) a branch boundary, in which case the caller compares
    the small candidate menu through the rate function.  Thresholds that
    involve a division by zero are taken as +inf, which routes each such case
    to the correct limiting branch.
    """
    a, b = ch.a, ch.b
    pb1, pb2 = ch.p1_max, ch.p2_max
    p2s = inter.p2_star  # None only means "unbounded" (b = 0) on branches that use it

    def cap2(x: float | None) -> float:
        return pb2 if x is None else min(pb2, x)

    boundary = False

    def gt(x: float, y: float) -> bool:
        nonlocal boundary
        if _near(x, y):
            boundary = True
        return x > y

    def ge(x: float, y: float) -> bool:
        nonlocal boundary
        if _near(x, y):
            boundary = True
        return x >= y

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0.0 else math.inf

    if a >= 1.0:
        if _near(a, 1.0):
            boundary = True
        if gt(b, 1.0) and gt(pb2, a - 1.0):
            alloc = PowerAllocation(min(pb1, b - 1.0), pb2)
        elif not ge(b, ratio(1.0, a)) and gt(pb2, ratio(a - 1.0, 1.0 - a * b)):
            alloc = PowerAllocation(pb1, cap2(p2s))
        else:
            alloc = PowerAllocation(0.0, 0.0)
        return alloc, boundary

    inv_a = ratio(1.0, a)
    if ge(b, inv_a) and ge(pb1, b - 1.0) and ge(pb2, ratio(1.0 - a, a * b - 1.0)):
        alloc = PowerAllocation(b - 1.0, pb2)
    elif not ge(b, 1.0) and ge(pb1, ratio(b - a, a * (1.0 - b))):
        alloc = PowerAllocation(pb1, cap2(p2s))
    elif (ge(b, 1.0) and not gt(b, inv_a) and gt(pb1, ratio(b - 1.0, 1.0 - a * b))) or (
        gt(b, a) and not ge(b, 1.0) and not ge(pb1, ratio(b - a, a * (1.0 - b)))
    ):
        alloc = PowerAllocation(pb1, 0.0)
    else:
        alloc = PowerAllocation(pb1, pb2)
    return alloc, boundary


def _candidate_menu(ch: GaussianWthi, inter: PolicyIntermediates) -> list[PowerAllocation]:
    pb1, pb2 = ch.p1_max, ch.p2_max
    cands = [
        PowerAllocation(0.0, 0.0),
        PowerAllocation(pb1, 0.0),
        PowerAllocation(pb1, pb2),
    ]
    if inter.p1_star is not None:
        cands.append(PowerAllocation(min(pb1, max(0.0, inter.p1_star)), pb2))
    if inter.p2_star is not None:
        cands.append(PowerAllocation(pb1, min(pb2, max(0.0, inter.p2_star))))
    return cands


def optimal_power(ch: GaussianWthi) -> tuple[PowerAllocation, PolicyIntermediates]:
    """Rate-maximizing power pair from the closed-form case analysis.

    In the interior of a branch the prescription is returned as-is.  On a
    branch boundary the adjacent candidate allocations are evaluated through
    ``rate_achievable`` and the best is returned (the rate is continuous, so
    boundary assignment cannot lose rate); ties break toward lower total
    power, then lower p1.
    """
    inter = intermediates(ch)
    alloc, on_boundary = _prescribed(ch, inter)
    if not on_boundary:
        return alloc, inter

    best = alloc
    best_rate, _ = rate_achievable(ch, alloc)
    for cand in _candidate_menu(ch, inter):
        r, _ = rate_achievable(ch, cand)
        better = r > best_rate + 1e-15
        tied = abs(r - best_rate) <= 1e-15
        smaller = (cand.p1 + cand.p2, cand.p1) < (best.p1 + best.p2, best.p1)
        if better or (tied and smaller):
            best, best_rate = cand, max(r, best_rate)
    return best, inter


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridOracleResult:
    alloc: PowerAllocation
    rate: float
    eps_grid: float  # max rate variation between adjacent cells of the refined window


def _axis(limit: float, n: int, extras: list[float]) -> np.ndarray:
    pts = list(np.linspace(0.0, limit, n))
    pts.extend(x for x in extras if math.isfinite(x) and 0.0 < x < limit)
    return np.unique(np.asarray(pts, dtype=float))


def grid_oracle_detailed(ch: GaussianWthi, n1: int, n2: int) -> GridOracleResult:
    """Exhaustive maximization of ``rate_achievable`` over the power box.

    The uniform n1 x n2 grid is augmented with the policy's candidate points
    and branch thresholds as extra grid lines, then refined once (10x finer)
    in a one-cell neighborhood of the argmax.  The reported ``eps_grid`` is
    the maximum rate variation between adjacent cells of the refined window,
    a discretization bound for policy-versus-oracle comparisons.  Ties break
    to the lowest p1, then the lowest p2.
    """
    if n1 < 2 or n2 < 2:
        raise DomainError("grid counts must be >= 2")
    a, b = ch.a, ch.b
    inter = intermediates(ch)
    extras1 = [x for x in (inter.p1_star,) if x is not None]
    extras2 = [x for x in (inter.p2_star, a - 1.0) if x is not None]
    if a * b < 1.0:
        extras1.append((b - 1.0) / (1.0 - a * b))
        extras2.append((a - 1.0) / (1.0 - a * b))
    if a > 0.0 and b < 1.0:
        extras1.append((b - a) / (a * (1.0 - b)))
    if a * b > 1.0:
        extras2.append((1.0 - a) / (a * b - 1.0))

    ax1 = _axis(ch.p1_max, n1, extras1)
    ax2 = _axis(ch.p2_max, n2, extras2)
    rates = _rate_achievable_grid(ch, ax1, ax2)
    i, j = np.unravel_index(int(np.argmax(rates)), rates.shape)

    # One local refinement pass around the coarse argmax.
    lo1, hi1 = ax1[max(i - 1, 0)], ax1[min(i + 1, ax1.size - 1)]
    lo2, hi2 = ax2[max(j - 1, 0)], ax2[min(j + 1, ax2.size - 1)]
    f1 = np.linspace(lo1, hi1, 21) if hi1 > lo1 else np.asarray([lo1])
    f2 = np.linspace(lo2, hi2, 21) if hi2 > lo2 else np.asarray([lo2])
    fine = _rate_achievable_grid(ch, f1, f2)
    fi, fj = np.unravel_index(int(np.argmax(fine)), fine.shape)

    eps = max((float(np.max(np.abs(np.diff(fine, axis=k)))) for k in (0, 1)
               if fine.shape[k] > 1), default=0.0)

    if fine[fi, fj] > rates[i, j]:
        best = PowerAllocation(float(f1[fi]), float(f2[fj]))
        rate = float(fine[fi, fj])
    else:
        best = PowerAllocation(float(ax1[i]), float(ax2[j]))
        rate = float(rates[i, j])
    if not math.isfinite(rate):
        raise DomainError(f"the rate overflows on the power grid of {ch}")
    return GridOracleResult(alloc=best, rate=rate, eps_grid=eps)


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
    if b > max(1.0, 1.0 / a):
        return 0.5 * math.log2(b)
    if b < min(1.0, 1.0 / a):
        return 0.5 * math.log2(1.0 / (a * b))
    return max(0.0, 0.5 * math.log2(1.0 / a))


__all__ = [
    "GridOracleResult",
    "PolicyIntermediates",
    "asymptotic_rate",
    "grid_oracle_detailed",
    "intermediates",
    "optimal_power",
]
