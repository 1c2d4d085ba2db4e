"""Closed-form power allocation, its brute-force grid oracle, and power-unconstrained limits.

The secrecy rate of the interferer-assisted scheme is piecewise smooth in the
power pair (p1, p2), and the partial derivatives have closed-form signs, so
the maximizing allocation over the box [0, p1_max] x [0, p2_max] is given by
a small case analysis: it compares the gains (a, b) with 1 and 1/a, and the
power caps with the levels of ``_branch_points``.  It prescribes one entry of
``_menu``, and on a branch boundary each distinct menu entry is rated once.
``grid_oracle_detailed`` provides an independent exhaustive check,
with the same levels as extra grid lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_budget, _count
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

    A value that overflows or is NaN is ``None`` too; the policy then takes the
    stationary point as unbounded, which the full-power allocation covers.
    """

    p1_star: float | None
    p2_star: float | None
    delta: float | None


def _p2_star(a: float, b: float, d: float | None) -> float | None:
    if d is None or a * b >= 1.0:
        return None
    disc = (a - 1.0) * (a - 1.0) + (1.0 - a * b) * d
    if disc < 0.0:
        return None
    root = ((a - 1.0) + math.sqrt(disc)) / (1.0 - a * b)
    # A negative stationary point means the rate is already decreasing at
    # p2 = 0; no branch uses the candidate there, so flag it inapplicable.
    return root if root >= 0.0 else None


def intermediates(ch: GaussianWthi) -> PolicyIntermediates:
    """Candidate points used by the policy's case analysis."""
    a, b = ch.a, ch.b
    # Constant coefficient of the quadratic d/dp2 == 0 at p1 = p1_max,
    # divided by b:  [a - b + a(1-b) p1_max] / b.
    d = (a / b) * (1.0 + ch.p1_max) - (1.0 + a * ch.p1_max) if b > 0.0 else None
    d = d if d is not None and math.isfinite(d) else None
    return PolicyIntermediates(b - 1.0 if b >= 1.0 else None, _p2_star(a, b, d), d)


def _near(x: float, y: float) -> bool:
    # False when x or y is not finite: then |x - y| is inf or nan
    d = abs(x - y)
    return d <= _BOUNDARY_RTOL * max(1.0, abs(x), abs(y)) and d < math.inf


def _ratio(num: float, den: float) -> float:
    """num/den, or +inf where the denominator is not positive."""
    return num / den if den > 0.0 else math.inf


def _branch_points(ch: GaussianWthi) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The power levels where the policy changes branch: (p1 levels, p2 levels).

    p1: b - 1 (decode-and-cancel), (b-1)/(1-ab), (b-a)/(a(1-b)).  p2: a - 1,
    (a-1)/(1-ab), (1-a)/(ab-1).  A ratio is +inf where its denominator is not
    positive, which routes each such case to the correct limiting branch.
    """
    a, b = ch.a, ch.b
    return ((b - 1.0, _ratio(b - 1.0, 1.0 - a * b), _ratio(b - a, a * (1.0 - b))),
            (a - 1.0, _ratio(a - 1.0, 1.0 - a * b), _ratio(1.0 - a, a * b - 1.0)))


# Keys of ``_menu``, in the order a boundary compares its allocations.
_SILENT, _TRANSMIT, _FULL, _CANCEL, _STATIONARY = range(5)


def _menu(ch: GaussianWthi, inter: PolicyIntermediates) -> tuple[tuple[float, float] | None, ...]:
    """Every (p1, p2) the case analysis can prescribe, by key; ``None`` where inapplicable."""
    pb1, pb2 = ch.p1_max, ch.p2_max
    return ((0.0, 0.0), (pb1, 0.0), (pb1, pb2),
            None if inter.p1_star is None else (min(pb1, inter.p1_star), pb2),
            None if inter.p2_star is None else (pb1, min(pb2, inter.p2_star)))


def _prescribed(ch: GaussianWthi, inter: PolicyIntermediates) -> tuple[int, bool]:
    """Closed-form case analysis on the gains and power caps.

    Returns the ``_menu`` key of the prescribed allocation plus a flag saying
    that a comparison the analysis evaluated sits on (or numerically at) a
    branch boundary, where the caller compares the whole menu.
    """
    a, b = ch.a, ch.b
    pb1, pb2 = ch.p1_max, ch.p2_max
    (cancel1, joint1, harm1), (silent2, noise2, cancel2) = _branch_points(ch)
    # p2_star is None only where it means "unbounded" (b = 0, overflow) on its branches
    stationary = _FULL if inter.p2_star is None else _STATIONARY
    boundary = a >= 1.0 and _near(a, 1.0)

    def gt(x: float, y: float) -> bool:  # x >= y is ``not gt(y, x)``: no operand is nan
        nonlocal boundary
        boundary = boundary or _near(x, y)
        return x > y

    inv_a = _ratio(1.0, a)
    if a >= 1.0:
        if gt(b, 1.0) and gt(pb2, silent2):
            return _CANCEL, boundary
        if gt(inv_a, b) and gt(pb2, noise2):
            return stationary, boundary
        return _SILENT, boundary

    if not gt(inv_a, b) and not gt(cancel1, pb1) and not gt(cancel2, pb2):
        return _CANCEL, boundary
    if gt(1.0, b) and not gt(harm1, pb1):
        return stationary, boundary
    if (not gt(1.0, b) and not gt(b, inv_a) and gt(pb1, joint1)) or (
        gt(b, a) and gt(1.0, b) and gt(harm1, pb1)
    ):
        return _TRANSMIT, boundary
    return _FULL, boundary


def optimal_power(ch: GaussianWthi) -> tuple[PowerAllocation, PolicyIntermediates]:
    """Rate-maximizing power pair from the closed-form case analysis.

    In the interior of a branch the prescription is returned as-is.  On a
    branch boundary each distinct allocation of the menu, the prescribed one
    first, is evaluated once through ``rate_achievable`` and the best is
    returned (the rate is continuous, so boundary assignment cannot lose
    rate); ties break toward lower total power, then lower p1.
    """
    inter = intermediates(ch)
    key, on_boundary = _prescribed(ch, inter)
    menu = _menu(ch, inter)
    best = PowerAllocation(*menu[key])
    if not on_boundary:
        return best, inter

    best_rate = -math.inf
    for pair in filter(None, dict.fromkeys((menu[key], *menu))):  # None marks inapplicable
        cand = PowerAllocation(*pair)
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


def _axis(limit: float, n: int, extras: tuple[float | None, ...]) -> np.ndarray:
    pts = [x for x in extras if x is not None and 0.0 < x < limit]
    return np.unique(np.concatenate([np.linspace(0.0, limit, n), pts]))


def grid_oracle_detailed(ch: GaussianWthi, n1: int, n2: int) -> GridOracleResult:
    """Exhaustive maximization of ``rate_achievable`` over the power box.

    The uniform n1 x n2 grid is augmented with the policy's candidate points
    and branch thresholds as extra grid lines, then refined once (10x finer)
    in a one-cell neighborhood of the argmax.  The reported ``eps_grid`` is
    the maximum rate variation between adjacent cells of the refined window,
    a discretization bound for policy-versus-oracle comparisons.  Ties break
    to the lowest p1, then the lowest p2; n1 * n2 is at most 4,000,000.
    """
    n1, n2 = _count("n1", n1, 2), _count("n2", n2, 2)
    _check_budget(n1 * n2, "oracle grid points")
    p1_levels, p2_levels = _branch_points(ch)
    ax1 = _axis(ch.p1_max, n1, p1_levels)
    ax2 = _axis(ch.p2_max, n2, (*p2_levels, intermediates(ch).p2_star))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
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
    if not (math.isfinite(rate) and math.isfinite(eps)):
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
    log_a, log_b = math.log2(a), math.log2(b)  # finite even where 1/a or a*b is not
    if log_b > max(0.0, -log_a):
        return 0.5 * log_b
    if log_b < min(0.0, -log_a):
        return -0.5 * (log_a + log_b)
    return max(0.0, -0.5 * log_a)
