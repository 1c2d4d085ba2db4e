"""Independent oracles used to derive or verify expected values in the tests.

These deliberately avoid the code paths they check: rates are recomputed with
arbitrary-precision logarithms, the fixed-input secrecy optimizer is checked
against a dense two-dimensional scan built directly from the decodable-region
inequalities, and the closed-form Sato minimizer is checked against the Sato
objective itself, evaluated at one correlation or on a plain rho grid.
Mutual informations are recomputed from joint entropies of the full joint
pmf, where the library takes differences of conditional entropies (for the
DMC Sato objective, entropies of p(y1, y2) and constants of the coupling).
Simulator pair scores are summed symbol by symbol with ``math.fsum``, where
the library contracts joint-type counts.  A second reference forms the
library's count-based sum from integer counts per table value, where the
library counts with float32 products, so that the scores are checked bit for
bit.  The eavesdropper's posterior entropy is summed per trial with
``math.fsum``, where the library batches a chunk of trials.  The decodable-rate regions are the docstring inequalities
evaluated in exact rational arithmetic.  Two references share code on
purpose, so that each checks only a pruning whose result must be ``==`` to
it: the exhaustive Sato coupling scan reads the library's objective
(``dmc._sato_blocks``) at every (law, coupling) pair, and the exhaustive
Gaussian grid oracle rates every point of the library's power grid with
``gaussian._rate_array``.  A third, the nine-candidate breakpoint
search, reads the library's decodable-rate forms (``dmc._decodable``), so
that it checks only the library's choice of three dummy-rate candidates.
The time-sharing envelope of a rate curve tries every pair of its points.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
from mpmath import mp

from wthi import dmc, power
from wthi.dmc import DmcWthi, MutualInfoProfile
from wthi.errors import DomainError
from wthi.gaussian import GaussianWthi, PowerAllocation, _rate_array

mp.dps = 50


def half_log2(numerator: float, denominator: float = 1.0) -> float:
    """(1/2) * log2(numerator / denominator) at 50 decimal digits, rounded to float."""
    return float(mp.log(mp.mpf(numerator) / mp.mpf(denominator), 2) / 2)


def rate_achievable_reference(a: float, b: float, p1: float, p2: float) -> float:
    """Rate of ``rate_achievable`` at 30 decimal digits, from the three-regime formula.

    The interferer-assisted rate is C(p1) - C(a*p1/(1+p2)) when the receiver
    decodes and cancels the interference (b >= 1 + p1), C(p1 + b*p2) -
    C(a*p1 + p2) when it decodes jointly (1 <= b < 1 + p1) and
    C(p1/(1+b*p2)) - C(a*p1/(1+p2)) when it treats it as noise (b < 1); the
    achievable rate is the best of it, the wiretap rate C(p1) - C(a*p1) and 0.
    """
    with mp.workdps(30):
        a, b, p1, p2 = (mp.mpf(x) for x in (a, b, p1, p2))

        def c(x):
            return mp.log1p(x) / (2 * mp.log(2))

        if b >= 1 + p1:
            assisted = c(p1) - c(a * p1 / (1 + p2))
        elif b >= 1:
            assisted = c(p1 + b * p2) - c(a * p1 + p2)
        else:
            assisted = c(p1 / (1 + b * p2)) - c(a * p1 / (1 + p2))
        return float(max(assisted, c(p1) - c(a * p1), 0))


def sweep_tolerance(a: float, b: float, p1_max: float, p2_max: float) -> float:
    """How far a sweep's cell, evaluated over the axis with numpy, may sit from the scalar
    function at its row's channel, evaluated with libm (whose log1p, log and sqrt may differ
    by an ulp): 8 ulps of the largest capacity the formulas take, C((1+a)p1 + (1+b)p2)."""
    return 8 * 2.0**-52 * (1.0 + 0.5 * math.log2(1.0 + (1.0 + a) * p1_max + (1.0 + b) * p2_max))


def grid_oracle_reference(ch: GaussianWthi, n1: int, n2: int) -> power.GridOracleResult:
    """``power.grid_oracle_detailed`` as an exhaustive scan: every grid point is rated.

    The same axes, ``_rate_array`` over the whole n1 x n2 grid, the
    first flat ``np.argmax``, the same 21 x 21 refinement window and the same
    raise, so the column-pruned oracle must return ``==`` results and raise
    ``DomainError`` on the same channels.
    """
    p1_levels, p2_levels = power._branch_points(ch.a, ch.b)
    ax1 = power._axis(ch.p1_max, n1, p1_levels)
    ax2 = power._axis(ch.p2_max, n2, (*p2_levels, power.intermediates(ch).p2_star))
    with np.errstate(over="ignore", invalid="ignore"):
        rates = _rate_array(ch.a, ch.b, ax1[:, None], ax2)
        i, j = np.unravel_index(int(np.argmax(rates)), rates.shape)
        lo1, hi1 = ax1[max(i - 1, 0)], ax1[min(i + 1, ax1.size - 1)]
        lo2, hi2 = ax2[max(j - 1, 0)], ax2[min(j + 1, ax2.size - 1)]
        f1 = np.linspace(lo1, hi1, 21) if hi1 > lo1 else np.asarray([lo1])
        f2 = np.linspace(lo2, hi2, 21) if hi2 > lo2 else np.asarray([lo2])
        fine = _rate_array(ch.a, ch.b, f1[:, None], f2)
        fi, fj = np.unravel_index(int(np.argmax(fine)), fine.shape)
        eps = max((float(np.max(np.abs(np.diff(fine, axis=k)))) for k in (0, 1)
                   if fine.shape[k] > 1), default=0.0)
    if fine[fi, fj] > rates[i, j]:
        best, rate = PowerAllocation(float(f1[fi]), float(f2[fj])), float(fine[fi, fj])
    else:
        best, rate = PowerAllocation(float(ax1[i]), float(ax2[j])), float(rates[i, j])
    if not (math.isfinite(rate) and math.isfinite(eps)):
        raise DomainError(f"the rate overflows on the power grid of {ch}")
    return power.GridOracleResult(alloc=best, rate=rate, eps_grid=eps)


def concave_envelope(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The upper concave envelope of the points (xs, ys), xs ascending, at each x.

    At x_k it is the best chord value over every pair x_i <= x_k <= x_j, the
    pair i = j = k included: the rate of time-sharing the two points' codes
    with average x_k.  In one dimension two points suffice (Caratheodory), so
    trying every pair is the envelope, with no hull construction to get wrong.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    i, j = np.triu_indices(xs.size)
    out = np.empty_like(ys)
    for k, x in enumerate(xs):
        pair = (xs[i] <= x) & (x <= xs[j])
        lo, hi = i[pair], j[pair]
        span = xs[hi] - xs[lo]
        weight = np.divide(xs[hi] - x, span, out=np.ones_like(span), where=span > 0.0)
        out[k] = (weight * ys[lo] + (1.0 - weight) * ys[hi]).max()
    return out


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy of a pmf (any shape), in bits, with 0*log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def mutual_information_bits(joint: np.ndarray) -> float:
    """I(X;Y) from a joint pmf with X on axis 0 and Y on axis 1, in bits."""
    joint = np.asarray(joint, dtype=float)
    hx, hy = entropy_bits(joint.sum(axis=1)), entropy_bits(joint.sum(axis=0))
    return hx + hy - entropy_bits(joint)


def joint_entropy_profile(transition: np.ndarray, px1: np.ndarray, px2: np.ndarray
                          ) -> list[float]:
    """The eight ``MutualInfoProfile`` fields, in field order, from joint entropies.

    With H_S the entropy of the marginal of the joint pmf on the variables S:
    I(X1;Y|X2) = H_{X1X2} + H_{X2Y} - H_{X1X2Y} - H_{X2}, symmetrically for
    I(X2;Y|X1), I(X1,X2;Y) = H_{X1X2} + H_Y - H_{X1X2Y} and
    I(X1;Y) = H_{X1} + H_Y - H_{X1Y}.
    """
    joint = px1[:, None, None, None] * px2[None, :, None, None] * np.asarray(transition)
    out = []
    for other_output in (3, 2):
        j = joint.sum(axis=other_output)  # (x1, x2, y)
        h = entropy_bits
        h12y, h12 = h(j), h(j.sum(axis=2))
        h1, h2, hy = h(j.sum(axis=(1, 2))), h(j.sum(axis=(0, 2))), h(j.sum(axis=(0, 1)))
        h1y, h2y = h(j.sum(axis=1)), h(j.sum(axis=0))
        out += [h12 + h2y - h12y - h2, h12 + h1y - h12y - h1, h12 + hy - h12y, h1 + hy - h1y]
    return out


def sato_inner_reference(coupling: np.ndarray, px1: np.ndarray, px2: np.ndarray) -> float:
    """I(X1,X2; Y1~ | Y2~) of a coupling q[x1][x2][y1][y2] under the law px1 x px2.

    Builds the joint pmf of (X, Y1~, Y2~) with X = (X1, X2), its alphabet
    sizes read from the coupling's shape, and takes I(X; Y1~, Y2~) - I(X; Y2~),
    each from joint entropies.
    """
    nx1, nx2, ny1, ny2 = coupling.shape
    joint = (px1[:, None, None, None] * px2[None, :, None, None] * coupling).reshape(
        nx1 * nx2, ny1, ny2)
    return (mutual_information_bits(joint.reshape(nx1 * nx2, ny1 * ny2))
            - mutual_information_bits(joint.sum(axis=1)))


def sato_coupling_scan(ch: DmcWthi, coupling_grid: int, input_grid: int) -> tuple[int, float]:
    """Index and value of the least inner grid max over every coupling of the grid.

    The exhaustive coarse scan of ``dmc_sato_bound``: every coupling at every
    law through ``dmc._sato_blocks``, then ``np.argmin``, so ties go to the
    first coupling in grid order.  The couplings are built from their own
    parameter rows (last parameter fastest), not gathered from a cell table.
    """
    laws = dmc._sato_laws(ch, *(dmc.simplex_grid(n, input_grid) for n in (ch.nx1, ch.nx2)))
    shape = (coupling_grid,) * (ch.nx1 * ch.nx2)  # one grid digit per input cell
    digits = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=-1)
    q = dmc._coupling_tensors(ch, np.linspace(0.0, 1.0, coupling_grid)[digits])
    inner_max = np.concatenate(list(dmc._sato_blocks(q, *laws))).max(axis=0)
    k = int(np.argmin(inner_max))
    return k, float(inner_max[k])


def breakpoint_reference(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The earlier ``dmc._breakpoint_search``, which scored nine dummy-rate candidates.

    Besides r2 = 0 and the four decoding thresholds it scores the four
    crossings of a constant piece of one form with the sloped piece of the
    other, and drops negative candidates with an inf sentinel.  On the
    profile of an input law the library's three candidates must give the
    same rates, dummy rates and redundancy rates within the 1e-15 tie window.
    """
    a1, a2, a12, a1m, b1, b2, b12, b1m = table.T[..., None]  # (n, 1) columns
    # 0, the breakpoints of both forms, and the four crossings of a constant
    # piece of one form with the sloped piece of the other
    r2 = np.concatenate([np.zeros_like(a1), a2, b2, a12 - a1, b12 - b1,
                         b12 - a1, b12 - a1m, a12 - b1, a12 - b1m], axis=1)
    r2 = np.sort(np.where(r2 >= 0.0, r2, np.inf), axis=1)  # negatives dropped last
    cap, required = dmc._decodable(table, r2)
    r1s = np.where(np.isinf(r2), -np.inf, cap - required)
    best, pick = np.full(len(table), -np.inf), np.zeros(len(table), dtype=int)
    for k in range(r2.shape[1]):
        wins = r1s[:, k] > best + 1e-15
        best, pick = np.where(wins, r1s[:, k], best), np.where(wins, k, pick)
    rows = np.arange(len(table))
    r1d = required[rows, pick]
    return np.where(best > 0.0, best, 0.0), r2[rows, pick], np.where(r1d > 0.0, r1d, 0.0)


def scan_secrecy_rate(prof: MutualInfoProfile, n1: int = 2000, n2: int = 2000
                      ) -> tuple[float, float]:
    """Dense (r1, r2) scan of the double-binning secrecy rate.

    Re-derives feasibility from the decodable-region inequalities (receiver
    union taken as published, eavesdropper regions closed) rather than from
    the breakpoint enumeration.  Returns (best rate, grid resolution bound),
    the latter being the sum of the two grid steps (the objective is
    1-Lipschitz in each rate).
    """
    a1, a2 = prof.i_x1_y1_given_x2, prof.i_x2_y1_given_x1
    a12, a1m = prof.i_x1x2_y1, prof.i_x1_y1
    b1, b2 = prof.i_x1_y2_given_x2, prof.i_x2_y2_given_x1
    b12, b1m = prof.i_x1x2_y2, prof.i_x1_y2

    r1_hi = max(a1, a1m, 1e-12)
    r2_hi = max(a2, b2, 1e-12)
    r1 = np.linspace(0.0, r1_hi, n1)[:, None]
    # One extra point beyond every breakpoint samples the constant tail.
    r2 = np.concatenate([np.linspace(0.0, r2_hi, n2 - 1), [r2_hi + 1.0]])[None, :]

    receiver = ((r1 <= a1) & (r2 <= a2) & (r1 + r2 <= a12)) | ((r1 <= a1m) & (r2 > a2))
    required = np.where(r2 < b2, np.minimum(b1, b12 - r2), b1m)
    r1s = np.where(receiver, np.maximum(r1 - required, 0.0), 0.0)
    resolution = r1_hi / (n1 - 1) + r2_hi / max(n2 - 2, 1)
    return float(r1s.max()), resolution


def _sato(a: float, b: float, p1: float, p2: float, rho):
    """Genie-aided conditional mutual information at noise correlation rho, in bits:
    (1/2) log2 of [(1+p1+b*p2)(1+a*p1+p2) - (rho + s)^2] / [(1-rho^2)(1+a*p1+p2)]
    with s = sqrt(a)*p1 + sqrt(b)*p2.
    """
    s = np.sqrt(a) * p1 + np.sqrt(b) * p2
    num = (1.0 + p1 + b * p2) * (1.0 + a * p1 + p2) - (rho + s) ** 2
    den = (1.0 - rho**2) * (1.0 + a * p1 + p2)
    return 0.5 * np.log2(num / den)


def sato_objective(ch: GaussianWthi, alloc: PowerAllocation, rho: float) -> float:
    """The Sato objective that ``sato_minimize`` minimizes, at one rho with |rho| < 1."""
    rho = float(rho)
    if not math.isfinite(rho) or abs(rho) >= 1.0:
        raise DomainError(f"rho must satisfy |rho| < 1, got {rho!r}")
    return float(_sato(ch.a, ch.b, alloc.p1, alloc.p2, rho))


def sato_grid(a: float, b: float, p1: float, p2: float, points: int = 1001
              ) -> tuple[np.ndarray, np.ndarray]:
    """The Sato objective on a rho grid over the open interval (-1, 1)."""
    rho = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, points)
    return rho, _sato(a, b, p1, p2, rho)


def sato_minimum_reference(a: float, b: float, p1: float, p2: float) -> float:
    """Minimum over rho of the Sato objective at 40 decimal digits, in bits.

    Works from the objective's definition, (1/2) log2 of
    [A*D - (rho + s)^2] / [(1 - rho^2) * D] with A = 1 + p1 + b*p2,
    D = 1 + a*p1 + p2 and s = sqrt(a)*p1 + sqrt(b)*p2.  Its derivative
    vanishes where s*rho^2 - (A*D - 1 - s^2)*rho + s = 0, and the objective
    falls up to the smaller root and rises after it, so that root, from the
    textbook quadratic formula, is the minimizer (rho = 0 when s = 0).  When
    it is the double root rho = 1 (q = 2s; A*D >= (1 + s)^2 by Cauchy-Schwarz,
    so q >= 2s), the infimum is the objective's limit at the edge,
    (1/2) log2[(1 + s) / D].  A discriminant within working precision of 0 is
    that double root: rounded to a rho just below 1, the closed form would
    cancel every digit.
    """
    with mp.workdps(40):
        a, b, p1, p2 = (mp.mpf(x) for x in (a, b, p1, p2))
        big_a, d = 1 + p1 + b * p2, 1 + a * p1 + p2
        s = mp.sqrt(a) * p1 + mp.sqrt(b) * p2
        q = big_a * d - 1 - s**2
        disc = q**2 - 4 * s**2
        if s and disc <= q**2 * mp.mpf(10) ** (10 - mp.dps):
            return float(mp.log((1 + s) / d, 2) / 2)
        rho = (q - mp.sqrt(disc)) / (2 * s) if s else mp.mpf(0)
        return float(mp.log((big_a * d - (rho + s) ** 2) / ((1 - rho**2) * d), 2) / 2)


def pair_loglik_reference(log_p: np.ndarray, c1f: np.ndarray, c2f: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
    """Sum_k log p(y_k | x1_k, x2_k) for every codeword pair of one trial, (m1, m2).

    One correctly rounded ``math.fsum`` per pair; -inf wherever the pair hits a
    zero-probability cell.
    """
    out = np.empty((c1f.shape[0], c2f.shape[0]))
    for i, x1 in enumerate(c1f):
        for j, x2 in enumerate(c2f):
            out[i, j] = math.fsum(log_p[x1, x2, y])
    return out


def pair_count_scores_reference(log_p: np.ndarray, c1f: np.ndarray, c2f: np.ndarray,
                                y: np.ndarray) -> np.ndarray:
    """The count-based pair scores of one trial, (m1, m2), as the simulator must form them.

    M_v, the number of a pair's symbols whose cell holds the value v, is an
    integer count.  With v0 the smallest finite value of the table, a score
    is n*v0 + (v - v0) * M_v over the finite v > v0 in increasing order,
    one float64 rounding per operation; -inf where the pair hits a -inf cell,
    and everywhere when no cell is finite.
    """
    hits = log_p[c1f[:, None, :], c2f[None, :, :], y]  # (m1, m2, n): each symbol's cell value
    finite = sorted({float(v) for v in log_p.ravel()} - {-math.inf})
    if not finite:
        return np.full(hits.shape[:2], -np.inf)
    out = np.full(hits.shape[:2], len(y) * finite[0])
    for v in finite[1:]:
        out = out + (v - finite[0]) * np.count_nonzero(hits == v, axis=2)
    return np.where(np.isneginf(hits).any(axis=2), -np.inf, out)


def posterior_entropy_reference(ll: np.ndarray, m1s: int) -> float:
    """H(W1 | y2) in bits from one trial's pair log-likelihoods, uniform priors.

    ``ll`` is (m1, m2) with the transmitter rows ordered bin by bin.  Per-bin
    weights and the entropy are summed with ``math.fsum``; an observation
    that every pair makes impossible leaves the flat posterior, log2(m1s).
    """
    flat = ll.ravel().tolist()
    shift = max(flat)
    if shift == -math.inf:
        return math.log2(m1s)
    weights = [math.exp(v - shift) for v in flat]
    per_bin = len(weights) // m1s
    bins = [math.fsum(weights[b * per_bin:(b + 1) * per_bin]) for b in range(m1s)]
    total = math.fsum(bins)
    return -math.fsum(q * math.log2(q) for q in (b / total for b in bins) if q > 0.0)


def region_reference(prof: MutualInfoProfile, r1, r2, receiver: bool) -> bool:
    """Decodability of (r1, r2) by the receiver or the eavesdropper, in exact arithmetic.

    Written out from the module docstring of ``wthi.dmc``: the closed
    joint-decoding region r1 <= I(X1;Y|X2), r2 <= I(X2;Y|X1),
    r1 + r2 <= I(X1,X2;Y), united with the separate-decoding branch
    r1 <= I(X1;Y), which needs r2 > I(X2;Y|X1) strictly at the receiver and
    r2 >= I(X2;Y|X1) at the eavesdropper.  Every comparison is made on the
    exact rational values of its arguments (``Fraction``), so no rounding
    decides a pair.
    """
    fields = [Fraction(v) for v in astuple(prof)]
    c1, c2, c12, c1m = fields[:4] if receiver else fields[4:]
    r1, r2 = Fraction(r1), Fraction(r2)
    mac = r1 <= c1 and r2 <= c2 and r1 + r2 <= c12
    separate = r1 <= c1m and (r2 > c2 if receiver else r2 >= c2)
    return mac or separate
