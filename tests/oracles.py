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
the library contracts joint-type counts, and the eavesdropper's posterior
entropy is summed per trial with ``math.fsum``, where the library batches a
chunk of trials.  The decodable-rate regions are the docstring inequalities
evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
from mpmath import mp

from wthi.dmc import MutualInfoProfile
from wthi.errors import DomainError
from wthi.gaussian import GaussianWthi, PowerAllocation

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
    """I(X1,X2; Y1~ | Y2~) of a binary coupling q[x1][x2][y1][y2] under the law px1 x px2.

    Builds the 16-cell joint pmf and takes I(X; Y1~, Y2~) - I(X; Y2~) with
    X = (X1, X2), each from joint entropies.
    """
    joint = (px1[:, None, None, None] * px2[None, :, None, None] * coupling).reshape(4, 2, 2)
    return mutual_information_bits(joint.reshape(4, 4)) - mutual_information_bits(joint.sum(axis=1))


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
