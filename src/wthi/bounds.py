"""Computable upper bounds on the secrecy capacity of the Gaussian channel.

Three bounds are provided:

* main channel: the receiver's capacity with no secrecy constraint, C(p1_max);
* Sato type: a genie hands the eavesdropper's signal to the receiver; since
  the secrecy capacity depends on the noise pair only through its marginals,
  the bound is minimized over the noise correlation rho, which has a closed
  form;
* Z channel: a genie hands the interferer's codeword to the receiver, which
  reduces the model to a one-sided interference channel and yields an
  entropy-power-inequality bound.

Each bound is the best of the three on some part of the parameter space.
Rates in bits per channel use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .gaussian import (_LN2, GaussianWthi, PowerAllocation, _check_pairing, _Math, _wiretap_rate,
                       awgn_capacity)


class BoundKind(enum.Enum):
    MAIN = "main"
    SATO = "sato"
    Z_CHANNEL = "z-channel"


@dataclass(frozen=True)
class SatoEvaluation:
    """Result of minimizing the Sato objective over the noise correlation.

    rho_star is the closed-form minimizer, where the objective was evaluated.
    ``degenerate`` marks the zero-signal corner s = 0, where the correlation
    is immaterial; the value there is C(p1), the limit of the bound.
    """

    rho_star: float
    value: float
    degenerate: bool


def bound_main_channel(ch: GaussianWthi) -> float:
    """Receiver capacity with no secrecy constraint, C(p1_max)."""
    return awgn_capacity(ch.p1_max)


def _sato(a, b, p1, p2, xp):
    """(s, q + root, value) of ``sato_minimize``, unchecked for overflow: floats
    with ``xp = _Math``, or arrays that broadcast together with ``xp = numpy``."""
    sqrt = xp.sqrt
    s = sqrt(a) * p1 + sqrt(b) * p2
    cross = (sqrt(a * b) - 1.0) ** 2 * p1 * p2
    q = (1.0 + a) * p1 + (1.0 + b) * p2 + cross
    f_lo = (sqrt(a) - 1.0) ** 2 * p1 + (sqrt(b) - 1.0) ** 2 * p2 + cross
    f_hi = (sqrt(a) + 1.0) ** 2 * p1 + (sqrt(b) + 1.0) ** 2 * p2 + cross
    q_root = q + sqrt(f_lo) * sqrt(f_hi)
    value = 0.5 * xp.log((1.0 + 0.5 * q_root) / (1.0 + a * p1 + p2)) / _LN2
    return s, q_root, xp.maximum(value, 0.0)  # a nan stays nan


def _sato_float(ch: GaussianWthi, p1: float, p2: float) -> tuple[float, float, float]:
    """``_sato`` at floats; a value that overflows raises."""
    s, q_root, value = _sato(ch.a, ch.b, p1, p2, _Math)
    if not math.isfinite(value):
        raise DomainError(f"the Sato bound overflows at {ch} and {PowerAllocation(p1, p2)}")
    return s, q_root, value


def sato_minimize(ch: GaussianWthi, alloc: PowerAllocation) -> SatoEvaluation:
    """Closed-form minimizer of the Sato objective over rho in (-1, 1).

    The objective, the genie-aided conditional mutual information at noise
    correlation rho, is (1/2) log2 of
        [(1+p1+b*p2)(1+a*p1+p2) - (rho + s)^2] / [(1-rho^2)(1+a*p1+p2)].
    The stationarity condition is the quadratic
        s*rho^2 - q*rho + s = 0,   q = (1+a)p1 + (1+b)p2 + (sqrt(ab)-1)^2 p1 p2,
    with s = sqrt(a)p1 + sqrt(b)p2.  Its discriminant q^2 - 4s^2 factors into
    the two nonnegative sums f_lo = q - 2s and f_hi = q + 2s, so its root is
    taken as sqrt(f_lo) * sqrt(f_hi), which does not overflow before the
    bound does.  The two roots multiply to 1, so the one in the unit
    interval is
        rho_star = 2s / (q + root),
    which reaches 1 only where f_lo = 0 and the bound is 0.  At it
    (rho_star + s) / rho_star = 1 + (q + root)/2, so the minimum is
        (1/2) log2[(1 + (q + root)/2) / (1 + a*p1 + p2)],
    clamped at 0.  No step divides by s or rho_star: the formula holds on the
    whole closed domain, and at s = 0 (zero powers, or both gains zero) it
    gives C(p1), with rho_star = 0.  A value that overflows a float raises
    ``DomainError``.
    """
    _check_pairing(ch, alloc)
    s, q_root, value = _sato_float(ch, alloc.p1, alloc.p2)
    return SatoEvaluation(rho_star=2.0 * s / q_root if s > 0.0 else 0.0,
                          value=value, degenerate=s == 0.0)


def bound_sato(ch: GaussianWthi) -> float:
    """Sato-type bound at full powers (the objective is increasing in both powers)."""
    return _sato_float(ch, ch.p1_max, ch.p2_max)[2]


def _z_bound(a, p1, p2, xp):
    """``bound_z_channel`` at gain a and power caps p1, p2: floats with
    ``xp = _Math``, or arrays that broadcast together with ``xp = numpy``."""
    # (1/2)log2[2uv/(u+v)] with u = 1 + a*p1, v = 1 + p2, as -(1/2)log2 of the mean of
    # 1/u and 1/v, which lies in (0, 1]: no product that can overflow
    epi_term = -0.5 * xp.log(0.5 / (1.0 + a * p1) + 0.5 / (1.0 + p2)) / _LN2
    return _wiretap_rate(a, p1, xp) + epi_term


def bound_z_channel(ch: GaussianWthi) -> float:
    """One-sided-channel bound: wiretap term plus an entropy-power-inequality term."""
    return _z_bound(ch.a, ch.p1_max, ch.p2_max, _Math)


def bound_best(ch: GaussianWthi) -> tuple[float, BoundKind]:
    """Smallest of the three bounds; ties prefer Sato, then Z-channel, then main."""
    return min(
        (bound_sato(ch), BoundKind.SATO),
        (bound_z_channel(ch), BoundKind.Z_CHANNEL),
        (bound_main_channel(ch), BoundKind.MAIN),
        key=lambda candidate: candidate[0],
    )
