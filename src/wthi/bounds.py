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

from .gaussian import _LN2, GaussianWthi, PowerAllocation, _check_pairing, awgn_capacity, rate_wiretap


class BoundKind(enum.Enum):
    MAIN = "main"
    SATO = "sato"
    Z_CHANNEL = "z-channel"


@dataclass(frozen=True)
class SatoEvaluation:
    """Result of minimizing the Sato objective over the noise correlation.

    rho_star is the closed-form minimizer, where the objective was evaluated;
    discriminant is the nonnegative radicand of that closed form.
    ``degenerate`` marks the zero-signal corner where the correlation is
    immaterial and the bound is reported as its limit value 0.
    """

    rho_star: float
    discriminant: float
    value: float
    degenerate: bool = False


def bound_main_channel(ch: GaussianWthi) -> float:
    """Receiver capacity with no secrecy constraint, C(p1_max)."""
    return awgn_capacity(ch.p1_max)


def sato_minimize(ch: GaussianWthi, alloc: PowerAllocation) -> SatoEvaluation:
    """Closed-form minimizer of the Sato objective over rho in (-1, 1).

    The objective, the genie-aided conditional mutual information at noise
    correlation rho, is (1/2) log2 of
        [(1+p1+b*p2)(1+a*p1+p2) - (rho + s)^2] / [(1-rho^2)(1+a*p1+p2)].
    The stationarity condition is the quadratic
        s*rho^2 - q*rho + s = 0,   q = (1+a)p1 + (1+b)p2 + (sqrt(ab)-1)^2 p1 p2,
    with s = sqrt(a)p1 + sqrt(b)p2; its root inside the unit interval is
        rho_star = (q - sqrt(q^2 - 4 s^2)) / (2 s),
    and the radicand factors into two nonnegative sums, which is how the
    discriminant is computed here.  At the stationary point the objective
    collapses to (1/2) log2[(rho_star + s) / (rho_star (1 + a*p1 + p2))],
    which stays finite as rho_star -> 1 (a symmetric-gain corner where the
    bound tends to 0).

    With s = 0 (zero powers, or both gains zero) the correlation is
    immaterial and a degenerate evaluation with value 0 is returned.
    """
    _check_pairing(ch, alloc)
    a, b = ch.a, ch.b
    p1, p2 = alloc.p1, alloc.p2
    s = math.sqrt(a) * p1 + math.sqrt(b) * p2
    if s <= 0.0:
        return SatoEvaluation(rho_star=0.0, discriminant=0.0, value=0.0, degenerate=True)

    sab = math.sqrt(a * b)
    cross = (sab - 1.0) ** 2 * p1 * p2
    q = (1.0 + a) * p1 + (1.0 + b) * p2 + cross
    f_lo = (math.sqrt(a) - 1.0) ** 2 * p1 + (math.sqrt(b) - 1.0) ** 2 * p2 + cross
    f_hi = (math.sqrt(a) + 1.0) ** 2 * p1 + (math.sqrt(b) + 1.0) ** 2 * p2 + cross
    disc = f_lo * f_hi
    rho_star = (q - math.sqrt(disc)) / (2.0 * s)
    rho_star = min(rho_star, 1.0 - 1e-12)  # open-interval cap for degenerate corners

    value = 0.5 * math.log((rho_star + s) / (rho_star * (1.0 + a * p1 + p2))) / _LN2
    value = max(value, 0.0)
    return SatoEvaluation(rho_star=rho_star, discriminant=disc, value=value)


def bound_sato(ch: GaussianWthi) -> float:
    """Sato-type bound at full powers (the objective is increasing in both powers)."""
    return sato_minimize(ch, ch.full_power()).value


def bound_z_channel(ch: GaussianWthi) -> float:
    """One-sided-channel bound: wiretap term plus an entropy-power-inequality term."""
    a, p1, p2 = ch.a, ch.p1_max, ch.p2_max
    # (1/2)log2[2uv/(u+v)] with u = 1 + a*p1, v = 1 + p2, as -(1/2)log2 of the mean of
    # 1/u and 1/v, which lies in (0, 1]: no product that can overflow
    epi_term = -0.5 * math.log(0.5 / (1.0 + a * p1) + 0.5 / (1.0 + p2)) / _LN2
    return rate_wiretap(a, p1) + epi_term


def bound_best(ch: GaussianWthi) -> tuple[float, BoundKind]:
    """Smallest of the three bounds; ties prefer Sato, then Z-channel, then main."""
    return min(
        (bound_sato(ch), BoundKind.SATO),
        (bound_z_channel(ch), BoundKind.Z_CHANNEL),
        (bound_main_channel(ch), BoundKind.MAIN),
        key=lambda candidate: candidate[0],
    )
