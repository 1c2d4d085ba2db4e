"""Gaussian wiretap channel with a helping interferer.

The intended receiver observes ``y1 = x1 + sqrt(b)*x2 + n1`` and the
eavesdropper observes ``y2 = sqrt(a)*x1 + x2 + n2``, where both noise
processes are i.i.d. unit-variance Gaussian.  ``a`` is the power gain of the
transmitter's signal at the eavesdropper, ``b`` the power gain of the
interferer's signal at the receiver, and the two senders obey average block
power constraints.  The interferer carries no message; it transmits a random
codeword at a "dummy" rate chosen so that it hurts the eavesdropper more
than the receiver.

All rates are in bits per channel use (base-2 logarithms throughout).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require_finite_nonneg

_LN2 = math.log(2.0)


def awgn_capacity(x: float) -> float:
    """Capacity of a unit-noise AWGN channel at SNR ``x``: (1/2)*log2(1+x)."""
    x = _require_finite_nonneg("x", x)
    return 0.5 * math.log1p(x) / _LN2


@dataclass(frozen=True, init=False)
class GaussianWthi:
    """Channel gains and power constraints.

    a: eavesdropper power gain of the transmitter signal (>= 0).
    b: receiver power gain of the interferer signal (>= 0).
    p1_max, p2_max: average power constraints, linear units (>= 0).
    """

    a: float
    b: float
    p1_max: float
    p2_max: float

    def __init__(self, a: float, b: float, p1_max: float, p2_max: float) -> None:
        object.__setattr__(self, "a", _require_finite_nonneg("a", a))
        object.__setattr__(self, "b", _require_finite_nonneg("b", b))
        object.__setattr__(self, "p1_max", _require_finite_nonneg("p1_max", p1_max))
        object.__setattr__(self, "p2_max", _require_finite_nonneg("p2_max", p2_max))

    def full_power(self) -> "PowerAllocation":
        return PowerAllocation(self.p1_max, self.p2_max)


@dataclass(frozen=True, init=False)
class PowerAllocation:
    """Transmit powers actually used: 0 <= p1, p2 (paired channel caps apply)."""

    p1: float
    p2: float

    def __init__(self, p1: float, p2: float) -> None:
        object.__setattr__(self, "p1", _require_finite_nonneg("p1", p1))
        object.__setattr__(self, "p2", _require_finite_nonneg("p2", p2))


def _check_pairing(ch: GaussianWthi, alloc: PowerAllocation) -> None:
    tol1 = 1e-9 * max(1.0, ch.p1_max)
    tol2 = 1e-9 * max(1.0, ch.p2_max)
    if alloc.p1 > ch.p1_max + tol1 or alloc.p2 > ch.p2_max + tol2:
        raise DomainError(
            f"allocation ({alloc.p1}, {alloc.p2}) exceeds power constraints "
            f"({ch.p1_max}, {ch.p2_max})"
        )


class Regime(enum.Enum):
    """How the operating point is realized at the receiver."""

    DECODE_CANCEL = "decode-cancel"    # receiver decodes the interferer first, cancels it
    JOINT_DECODE = "joint-decode"      # receiver decodes both codebooks jointly
    TREAT_AS_NOISE = "treat-as-noise"  # receiver treats the interferer as noise
    NO_INTERFERER = "no-interferer"    # plain wiretap operation, interferer silent at rate 0
    SILENT = "silent"                  # nothing useful transmitted; all rates zero


@dataclass(frozen=True)
class RateSplit:
    """Operating point (r1, r2, r1s, r1d) of the binning scheme.

    r1 = r1s + r1d is the total codebook rate of the transmitter, split into
    the secret-message rate r1s and the redundancy rate r1d sacrificed to
    confuse the eavesdropper.  r2 is the interferer's dummy rate.
    """

    r2: float
    r1s: float
    r1d: float
    regime: Regime

    def __post_init__(self) -> None:
        for name in ("r2", "r1s", "r1d"):
            _require_finite_nonneg(name, getattr(self, name))

    @property
    def r1(self) -> float:
        return self.r1s + self.r1d


_SILENT_SPLIT = RateSplit(r2=0.0, r1s=0.0, r1d=0.0, regime=Regime.SILENT)


class _Math:
    """The numpy functions a float-or-array body calls, served for floats by math.

    Each such body takes ``xp``, this class or numpy: floats go through libm,
    as every scalar result always has, and arrays through numpy's kernels,
    which can differ from libm by an ulp on a few % of inputs.
    """

    log, log1p, sqrt, maximum = math.log, math.log1p, math.sqrt, max

    @staticmethod
    def where(cond, x, y):
        return x if cond else y


def _wiretap_capacities(a, p1, xp):
    """C(p1) and C(a*p1), the rate pieces of the plain wiretap scheme."""
    return 0.5 * xp.log1p(p1) / _LN2, 0.5 * xp.log1p(a * p1) / _LN2


def _wiretap_rate(a, p1, xp):
    """[C(p1) - C(a*p1)]+, the secrecy rate of the plain wiretap scheme."""
    c_p1, c_ap1 = _wiretap_capacities(a, p1, xp)
    return xp.maximum(0.0, c_p1 - c_ap1)


def _rates(a, b, p1, p2, xp):
    """Unclamped rate pieces (assisted, r1d, wiretap, c_ap1) of both schemes.

    The assisted scheme has redundancy rate r1d = C(a*p1/(1+p2)) and codebook
    rate r1 = assisted + r1d, which depends on how the receiver handles the
    interference: C(p1) when it decodes and cancels it (b >= 1 + p1),
    C(p1 + b*p2) - C(p2) when it decodes jointly (1 <= b < 1 + p1), and
    C(p1/(1+b*p2)) when it treats it as noise (b < 1); the pieces agree at the
    seams.  The plain wiretap scheme has rate C(p1) - C(a*p1) and redundancy
    rate c_ap1 = C(a*p1).  The arguments are floats with ``xp = _Math``, or
    arrays that broadcast together with ``xp = numpy``; a float b computes
    only its receiver's form, an array b both forms, picked per point.  Each
    capacity C(x) = 0.5*log1p(x)/ln 2 is written out: a Python call per
    capacity cost about as much as the rest of the function.
    """
    log1p, where = xp.log1p, xp.where
    both = isinstance(b, np.ndarray)
    c_p1, c_ap1 = _wiretap_capacities(a, p1, xp)
    r1d = 0.5 * log1p(a * p1 / (1.0 + p2)) / _LN2
    decoded = noise = None
    if both or b >= 1.0:
        joint = 0.5 * log1p(p1 + b * p2) / _LN2 - 0.5 * log1p(a * p1 + p2) / _LN2
        decoded = where(b >= 1.0 + p1, c_p1 - r1d, joint)
    if both or b < 1.0:
        noise = 0.5 * log1p(p1 / (1.0 + b * p2)) / _LN2 - r1d
    pick = where if both else _Math.where  # a float b computed its receiver's form only
    return pick(b >= 1.0, decoded, noise), r1d, c_p1 - c_ap1, c_ap1


def rate_wiretap(a: float, p1: float) -> float:
    """Secrecy capacity of the plain Gaussian wiretap channel, [C(p1) - C(a*p1)]+."""
    a = _require_finite_nonneg("a", a)
    p1 = _require_finite_nonneg("p1", p1)
    return _wiretap_rate(a, p1, _Math)


def rate_achievable(ch: GaussianWthi, alloc: PowerAllocation) -> tuple[float, RateSplit]:
    """Best of the interferer-assisted and the plain wiretap scheme at a fixed
    power pair; ties go to the wiretap scheme (interferer silent).

    In the assisted scheme the interferer transmits dummy codewords at
    r2 = C(p2), and the receiver decodes and cancels the interference
    (b >= 1 + p1), decodes it jointly (1 <= b < 1 + p1) or treats it as noise
    (b < 1), as the split's regime records.  When the winning value is zero
    the all-zero ``SILENT`` split is returned (no secret bit is carried, so no
    operating point is meaningful).  Under very strong eavesdropping (a >= 1
    and a >= 1 + p2) neither scheme has a positive rate, so that value is
    exactly zero.  A capacity that overflows a float raises ``DomainError``.
    """
    _check_pairing(ch, alloc)
    if ch.a >= 1.0 and ch.a >= 1.0 + alloc.p2:
        return 0.0, _SILENT_SPLIT
    assisted, r1d, wiretap, c_ap1 = _rates(ch.a, ch.b, alloc.p1, alloc.p2, _Math)
    if not math.isfinite(assisted + r1d + wiretap + c_ap1):
        raise DomainError(f"a capacity overflows at {ch} and {alloc}")
    v2 = max(0.0, wiretap)
    if v2 < assisted:
        if ch.b >= 1.0 + alloc.p1:
            regime = Regime.DECODE_CANCEL
        elif ch.b >= 1.0:
            regime = Regime.JOINT_DECODE
        else:
            regime = Regime.TREAT_AS_NOISE
        return assisted, RateSplit(r2=awgn_capacity(alloc.p2), r1s=assisted, r1d=r1d, regime=regime)
    if v2 > 0.0:
        return v2, RateSplit(r2=0.0, r1s=v2, r1d=c_ap1, regime=Regime.NO_INTERFERER)
    return 0.0, _SILENT_SPLIT


def _rate_array(a, b, p1, p2, strict: bool = False) -> np.ndarray:
    """The rate of ``rate_achievable`` at gains and powers that broadcast together
    into an array: the best of the clamped pieces, zero under very strong
    eavesdropping.  A piece that a capacity overflow makes -inf is clamped to
    zero; with ``strict`` the point rates nan instead, where ``rate_achievable``
    raises."""
    assisted, r1d, wiretap, c_ap1 = _rates(a, b, p1, p2, np)
    rates = np.maximum(np.maximum(assisted, 0.0), np.maximum(wiretap, 0.0))
    if strict:
        np.copyto(rates, np.nan, where=~np.isfinite(assisted + r1d + wiretap + c_ap1))
    np.copyto(rates, 0.0, where=(a >= 1.0) & (a >= 1.0 + p2))  # very strong eavesdropping
    return rates
