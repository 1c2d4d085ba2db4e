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

from .errors import DomainError

_LN2 = math.log(2.0)

#: Absolute tolerance for the rate-split consistency identity r1 = r1s + r1d.
SPLIT_TOL = 1e-12


def _require_finite_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def awgn_capacity(x: float) -> float:
    """Capacity of a unit-noise AWGN channel at SNR ``x``: (1/2)*log2(1+x)."""
    x = _require_finite_nonneg("x", x)
    return 0.5 * math.log1p(x) / _LN2


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        for name in ("a", "b", "p1_max", "p2_max"):
            object.__setattr__(self, name, _require_finite_nonneg(name, getattr(self, name)))

    def degraded(self) -> bool:
        """True iff the eavesdropper output is a noisy function of the receiver output.

        For this channel that holds exactly when a*b = 1 (within 1e-12) and a <= 1.
        """
        return abs(self.a * self.b - 1.0) <= 1e-12 and self.a <= 1.0

    def full_power(self) -> "PowerAllocation":
        return PowerAllocation(self.p1_max, self.p2_max)


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers actually used: 0 <= p1, p2 (paired channel caps apply)."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", _require_finite_nonneg("p1", self.p1))
        object.__setattr__(self, "p2", _require_finite_nonneg("p2", self.p2))


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

    r1 is the total codebook rate of the transmitter, split as r1 = r1s + r1d
    into the secret-message rate r1s and the redundancy rate r1d sacrificed to
    confuse the eavesdropper.  r2 is the interferer's dummy rate.
    """

    r1: float
    r2: float
    r1s: float
    r1d: float
    regime: Regime

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r1s", "r1d"):
            _require_finite_nonneg(name, getattr(self, name))
        if abs(self.r1 - (self.r1s + self.r1d)) > SPLIT_TOL:
            raise DomainError(
                f"inconsistent split: r1={self.r1} but r1s+r1d={self.r1s + self.r1d}"
            )


_SILENT_SPLIT = RateSplit(0.0, 0.0, 0.0, 0.0, Regime.SILENT)


def rate_wiretap(a: float, p1: float) -> float:
    """Secrecy capacity of the plain Gaussian wiretap channel, [C(p1) - C(a*p1)]+."""
    a = _require_finite_nonneg("a", a)
    p1 = _require_finite_nonneg("p1", p1)
    return max(0.0, awgn_capacity(p1) - awgn_capacity(a * p1))


def rate_interference_assisted(
    ch: GaussianWthi, alloc: PowerAllocation
) -> tuple[float, RateSplit]:
    """Secrecy rate of the interferer-assisted scheme at a fixed power pair.

    The interferer transmits dummy codewords at r2 = C(p2) and the
    transmitter's redundancy rate is r1d = C(a*p1/(1+p2)); the total codebook
    rate r1 depends on how the receiver handles the interference:

    * ``b >= 1 + p1``: the receiver decodes and cancels the interference
      first, r1 = C(p1);
    * ``1 <= b < 1 + p1``: joint decoding, r1 = C(p1 + b*p2) - C(p2);
    * ``b < 1``: interference treated as noise, r1 = C(p1 / (1 + b*p2)).

    The three pieces agree at the seams, so the boundary assignment is
    observationally irrelevant.  A negative raw value means the scheme cannot
    operate; the rate is clamped to zero and an all-zero ``SILENT`` split is
    returned.
    """
    _check_pairing(ch, alloc)
    a, b = ch.a, ch.b
    p1, p2 = alloc.p1, alloc.p2

    r1d = awgn_capacity(a * p1 / (1.0 + p2))
    r2 = awgn_capacity(p2)
    if b >= 1.0 + p1:
        raw = awgn_capacity(p1) - r1d
        regime = Regime.DECODE_CANCEL
    elif b >= 1.0:
        raw = awgn_capacity(p1 + b * p2) - awgn_capacity(a * p1 + p2)
        regime = Regime.JOINT_DECODE
    else:
        raw = awgn_capacity(p1 / (1.0 + b * p2)) - r1d
        regime = Regime.TREAT_AS_NOISE

    if raw < 0.0:
        return 0.0, _SILENT_SPLIT
    return raw, RateSplit(r1=raw + r1d, r2=r2, r1s=raw, r1d=r1d, regime=regime)


def rate_achievable(ch: GaussianWthi, alloc: PowerAllocation) -> tuple[float, RateSplit]:
    """Best of the interferer-assisted and the plain wiretap scheme at a fixed
    power pair; ties go to the wiretap scheme (interferer silent).

    When the winning value is zero the all-zero ``SILENT`` split is returned
    (no secret bit is carried, so no operating point is meaningful).  Under
    very strong eavesdropping (a >= 1 and a >= 1 + p2) neither scheme has a
    positive rate, so that value is exactly zero.
    """
    _check_pairing(ch, alloc)
    if ch.a >= 1.0 and ch.a >= 1.0 + alloc.p2:
        return 0.0, _SILENT_SPLIT
    v1, s1 = rate_interference_assisted(ch, alloc)
    v2 = rate_wiretap(ch.a, alloc.p1)
    if v2 < v1:
        return v1, s1
    if v2 > 0.0:
        r1d = awgn_capacity(ch.a * alloc.p1)
        return v2, RateSplit(r1=v2 + r1d, r2=0.0, r1s=v2, r1d=r1d, regime=Regime.NO_INTERFERER)
    return 0.0, _SILENT_SPLIT
