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

from .errors import DomainError

_LN2 = math.log(2.0)


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


def _where(cond, x, y):  # np.where for float powers
    return x if cond else y


def _wiretap_capacities(a, p1, log1p):
    """C(p1) and C(a*p1), the rate pieces of the plain wiretap scheme."""
    return 0.5 * log1p(p1) / _LN2, 0.5 * log1p(a * p1) / _LN2


def _rates(a, b, p1, p2):
    """Unclamped rate pieces (assisted, r1d, wiretap, c_ap1) of both schemes.

    The assisted scheme has redundancy rate r1d = C(a*p1/(1+p2)) and codebook
    rate r1 = assisted + r1d, which depends on how the receiver handles the
    interference: C(p1) when it decodes and cancels it (b >= 1 + p1),
    C(p1 + b*p2) - C(p2) when it decodes jointly (1 <= b < 1 + p1), and
    C(p1/(1+b*p2)) when it treats it as noise (b < 1); the pieces agree at the
    seams.  The plain wiretap scheme has rate C(p1) - C(a*p1) and redundancy
    rate c_ap1 = C(a*p1).  The gains are floats; the powers are floats, or
    arrays that broadcast together and make every piece an array.  Each
    capacity C(x) = 0.5*log1p(x)/ln 2 is written out: a Python call per
    capacity cost about as much as the rest of the function.
    """
    if isinstance(p1, np.ndarray) or isinstance(p2, np.ndarray):
        log1p, where = np.log1p, np.where
    else:
        log1p, where = math.log1p, _where

    c_p1, c_ap1 = _wiretap_capacities(a, p1, log1p)
    r1d = 0.5 * log1p(a * p1 / (1.0 + p2)) / _LN2
    if b >= 1.0:
        joint = 0.5 * log1p(p1 + b * p2) / _LN2 - 0.5 * log1p(a * p1 + p2) / _LN2
        assisted = where(b >= 1.0 + p1, c_p1 - r1d, joint)
    else:
        assisted = 0.5 * log1p(p1 / (1.0 + b * p2)) / _LN2 - r1d
    return assisted, r1d, c_p1 - c_ap1, c_ap1


def _pair_rates(ch: GaussianWthi, alloc: PowerAllocation) -> tuple[float, float, float, float]:
    rates = _rates(ch.a, ch.b, alloc.p1, alloc.p2)
    if not math.isfinite(sum(rates)):
        raise DomainError(f"a capacity overflows at {ch} and {alloc}")
    return rates


def _assisted_split(ch: GaussianWthi, alloc: PowerAllocation, raw: float, r1d: float
                    ) -> tuple[float, RateSplit]:
    if raw < 0.0:
        return 0.0, _SILENT_SPLIT
    if ch.b >= 1.0 + alloc.p1:
        regime = Regime.DECODE_CANCEL
    elif ch.b >= 1.0:
        regime = Regime.JOINT_DECODE
    else:
        regime = Regime.TREAT_AS_NOISE
    return raw, RateSplit(r2=awgn_capacity(alloc.p2), r1s=raw, r1d=r1d, regime=regime)


def rate_wiretap(a: float, p1: float) -> float:
    """Secrecy capacity of the plain Gaussian wiretap channel, [C(p1) - C(a*p1)]+."""
    a = _require_finite_nonneg("a", a)
    p1 = _require_finite_nonneg("p1", p1)
    c_p1, c_ap1 = _wiretap_capacities(a, p1, math.log1p)
    return max(0.0, c_p1 - c_ap1)


def rate_interference_assisted(
    ch: GaussianWthi, alloc: PowerAllocation
) -> tuple[float, RateSplit]:
    """Secrecy rate of the interferer-assisted scheme at a fixed power pair.

    The interferer transmits dummy codewords at r2 = C(p2), and the receiver
    decodes and cancels the interference (b >= 1 + p1), decodes it jointly
    (1 <= b < 1 + p1) or treats it as noise (b < 1), as the split's regime
    records.  A negative raw value means the scheme cannot operate; the rate
    is clamped to zero and an all-zero ``SILENT`` split is returned.  A
    capacity that overflows a float raises ``DomainError``.
    """
    _check_pairing(ch, alloc)
    raw, r1d, _, _ = _pair_rates(ch, alloc)
    return _assisted_split(ch, alloc, raw, r1d)


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
    raw, r1d, wiretap, c_ap1 = _pair_rates(ch, alloc)
    v2 = max(0.0, wiretap)
    if v2 < raw:
        return _assisted_split(ch, alloc, raw, r1d)
    if v2 > 0.0:
        return v2, RateSplit(r2=0.0, r1s=v2, r1d=c_ap1, regime=Regime.NO_INTERFERER)
    return 0.0, _SILENT_SPLIT


def _rate_achievable_grid(ch: GaussianWthi, p1s: np.ndarray, p2s: np.ndarray) -> np.ndarray:
    """The rate of ``rate_achievable`` on the outer grid p1s x p2s."""
    p1 = np.asarray(p1s, dtype=float)[:, None]
    p2 = np.asarray(p2s, dtype=float)[None, :]
    assisted, _, wiretap, _ = _rates(ch.a, ch.b, p1, p2)
    rates = np.maximum(np.maximum(assisted, 0.0), np.maximum(wiretap, 0.0))
    rates[:, (ch.a >= 1.0) & (ch.a >= 1.0 + p2[0])] = 0.0  # very strong eavesdropping
    return rates
