"""Channel constructions shared across the test modules, and the one home of
every channel family that the property tests draw."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from wthi.dmc import DmcWthi
from wthi.gaussian import GaussianWthi

# Gains and powers from zero through subnormal, unit and huge to near the float maximum
EXTREMES = (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e300, 1.7e308)

# The closed Gaussian domain: exact zeros, the subnormal 5e-324 and 1e-300, gains
# log-uniform on [1e-12, 1e2] and power caps log-uniform on [1e-6, 1e4]
CLOSED_GAINS = st.sampled_from(EXTREMES[:3]) | st.floats(-12.0, 2.0).map(lambda e: 10.0 ** e)
CLOSED_POWERS = st.sampled_from(EXTREMES[:3]) | st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e)

# The seams between the rate's regimes, where the gains sit on a boundary: b = 1
# and b = 1 + p1 part the receiver's decoders, a = 1 and a = 1 + p2 the
# eavesdropper's, and ab = 1 makes the eavesdropper a degraded receiver
SEAMS = ("none", "b=1", "b=1+p1", "a=1", "a=1+p2", "ab=1")


def on_seam(seam: str, a: float, b: float, p1: float, p2: float) -> tuple[float, float]:
    """The gains (a, b) moved onto ``seam``, one of ``SEAMS``, at powers (p1, p2)."""
    if seam == "ab=1":
        a = a if a and math.isfinite(1.0 / a) else 1.0  # so that b = 1/a is a finite gain
        return a, 1.0 / a
    return {"none": (a, b), "b=1": (a, 1.0), "b=1+p1": (a, 1.0 + p1),
            "a=1": (1.0, b), "a=1+p2": (1.0 + p2, b)}[seam]


@st.composite
def closed_channels(draw, seams: tuple[str, ...] = SEAMS) -> GaussianWthi:
    """A channel of the closed domain, its gains moved onto one of ``seams``."""
    a, b = draw(CLOSED_GAINS), draw(CLOSED_GAINS)
    p1, p2 = draw(CLOSED_POWERS), draw(CLOSED_POWERS)
    return GaussianWthi(*on_seam(draw(st.sampled_from(seams)), a, b, p1, p2), p1, p2)


def fleet_channel(rng: np.random.Generator) -> GaussianWthi:
    """A channel of the benchmark's Gaussian fleet: gains uniform on [0.05, 5], caps on [0, 50]."""
    a, b = rng.uniform(0.05, 5.0, 2)
    p1, p2 = rng.uniform(0.0, 50.0, 2)
    return GaussianWthi(a, b, p1, p2)


# A fleet channel drawn from a hypothesis-chosen seed
FLEET_CHANNELS = st.integers(0, 2**32 - 1).map(
    lambda seed: fleet_channel(np.random.default_rng(seed)))


def bsc(eps: float) -> np.ndarray:
    """Transition matrix of a binary symmetric channel, rows p(y|x)."""
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


def channel_document(ch: DmcWthi) -> dict:
    """The JSON document of a channel file, as ``DmcWthi.from_dict`` reads it."""
    return {"nx1": ch.nx1, "nx2": ch.nx2, "ny1": ch.ny1, "ny2": ch.ny2,
            "transition": ch.transition.tolist()}


# The random DMC families: dense, sparse, blind to one input, deterministic, and
# entries at the extremes of the float range
DMC_FAMILIES = ("dense", "sparse", "x1_irrelevant", "x2_irrelevant", "deterministic", "extreme")

# The entries of the "extreme" family: zero, subnormal, tiny and one half
EXTREME_ENTRIES = (0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5)


def family_channel(sizes: tuple, seed: int | np.random.Generator, family: str) -> DmcWthi:
    """A random channel of one of ``DMC_FAMILIES``, drawn from
    ``np.random.default_rng(seed)``: a Generator seed is drawn from, and advanced."""
    rng = np.random.default_rng(seed)
    t = rng.choice(EXTREME_ENTRIES, sizes) if family == "extreme" else rng.random(sizes)
    if family == "sparse":
        t[t < 0.6] = 0.0
    t[..., 0, 0] += t.sum(axis=(2, 3)) == 0.0  # an all-zero slice gets 1 at (0, 0)
    t /= t.sum(axis=(2, 3), keepdims=True)
    if family == "x1_irrelevant":
        t = np.broadcast_to(t[:1], sizes)
    elif family == "x2_irrelevant":
        t = np.broadcast_to(t[:, :1], sizes)
    elif family == "deterministic":  # each input pair names one output pair
        t = np.eye(sizes[2] * sizes[3])[t.reshape(*sizes[:2], -1).argmax(axis=-1)]
    return DmcWthi(*sizes, np.reshape(t, sizes))


def random_binary_channel(rng: np.random.Generator) -> DmcWthi:
    return family_channel((2, 2, 2, 2), rng, "dense")


def noiseless_blind_channel() -> DmcWthi:
    """y1 = x1 exactly; y2 is a fair coin independent of both inputs."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            py1 = np.zeros(2)
            py1[x1] = 1.0
            t[x1, x2] = np.outer(py1, [0.5, 0.5])
    return DmcWthi(2, 2, 2, 2, t)


def blind_eavesdropper_channel(eps: float = 0.1) -> DmcWthi:
    """y1 = BSC(eps)(x1); y2 is a fair coin independent of both inputs."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2] = np.outer(bsc(eps)[x1], [0.5, 0.5])
    return DmcWthi(2, 2, 2, 2, t)


def perfect_eavesdropper_channel() -> DmcWthi:
    """y1 = x1 and y2 = x1, both noiseless."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, x1, x1] = 1.0
    return DmcWthi(2, 2, 2, 2, t)


def identical_outputs_channel(eps: float = 0.2) -> DmcWthi:
    """y1 == y2 (the same BSC(eps) output of x1 handed to both terminals)."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y in range(2):
                t[x1, x2, y, y] = bsc(eps)[x1, y]
    return DmcWthi(2, 2, 2, 2, t)


def xor_channel(e1: float, e2: float, ee: float) -> DmcWthi:
    """y1 = (BSC(e1)(x1), BSC(e2)(x2)) as a 4-ary pair; y2 = BSC(ee)(x1 xor x2).

    The receiver hears both senders on separate clean-ish components while the
    eavesdropper sees only their noisy XOR, so dummy traffic is highly
    effective.  With e1 < ee this satisfies the strong-regime conditions for
    every product input.
    """
    t = np.zeros((2, 2, 4, 2))
    for x1 in range(2):
        for x2 in range(2):
            py1 = np.outer(bsc(e1)[x1], bsc(e2)[x2]).ravel()
            py2 = bsc(ee)[x1 ^ x2]
            t[x1, x2] = np.outer(py1, py2)
    return DmcWthi(2, 2, 4, 2, t)


def weak_instance() -> DmcWthi:
    """y1 = BSC(0.1)(x1 xor x2); y2 = (BSC(0.02)(x2), BSC(0.3)(x1)) 4-ary.

    The eavesdropper hears the interferer much better than the receiver does
    and the transmitter much worse, so the weak-regime conditions hold for
    every product input (BSC capability is monotone in crossover).
    """
    t = np.zeros((2, 2, 2, 4))
    for x1 in range(2):
        for x2 in range(2):
            py1 = bsc(0.1)[x1 ^ x2]
            py2 = np.outer(bsc(0.02)[x2], bsc(0.3)[x1]).ravel()
            t[x1, x2] = np.outer(py1, py2)
    return DmcWthi(2, 2, 2, 4, t)


def strong_instance() -> DmcWthi:
    """Strong-regime channel with a positive secrecy rate: xor_channel(0.12, 0.02, 0.03)."""
    return xor_channel(0.12, 0.02, 0.03)


def very_strong_instance() -> DmcWthi:
    """y2 = x1 noiselessly, y1 = BSC(0.3)(x1): no positive secrecy rate."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            py2 = np.zeros(2)
            py2[x1] = 1.0
            t[x1, x2] = np.outer(bsc(0.3)[x1], py2)
    return DmcWthi(2, 2, 2, 2, t)


def degraded_instance(deg: float = 0.1) -> DmcWthi:
    """Interferer-modulated receiver channel with y2 a BSC(deg) copy of y1.

    y1 = BSC(eps(x2))(x1) with eps(0) = 0.05 and eps(1) = 0.25; y2 is drawn
    from y1 through an independent BSC(deg), so the eavesdropper output is a
    stochastic function of the receiver output by construction.
    """
    d = bsc(deg)
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            eps = 0.05 if x2 == 0 else 0.25
            w = bsc(eps)[x1]
            for y1 in range(2):
                t[x1, x2, y1] = w[y1] * d[y1]
    return DmcWthi(2, 2, 2, 2, t)


# Channel and rate placement for the blocklength-trend simulation: receiver
# components BSC(0.035)/BSC(0.01), eavesdropper BSC(0.12) on the XOR.
TREND_CHANNEL_ARGS = (0.035, 0.01, 0.12)


def trend_channel() -> DmcWthi:
    return xor_channel(*TREND_CHANNEL_ARGS)
