"""Discrete memoryless wiretap channel with a helping interferer.

A channel instance is a finite-alphabet transition tensor p(y1, y2 | x1, x2)
together with a product input distribution p(x1)p(x2).  This module computes
the mutual-information profile of an instance, the receiver/eavesdropper
decodable-rate regions, the secrecy rate achievable by double binning, the
weak/strong regime closed forms, and a desk-scale Sato-type minimax upper
bound over noise couplings with fixed marginals.

Region conventions
------------------
The receiver region is the union of the joint-decoding (MAC) region, taken
closed, and the separate-decoding region, which needs the dummy rate to
exceed the receiver's conditional capacity strictly.  The eavesdropper
region is taken *closed* on all boundaries: a rate pair sitting exactly on
the boundary counts as decodable by the eavesdropper.  This is the
conservative reading; it demands marginally more redundancy and never
overclaims secrecy.  The optimum secrecy rate is unaffected because the
objective is continuous in the rates.

Information measures
--------------------
The inputs are independent, so on each output Y every field of the profile
is a difference of four conditional entropies:

    I(X1;Y|X2)  = H(Y|X2) - H(Y|X1,X2)
    I(X2;Y|X1)  = H(Y|X1) - H(Y|X1,X2)
    I(X1,X2;Y)  = H(Y)    - H(Y|X1,X2)
    I(X1;Y)     = H(Y)    - H(Y|X1)

H(Y|x1,x2) is a constant of the channel.  Every grid search reads these
profiles from one table, a row of the input-law grid at a time.

All information quantities are in bits.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import DeskScaleError, DomainError, RegimeMismatchError
from .gaussian import RateSplit, Regime

_SIMPLEX_TOL = 1e-12


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DmcWthi:
    """Finite-alphabet channel p(y1, y2 | x1, x2).

    ``transition`` is indexed [x1][x2][y1][y2]; every conditional slice must
    be a pmf (entries in [0, 1] summing to 1 within 1e-12).  Desk-scale
    operations additionally restrict the alphabet sizes; the type itself only
    validates the probability structure.
    """

    nx1: int
    nx2: int
    ny1: int
    ny2: int
    transition: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nx1", "nx2", "ny1", "ny2"):
            if int(getattr(self, name)) < 1:
                raise DomainError(f"{name} must be >= 1")
        t = np.asarray(self.transition, dtype=float)
        expected = (self.nx1, self.nx2, self.ny1, self.ny2)
        if t.shape != expected:
            raise DomainError(f"transition shape {t.shape} does not match {expected}")
        if np.any(t < -_SIMPLEX_TOL) or np.any(t > 1.0 + _SIMPLEX_TOL):
            raise DomainError("transition entries must lie in [0, 1]")
        sums = t.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > _SIMPLEX_TOL):
            bad = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise DomainError(
                f"conditional slice (x1={bad[0]}, x2={bad[1]}) sums to {sums[bad]!r}, not 1"
            )
        t = np.clip(t, 0.0, 1.0)
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)

    def receiver_marginal(self) -> np.ndarray:
        """p(y1 | x1, x2), shape (nx1, nx2, ny1)."""
        return self.transition.sum(axis=3)

    def eavesdropper_marginal(self) -> np.ndarray:
        """p(y2 | x1, x2), shape (nx1, nx2, ny2)."""
        return self.transition.sum(axis=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "DmcWthi":
        missing = {"nx1", "nx2", "ny1", "ny2", "transition"} - set(doc)
        if missing:
            raise DomainError(f"channel document missing fields: {sorted(missing)}")
        return cls(
            nx1=int(doc["nx1"]),
            nx2=int(doc["nx2"]),
            ny1=int(doc["ny1"]),
            ny2=int(doc["ny2"]),
            transition=np.asarray(doc["transition"], dtype=float),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "DmcWthi":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "nx1": self.nx1,
            "nx2": self.nx2,
            "ny1": self.ny1,
            "ny2": self.ny2,
            "transition": self.transition.tolist(),
        }


@dataclass(frozen=True, eq=False)
class ProductInput:
    """Independent input distributions p(x1) and p(x2)."""

    px1: np.ndarray
    px2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("px1", "px2"):
            p = np.asarray(getattr(self, name), dtype=float)
            if p.ndim != 1 or p.size < 1:
                raise DomainError(f"{name} must be a 1-D distribution")
            if np.any(p < -_SIMPLEX_TOL) or abs(float(p.sum()) - 1.0) > _SIMPLEX_TOL:
                raise DomainError(f"{name} must be a pmf summing to 1, got {p!r}")
            p = np.clip(p, 0.0, None)
            p.setflags(write=False)
            object.__setattr__(self, name, p)

    @classmethod
    def uniform(cls, nx1: int, nx2: int) -> "ProductInput":
        return cls(np.full(nx1, 1.0 / nx1), np.full(nx2, 1.0 / nx2))


@dataclass(frozen=True)
class MutualInfoProfile:
    """The eight mutual informations that define the decodable-rate regions."""

    i_x1_y1_given_x2: float
    i_x2_y1_given_x1: float
    i_x1x2_y1: float
    i_x1_y1: float
    i_x1_y2_given_x2: float
    i_x2_y2_given_x1: float
    i_x1x2_y2: float
    i_x1_y2: float


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis, vectorized (0*log 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _output_laws(ch: DmcWthi) -> np.ndarray:
    """p(y1|x1,x2) and p(y2|x1,x2) zero-padded to one alphabet: (2, nx1, nx2, ny)."""
    w = np.zeros((2, ch.nx1, ch.nx2, max(ch.ny1, ch.ny2)))
    w[0, ..., : ch.ny1] = ch.receiver_marginal()
    w[1, ..., : ch.ny2] = ch.eavesdropper_marginal()
    return w


def _profile_table(w: np.ndarray, px1: np.ndarray, px2: np.ndarray) -> np.ndarray:
    """Profiles of the laws px1[k] x px2[k] as rows of ``MutualInfoProfile`` fields.

    ``w`` comes from ``_output_laws``, ``px1`` is (n, nx1) and ``px2`` (n, nx2);
    each field is a difference of conditional entropies, clamped at 0.
    """
    y_x1 = np.einsum("nj,oijy->noiy", px2, w)           # p(y|x1)
    y_x2 = np.einsum("ni,oijy->nojy", px1, w)           # p(y|x2)
    h_y = _entropy_rows(np.einsum("ni,noiy->noy", px1, y_x1))
    h_y_x1 = np.einsum("ni,noi->no", px1, _entropy_rows(y_x1))
    h_y_x2 = np.einsum("nj,noj->no", px2, _entropy_rows(y_x2))
    h_y_x1x2 = np.einsum("ni,nj,oij->no", px1, px2, _entropy_rows(w))
    fields = np.stack(
        [h_y_x2 - h_y_x1x2, h_y_x1 - h_y_x1x2, h_y - h_y_x1x2, h_y - h_y_x1], axis=-1
    )  # (n, output, 4)
    return np.maximum(fields, 0.0).reshape(-1, 8)


def mi_profile(ch: DmcWthi, inp: ProductInput) -> MutualInfoProfile:
    """Exact mutual informations of the product-input joint distribution."""
    if inp.px1.size != ch.nx1 or inp.px2.size != ch.nx2:
        raise DomainError(
            f"input sizes ({inp.px1.size}, {inp.px2.size}) do not match channel "
            f"alphabets ({ch.nx1}, {ch.nx2})"
        )
    row = _profile_table(_output_laws(ch), inp.px1[None, :], inp.px2[None, :])[0]
    return MutualInfoProfile(*row.tolist())


# ---------------------------------------------------------------------------
# Decodable-rate regions
# ---------------------------------------------------------------------------


def _require_rates(*vals: float) -> None:
    for v in vals:
        if not math.isfinite(v) or v < 0.0:
            raise DomainError(f"rates must be finite and >= 0, got {v!r}")


def in_region_receiver(prof: MutualInfoProfile, r1: float, r2: float) -> bool:
    """True iff the receiver can decode the message at rates (r1, r2).

    Joint-decoding branch (closed): r1 <= I(X1;Y1|X2), r2 <= I(X2;Y1|X1) and
    r1 + r2 <= I(X1,X2;Y1).  Separate-decoding branch: r1 <= I(X1;Y1) with
    r2 > I(X2;Y1|X1) strictly (the interference is too fast to decode and is
    treated as noise).
    """
    _require_rates(r1, r2)
    mac = (
        r1 <= prof.i_x1_y1_given_x2
        and r2 <= prof.i_x2_y1_given_x1
        and r1 + r2 <= prof.i_x1x2_y1
    )
    separate = r1 <= prof.i_x1_y1 and r2 > prof.i_x2_y1_given_x1
    return mac or separate


def in_region_eavesdropper(prof: MutualInfoProfile, r1d: float, r2: float) -> bool:
    """True iff the eavesdropper can decode the redundancy pair (r1d, r2).

    Both branches are taken closed (boundary pairs count as decodable), the
    conservative reading for the secrecy analysis.
    """
    _require_rates(r1d, r2)
    mac = (
        r1d <= prof.i_x1_y2_given_x2
        and r2 <= prof.i_x2_y2_given_x1
        and r1d + r2 <= prof.i_x1x2_y2
    )
    separate = r1d <= prof.i_x1_y2 and r2 >= prof.i_x2_y2_given_x1
    return mac or separate


# ---------------------------------------------------------------------------
# Achievable secrecy rate
# ---------------------------------------------------------------------------


def _breakpoint_search(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best secrecy rate of each profile-table row, with its dummy and redundancy rates.

    At dummy rate r2 the receiver supports r1 up to cap(r2) and a redundancy
    rate of required(r2) saturates the eavesdropper.  The candidate r2 are
    scanned in ascending order and a later one wins only by more than 1e-15,
    so ties break to the smallest r2.  Secrecy and redundancy rates are clamped at 0.
    """
    a1, a2, a12, a1m, b1, b2, b12, b1m = table.T[..., None]  # (n, 1) columns
    # 0, the breakpoints of both forms, and the four crossings of a constant
    # piece of one form with the sloped piece of the other
    r2 = np.concatenate([np.zeros_like(a1), a2, b2, a12 - a1, b12 - b1,
                         b12 - a1, b12 - a1m, a12 - b1, a12 - b1m], axis=1)
    r2 = np.sort(np.where(r2 >= 0.0, r2, np.inf), axis=1)  # negatives dropped last
    cap = np.where(r2 <= a2, np.minimum(a1, a12 - r2), a1m)
    required = np.where(r2 < b2, np.minimum(b1, b12 - r2), b1m)
    r1s = np.where(np.isinf(r2), -np.inf, cap - required)
    best, pick = np.full(len(table), -np.inf), np.zeros(len(table), dtype=int)
    for k in range(r2.shape[1]):
        wins = r1s[:, k] > best + 1e-15
        best, pick = np.where(wins, r1s[:, k], best), np.where(wins, k, pick)
    rows = np.arange(len(table))
    r1d = required[rows, pick]
    return np.where(best > 0.0, best, 0.0), r2[rows, pick], np.where(r1d > 0.0, r1d, 0.0)


def achievable_rate_fixed_input(prof: MutualInfoProfile) -> tuple[float, RateSplit]:
    """Best secrecy rate of the double-binning scheme at a fixed input law.

    The objective max(0, cap(r2) - required(r2)) is piecewise linear in the
    dummy rate r2 with slopes in {0, +-1}, so the supremum over r2 >= 0 is
    attained at a breakpoint of either piecewise form (or at a crossing,
    where the clamped objective is zero); ``_breakpoint_search`` evaluates
    that finite set.

    The returned split uses r1d equal to the redundancy requirement at the
    winning r2 and r1 = r1s + r1d, which the receiver supports by
    construction.  Regime tags: ``SILENT`` when no positive rate exists,
    ``NO_INTERFERER`` when the winning dummy rate is zero, ``TREAT_AS_NOISE``
    when it exceeds the receiver's conditional capacity for the interferer,
    ``JOINT_DECODE`` otherwise.
    """
    rates, r2s, r1ds = _breakpoint_search(np.asarray([astuple(prof)]))
    rate, r2, r1d = float(rates[0]), float(r2s[0]), float(r1ds[0])
    if rate == 0.0:
        return 0.0, RateSplit(r2=0.0, r1s=0.0, r1d=0.0, regime=Regime.SILENT)
    if r2 == 0.0:
        regime = Regime.NO_INTERFERER
    elif r2 > prof.i_x2_y1_given_x1:
        regime = Regime.TREAT_AS_NOISE
    else:
        regime = Regime.JOINT_DECODE
    return rate, RateSplit(r2=r2, r1s=rate, r1d=r1d, regime=regime)


def simplex_grid(dim: int, points_per_coord: int) -> list[np.ndarray]:
    """Lattice discretization of the probability simplex on ``dim`` outcomes.

    ``points_per_coord`` lattice points per coordinate axis (so step
    1/(points_per_coord-1)); enumeration order is deterministic.
    """
    if points_per_coord < 2:
        raise DomainError("points_per_coord must be >= 2")
    m = points_per_coord - 1
    out = []
    for cuts in itertools.combinations(range(m + dim - 1), dim - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + dim - 2 - prev)
        out.append(np.asarray(counts, dtype=float) / m)
    return out


_DESK_ALPHABET = 4
# Most input laws (or Sato objective evaluations) one search may enumerate:
# 4-ary inputs at grid 21 are 1771**2 = 3.1M laws, dmc_sato_bound(9, 21) is
# 9**4 * 21**2 = 2.9M evaluations.
_ENUMERATION_BUDGET = 4_000_000


def _check_desk_scale(ch: DmcWthi) -> None:
    if max(ch.nx1, ch.nx2, ch.ny1, ch.ny2) > _DESK_ALPHABET:
        raise DeskScaleError(
            f"alphabets {(ch.nx1, ch.nx2, ch.ny1, ch.ny2)} exceed the desk-scale "
            f"limit of {_DESK_ALPHABET}"
        )


def _check_budget(count: int, what: str) -> None:
    if count > _ENUMERATION_BUDGET:
        raise DeskScaleError(
            f"{count} {what} exceed the desk-scale enumeration budget of "
            f"{_ENUMERATION_BUDGET}; use a coarser grid"
        )


def _law_rows(ch: DmcWthi, grid_per_dim: int):
    """Profile table of the product-law grid, one row of the grid at a time.

    Yields ``(px1, px2s, table)`` in ``simplex_grid`` order: one ``px1`` with
    every ``px2`` of ``px2s``, and ``table[k]`` the ``MutualInfoProfile``
    fields of the law ``(px1, px2s[k])``.
    """
    _check_desk_scale(ch)
    if grid_per_dim < 2:
        raise DomainError("grid_per_dim must be >= 2")
    n1, n2 = (math.comb(grid_per_dim + n - 2, n - 1) for n in (ch.nx1, ch.nx2))
    _check_budget(n1 * n2, "input laws")
    w = _output_laws(ch)
    px2s = np.asarray(simplex_grid(ch.nx2, grid_per_dim))
    for px1 in simplex_grid(ch.nx1, grid_per_dim):
        yield px1, px2s, _profile_table(w, np.broadcast_to(px1, (n2, ch.nx1)), px2s)


def achievable_rate(
    ch: DmcWthi, grid_per_dim: int = 21
) -> tuple[float, ProductInput, RateSplit]:
    """Achievable secrecy rate maximized over a grid of product input laws.

    Each input simplex is discretized with ``grid_per_dim`` points per free
    coordinate.  Every pair is scored by ``_breakpoint_search``, a row of the
    law grid at a time, and only the winner's split is built, by
    ``achievable_rate_fixed_input``.  Iteration order is deterministic and a
    later law wins only by more than 1e-15, so ties keep the first
    (lexicographically smallest) grid point.  Desk scale only: alphabets of
    size at most 4 and at most ``_ENUMERATION_BUDGET`` laws.
    """
    if grid_per_dim < 3:
        raise DomainError("grid_per_dim must be >= 3")
    best_rate, best = -math.inf, None
    for px1, px2s, table in _law_rows(ch, grid_per_dim):
        rates = _breakpoint_search(table)[0]
        for k in np.flatnonzero(rates > best_rate + 1e-15):  # the only laws that can win
            if rates[k] > best_rate + 1e-15:
                best_rate, best = float(rates[k]), (px1, px2s[k], table[k])
    px1, px2, row = best
    rate, split = achievable_rate_fixed_input(MutualInfoProfile(*row.tolist()))
    return rate, ProductInput(px1, px2), split


# ---------------------------------------------------------------------------
# Regime special cases
# ---------------------------------------------------------------------------

_REGIME_SLACK = 1e-9


def _require_regime(name: str, fails: np.ndarray, px1: np.ndarray, px2s: np.ndarray) -> None:
    """Raise at the first law of the row where the regime condition fails."""
    if fails.any():
        px2 = px2s[int(np.argmax(fails))]
        raise RegimeMismatchError(
            f"{name}-regime condition fails at px1={px1.tolist()}, px2={px2.tolist()}"
        )


def weak_regime_rate(ch: DmcWthi, grid_per_dim: int = 21) -> float:
    """Closed-form secrecy rate in the weak interference/eavesdropping regime.

    Regime condition, checked at every grid input: the receiver hears the
    transmitter at least as well as the eavesdropper does conditionally, and
    the eavesdropper hears the interferer at least as well as the receiver
    does.  The rate is max over the grid of max(delta1, delta2) where
    delta1 = I(X1;Y1|X2) - I(X1;Y2|X2) and delta2 = I(X1;Y1) - I(X1;Y2).
    """
    best = -math.inf
    for px1, px2s, table in _law_rows(ch, grid_per_dim):
        a1, a2, _, a1m, b1, b2, _, b1m = table.T
        fails = (a1 < b1 - _REGIME_SLACK) | (b2 < a2 - _REGIME_SLACK)
        _require_regime("weak", fails, px1, px2s)
        best = max(best, float(np.max(np.maximum(a1 - b1, a1m - b1m))))
    return best


def strong_regime_rate(ch: DmcWthi, grid_per_dim: int = 21) -> float:
    """Closed-form secrecy rate in the strong interference/eavesdropping regime.

    Regime condition (checked at every grid input) is the reverse of the weak
    one.  The rate is max over the grid, clamped at zero, of
    min(I(X1,X2;Y1) - I(X1,X2;Y2), I(X1;Y1|X2) - I(X1;Y2)).
    """
    best = 0.0
    for px1, px2s, table in _law_rows(ch, grid_per_dim):
        a1, a2, a12, _, b1, b2, b12, b1m = table.T
        fails = (a1 > b1 + _REGIME_SLACK) | (b2 > a2 + _REGIME_SLACK)
        _require_regime("strong", fails, px1, px2s)
        best = max(best, float(np.max(np.minimum(a12 - b12, a1 - b1m))))
    return best


def very_strong_eavesdropping(ch: DmcWthi, grid_per_dim: int = 21) -> bool:
    """True iff I(X1;Y2) >= I(X1;Y1|X2) at every grid input (no positive rate)."""
    return all(
        bool(np.all(table[:, 7] >= table[:, 0] - _REGIME_SLACK))
        for _, _, table in _law_rows(ch, grid_per_dim)
    )


# ---------------------------------------------------------------------------
# Sato-type minimax bound (binary desk scale)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DmcSatoBound:
    """Grid-search Sato bound with an honest slack estimate.

    ``value`` is min over sampled noise couplings of the grid max over
    product inputs of I(X1,X2; Y1~ | Y2~).  The inner grid max undershoots
    the true max, so ``value`` alone may sit below the exact bound at that
    coupling; ``inner_tolerance`` estimates that undershoot (grid refinement
    gap plus local variation).  ``coupling_tolerance`` estimates how much the
    outer min could still descend between coupling grid nodes (local
    half-step sensitivity).  ``tolerance`` is their sum: the reported value
    is a valid upper bound up to ``inner_tolerance`` and is within
    ``tolerance`` of what this double grid could certify.
    """

    value: float
    inner_tolerance: float
    coupling_tolerance: float

    @property
    def tolerance(self) -> float:
        return self.inner_tolerance + self.coupling_tolerance


def _coupling_tensors(ch: DmcWthi, params: np.ndarray) -> np.ndarray:
    """Couplings q(y1, y2 | x1, x2) with the channel's marginals, binary outputs.

    ``params`` holds, per (x1, x2) pair, the position t in [0, 1] of
    q(0,0|x1,x2) inside its Frechet interval.  Shape (n, 4) -> (n, 2, 2, 2, 2).
    """
    m1 = ch.receiver_marginal()[..., 0]  # p(y1=0 | x1, x2), shape (2, 2)
    m2 = ch.eavesdropper_marginal()[..., 0]
    lo = np.maximum(0.0, m1 + m2 - 1.0).ravel()
    hi = np.minimum(m1, m2).ravel()
    q00 = lo[None, :] + params * (hi - lo)[None, :]  # (n, 4)
    m1f = m1.ravel()[None, :]
    m2f = m2.ravel()[None, :]
    q = np.empty((params.shape[0], 4, 2, 2))
    q[:, :, 0, 0] = q00
    q[:, :, 0, 1] = m1f - q00
    q[:, :, 1, 0] = m2f - q00
    q[:, :, 1, 1] = 1.0 - m1f - m2f + q00
    q = np.clip(q, 0.0, 1.0)
    return q.reshape(params.shape[0], 2, 2, 2, 2)


def _inner_objective(couplings: np.ndarray, px1: np.ndarray, px2: np.ndarray) -> np.ndarray:
    """I(X1,X2; Y1~ | Y2~) for every input law and every coupling.

    ``px1`` and ``px2`` are laws of shape (..., 2) with broadcastable leading
    axes and ``couplings`` has shape (n, 2, 2, 2, 2); the result is (..., n).
    """
    joint = (
        px1[..., None, :, None, None, None]
        * px2[..., None, None, :, None, None]
        * couplings
    )  # (..., n, x1, x2, y1, y2)
    lead = joint.shape[:-4]
    h_all = _entropy_rows(joint.reshape(*lead, -1))
    h_y1y2 = _entropy_rows(joint.sum(axis=(-4, -3)).reshape(*lead, -1))
    h_y2 = _entropy_rows(joint.sum(axis=(-4, -3, -2)))
    h_x_y2 = _entropy_rows(joint.sum(axis=-2).reshape(*lead, -1))
    # I = H(Y1|Y2) - H(Y1 | X1, X2, Y2)
    return (h_y1y2 - h_y2) - (h_all - h_x_y2)


def _grid_max(couplings: np.ndarray, inputs: list) -> np.ndarray:
    """Max of the inner objective over the input grid, for every coupling."""
    best = np.full(couplings.shape[0], -np.inf)
    for px1, px2 in inputs:
        best = np.maximum(best, _inner_objective(couplings, px1, px2))
    return best


def dmc_sato_bound(
    ch: DmcWthi, coupling_grid: int = 9, input_grid: int = 21
) -> DmcSatoBound:
    """Desk-scale Sato-type upper bound for binary-alphabet channels.

    Minimizes, over a grid of noise couplings whose marginals match the
    channel, the grid maximum over product inputs of the genie-aided
    conditional mutual information.  Binary alphabets only; the coupling
    space has one free parameter per input pair, discretized with
    ``coupling_grid`` points, and the inner maximization uses ``input_grid``
    points per input coordinate, at most ``_ENUMERATION_BUDGET`` evaluations
    in all.  See ``DmcSatoBound`` for what the reported tolerances cover.
    """
    if (ch.nx1, ch.nx2, ch.ny1, ch.ny2) != (2, 2, 2, 2):
        raise DeskScaleError("the Sato minimax search supports binary alphabets only")
    if coupling_grid < 2 or input_grid < 3:
        raise DomainError("coupling_grid must be >= 2 and input_grid >= 3")
    _check_budget(coupling_grid**4 * input_grid**2, "Sato objective evaluations")

    steps = np.linspace(0.0, 1.0, coupling_grid)
    params = np.asarray(list(itertools.product(steps, repeat=4)))
    couplings = _coupling_tensors(ch, params)

    t_axis = np.linspace(0.0, 1.0, input_grid)
    inputs = [(np.asarray([t1, 1 - t1]), np.asarray([t2, 1 - t2]))
              for t1 in t_axis for t2 in t_axis]

    inner_max = _grid_max(couplings, inputs)
    best_idx = int(np.argmin(inner_max))
    value = float(inner_max[best_idx])
    best_coupling = couplings[best_idx : best_idx + 1]

    # Inner-max quality at the winning coupling: refine the input grid 4x and
    # add the local variation of the refined surface as a Lipschitz cushion.
    fine_axis = np.linspace(0.0, 1.0, 4 * (input_grid - 1) + 1)
    fine = np.stack([fine_axis, 1 - fine_axis], axis=-1)
    surface = _inner_objective(best_coupling, fine[:, None], fine[None, :])[..., 0]
    fine_max = float(surface.max())
    local_var = max(
        float(np.max(np.abs(np.diff(surface, axis=0)))),
        float(np.max(np.abs(np.diff(surface, axis=1)))),
    )
    inner_tol = max(0.0, fine_max - value) + local_var

    # Outer-min sensitivity: half-step perturbations of the winning coupling.
    # Rows: -half, +half on parameter 0, then on 1, 2, 3.
    half_steps = np.kron(np.eye(4), [[-1.0], [1.0]]) * (0.5 / (coupling_grid - 1))
    perturbed = np.clip(params[best_idx] + half_steps, 0.0, 1.0)
    pert_max = _grid_max(_coupling_tensors(ch, perturbed), inputs)
    coupling_tol = max(0.0, value - float(pert_max.min()))
    return DmcSatoBound(value=value, inner_tolerance=inner_tol, coupling_tolerance=coupling_tol)
