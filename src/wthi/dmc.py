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

H(Y|x1,x2) is a constant of the channel, H(Y|x2) one of p(x1) and H(Y|x1)
one of p(x2).  Every grid search reads these profiles from one table, in
blocks of whole p(x1) rows of the law grid, with p(y|x1) and H(Y|x1) formed
once; the rate search scores only the laws whose I(X1;Y1|X2) can reach the
best rate, yet finds the exhaustive scan's winner.  The output marginals sum
the other output in sorted order: cells of equal terms are equal doubles.  The
Sato objective uses the chain rule I(X1,X2;Y1~|Y2~) = I(X1,X2;Y1~,Y2~) -
I(X1,X2;Y2): every coupling keeps the channel's Y2 marginal, so the second
term is computed once per input law.  A coupling takes one grid position per
input cell, so each coupling and its entropies H(Y1~,Y2~|x) are gathered from
one per-cell table built once per search (the winner's half-step perturbations
from one of three positions per cell); the min over couplings skips each
coupling whose value at a few witness laws exceeds a coupling's max.

All information quantities are in bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DeskScaleError, DomainError, RegimeMismatchError, _check_budget, _count
from .gaussian import _SILENT_SPLIT, RateSplit, Regime

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
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        t = np.asarray(self.transition, dtype=float)
        expected = (self.nx1, self.nx2, self.ny1, self.ny2)
        if t.shape != expected:
            raise DomainError(f"transition shape {t.shape} does not match {expected}")
        if not np.all((t >= -_SIMPLEX_TOL) & (t <= 1.0 + _SIMPLEX_TOL)):  # NaN fails too
            raise DomainError("transition entries must lie in [0, 1]")
        sums = t.sum(axis=(2, 3))
        if not np.all(np.abs(sums - 1.0) <= _SIMPLEX_TOL):
            bad = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise DomainError(
                f"conditional slice (x1={bad[0]}, x2={bad[1]}) sums to {sums[bad]!r}, not 1"
            )
        t = np.clip(t, 0.0, 1.0)
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)

    def receiver_marginal(self) -> np.ndarray:
        """p(y1 | x1, x2), shape (nx1, nx2, ny1), summed in canonical order."""
        return np.sort(self.transition, axis=3).sum(axis=3)

    def eavesdropper_marginal(self) -> np.ndarray:
        """p(y2 | x1, x2), shape (nx1, nx2, ny2), summed in canonical order."""
        return np.sort(self.transition, axis=2).sum(axis=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "DmcWthi":
        sizes = ("nx1", "nx2", "ny1", "ny2")
        missing = {*sizes, "transition"} - set(doc)
        if missing:
            raise DomainError(f"channel document missing fields: {sorted(missing)}")
        try:
            t = np.asarray(doc["transition"])
        except ValueError as exc:  # a ragged nesting
            raise DomainError(f"transition is not a numeric array: {exc}") from exc
        if t.dtype.kind not in "iuf":
            raise DomainError(f"transition is not a numeric array, got dtype {t.dtype}")
        return cls(*(doc[name] for name in sizes), t.astype(float))


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
            if not (np.all(p >= -_SIMPLEX_TOL) and abs(float(p.sum()) - 1.0) <= _SIMPLEX_TOL):
                raise DomainError(f"{name} must be a pmf summing to 1, got {p!r}")
            p = np.clip(p, 0.0, None)
            p.setflags(write=False)
            object.__setattr__(self, name, p)

    @classmethod
    def uniform(cls, nx1: int, nx2: int) -> "ProductInput":
        nx1, nx2 = _count("nx1", nx1, 1), _count("nx2", nx2, 1)
        return cls(np.full(nx1, 1.0 / nx1), np.full(nx2, 1.0 / nx2))


def _check_input_sizes(ch: DmcWthi, inp: ProductInput) -> None:
    sizes, alphabets = (inp.px1.size, inp.px2.size), (ch.nx1, ch.nx2)
    if sizes != alphabets:
        raise DomainError(f"input sizes {sizes} do not match channel alphabets {alphabets}")


@dataclass(frozen=True)
class MutualInfoProfile:
    """The eight mutual informations that define the decodable-rate regions.

    Rate searches take an input law's profile, where on each output Y, up to
    rounding, I(X1,X2;Y) = I(X2;Y|X1) + I(X1;Y) (the chain rule) and
    I(X1;Y) <= I(X1;Y|X2) (the inputs are independent).
    """

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
        terms = p * np.log2(p)
    terms[~(p > 0.0)] = 0.0
    return -terms.sum(axis=-1)


def _output_laws(ch: DmcWthi, px2s: np.ndarray) -> tuple[np.ndarray, ...]:
    """Constants of a search over p(x1) against the laws ``px2s`` (n, nx2).

    Returns ``w`` = p(y1|x1,x2) and p(y2|x1,x2) padded to one alphabet
    (2, nx1, nx2, ny), H(Y|x1,x2), p(y|x1) per law of ``px2s``
    (n, 2, nx1, ny) and its entropies H(Y|x1) (n, 2, nx1), in the order
    ``_profile_table`` takes them.
    """
    w = np.zeros((2, ch.nx1, ch.nx2, max(ch.ny1, ch.ny2)))
    w[0, ..., : ch.ny1] = ch.receiver_marginal()
    w[1, ..., : ch.ny2] = ch.eavesdropper_marginal()
    y_x1 = np.einsum("nj,oijy->noiy", px2s, w)
    return w, _entropy_rows(w), y_x1, _entropy_rows(y_x1)


def _profile_table(w: np.ndarray, h_w: np.ndarray, y_x1: np.ndarray, h_x1: np.ndarray,
                   px1s: np.ndarray, px2s: np.ndarray) -> np.ndarray:
    """Profiles of the laws px1s[i] x px2s[k] as rows of ``MutualInfoProfile`` fields.

    The first four arguments come from ``_output_laws`` for ``px2s``;
    ``px1s`` is a block of laws (m, nx1).  Rows run px1 slow, px2 fast.
    p(y|x1) and H(Y|x1) are constants of ``px2s`` and p(y|x2) and H(Y|x2) of
    ``px1s``, so only p(y) is formed per law.  Each field is a difference of
    conditional entropies, clamped at 0, and I(X1;Y) is clamped at I(X1;Y|X2).
    """
    h_x2 = _entropy_rows(np.einsum("mi,oijy->mojy", px1s, w))  # H(Y|x2), (m, output, nx2)
    h_y = _entropy_rows(np.einsum("mi,noiy->mnoy", px1s, y_x1))
    h_y_x1 = np.einsum("mi,noi->mno", px1s, h_x1)
    h_y_x2 = np.einsum("nj,moj->mno", px2s, h_x2)
    h_y_x1x2 = np.einsum("mi,nj,oij->mno", px1s, px2s, h_w)
    fields = np.maximum(np.stack(
        [h_y_x2 - h_y_x1x2, h_y_x1 - h_y_x1x2, h_y - h_y_x1x2, h_y - h_y_x1], axis=-1
    ), 0.0)  # (m, n, output, 4)
    fields[..., 3] = np.minimum(fields[..., 3], fields[..., 0])
    return fields.reshape(-1, 8)


def mi_profile(ch: DmcWthi, inp: ProductInput) -> MutualInfoProfile:
    """Exact mutual informations of the product-input joint distribution."""
    _check_input_sizes(ch, inp)
    px2s = inp.px2[None, :]
    row = _profile_table(*_output_laws(ch, px2s), inp.px1[None, :], px2s)[0]
    return MutualInfoProfile(*row.tolist())


# ---------------------------------------------------------------------------
# Decodable-rate regions
# ---------------------------------------------------------------------------


def _decodable(table: np.ndarray, r2) -> tuple[np.ndarray, np.ndarray]:
    """Receiver cap on r1 and eavesdropper redundancy requirement at dummy rate r2.

    ``table`` holds ``MutualInfoProfile`` rows; ``r2`` is a scalar or has one
    row of rates per table row.  The receiver decodes r1 exactly when
    r1 <= cap(r2): min(I(X1;Y1|X2), I(X1,X2;Y1) - r2) on the closed
    joint-decoding branch r2 <= I(X2;Y1|X1), and I(X1;Y1) on the separate
    branch, which starts strictly above I(X2;Y1|X1).  The eavesdropper
    decodes r1d exactly when r1d <= required(r2): min(I(X1;Y2|X2),
    I(X1,X2;Y2) - r2) while r2 < I(X2;Y2|X1), and I(X1;Y2) from
    I(X2;Y2|X1) on, so both of its regions are closed.
    """
    a1, a2, a12, a1m, b1, b2, b12, b1m = table.T[..., None]  # (n, 1) columns
    cap = np.where(r2 <= a2, np.minimum(a1, a12 - r2), a1m)
    required = np.where(r2 < b2, np.minimum(b1, b12 - r2), b1m)
    return cap, required


# ---------------------------------------------------------------------------
# Achievable secrecy rate
# ---------------------------------------------------------------------------


def _breakpoint_search(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best secrecy rate of each profile-table row, with its dummy and redundancy rates.

    At dummy rate r2 the receiver supports r1 up to cap(r2) and a redundancy
    rate of required(r2) saturates the eavesdropper, both from ``_decodable``.
    On an input law's profile cap is flat up to I(X2;Y1), has slope -1 up to
    I(X2;Y1|X1), then is flat; required has the same shape with kinks at
    I(X2;Y2) and I(X2;Y2|X1).  So the slope of cap - required falls only at
    I(X2;Y1) and I(X2;Y2|X1), and its smallest maximiser is r2 = 0 or one of
    them.  These three candidates, clipped at 0, are scanned in ascending order
    and a later one wins only by more than 1e-15, so ties break to the smallest
    r2.  Rates are clamped at 0.
    """
    a1, _, a12, _, _, b2, _, _ = table.T[..., None]  # (n, 1) columns
    r2 = np.concatenate([np.zeros_like(a1), a12 - a1, b2], axis=1)
    r2 = np.sort(np.maximum(r2, 0.0), axis=1)
    cap, required = _decodable(table, r2)
    r1s = cap - required
    best, pick = np.full(len(table), -np.inf), np.zeros(len(table), dtype=int)
    for k in range(r2.shape[1]):
        wins = r1s[:, k] > best + 1e-15
        best, pick = np.where(wins, r1s[:, k], best), np.where(wins, k, pick)
    rows = np.arange(len(table))
    r1d = required[rows, pick]
    return np.where(best > 0.0, best, 0.0), r2[rows, pick], np.where(r1d > 0.0, r1d, 0.0)


def achievable_rate_fixed_input(prof: MutualInfoProfile) -> tuple[float, RateSplit]:
    """Best secrecy rate of the double-binning scheme at a fixed input law.

    ``prof`` must be an input law's profile, or ``DomainError`` is raised: every
    field finite and >= 0, and both identities of ``MutualInfoProfile`` within
    1e-12 on each output.  Then the slope of cap(r2) - required(r2) falls only
    at I(X2;Y1) and I(X2;Y2|X1), so the best rate is at r2 = 0 or at one of
    them (``_breakpoint_search``).
    """
    table = np.asarray([astuple(prof)], dtype=float)
    given, other, joint, plain = table.reshape(2, 4).T  # per output: Y1, Y2
    if not (np.isfinite(table).all() and table.min() >= 0.0 and np.all(
            (np.abs(joint - other - plain) <= _SIMPLEX_TOL) & (plain <= given + _SIMPLEX_TOL))):
        raise DomainError(f"not the profile of an input law: {prof}")
    return _split(table[0], *(column[0] for column in _breakpoint_search(table)))


def _split(row: np.ndarray, rate: float, r2: float, r1d: float) -> tuple[float, RateSplit]:
    """The rate and split of one ``_breakpoint_search`` result, at profile-table ``row``.

    The split uses r1d equal to the redundancy requirement at the winning r2
    and r1 = r1s + r1d, which the receiver supports by construction.  Regime
    tags: ``SILENT`` when no positive rate exists, ``NO_INTERFERER`` when the
    winning dummy rate is zero, ``TREAT_AS_NOISE`` when it exceeds the
    receiver's conditional capacity for the interferer, ``JOINT_DECODE`` otherwise.
    """
    rate, r2, r1d = float(rate), float(r2), float(r1d)
    if rate == 0.0:
        return 0.0, _SILENT_SPLIT
    regime = (Regime.NO_INTERFERER if r2 == 0.0 else
              Regime.TREAT_AS_NOISE if r2 > row[1] else Regime.JOINT_DECODE)
    return rate, RateSplit(r2=r2, r1s=rate, r1d=r1d, regime=regime)


def simplex_grid(dim: int, points_per_coord: int) -> np.ndarray:
    """Lattice discretization of the probability simplex on ``dim`` outcomes.

    ``points_per_coord`` lattice points per coordinate axis (so step
    1/(points_per_coord-1)), one point per row of the returned (count, dim)
    array; enumeration order is deterministic.
    """
    dim, m = _count("dim", dim, 1), _count("points_per_coord", points_per_coord, 2) - 1
    _check_budget(math.comb(m + dim - 1, dim - 1), "simplex points")
    # stars and bars: the counts are the gaps between the bars at -1, cuts, m + dim - 1
    bars = [(-1, *cuts, m + dim - 1)
            for cuts in itertools.combinations(range(m + dim - 1), dim - 1)]
    return (np.diff(bars, axis=1) - 1) / m


_DESK_ALPHABET = 4

# Most input laws in one block of the profile table; a block holds at least
# one p(x1) row of the grid.
_LAW_BLOCK = 2**12


def _law_rows(ch: DmcWthi, grid_per_dim: int):
    """Profile table of the product-law grid, in blocks of whole p(x1) rows.

    Yields ``(px1s, px2s, table)`` in ``simplex_grid`` order: the laws
    px1s[i] x px2s[k] for every pair, px1 slow and px2 fast, at most
    ``_LAW_BLOCK`` of them unless one row alone is longer, with
    ``table[i * len(px2s) + k]`` the ``MutualInfoProfile`` fields of the
    law ``(px1s[i], px2s[k])``.  p(y|x1) and H(Y|x1) are computed once per
    search, and a row's values do not depend on its block.
    """
    if max(ch.nx1, ch.nx2, ch.ny1, ch.ny2) > _DESK_ALPHABET:
        raise DeskScaleError(
            f"alphabets {(ch.nx1, ch.nx2, ch.ny1, ch.ny2)} exceed the desk-scale "
            f"limit of {_DESK_ALPHABET}"
        )
    grid_per_dim = _count("grid_per_dim", grid_per_dim, 2)
    n1, n2 = (math.comb(grid_per_dim + n - 2, n - 1) for n in (ch.nx1, ch.nx2))
    _check_budget(n1 * n2, "input laws")
    px2s = simplex_grid(ch.nx2, grid_per_dim)
    laws = _output_laws(ch, px2s)
    px1_grid = simplex_grid(ch.nx1, grid_per_dim)
    step = max(1, _LAW_BLOCK // n2)
    for s in range(0, n1, step):
        px1s = px1_grid[s : s + step]
        yield px1s, px2s, _profile_table(*laws, px1s, px2s)


def achievable_rate(ch: DmcWthi, grid_per_dim: int = 21) -> tuple[float, ProductInput, RateSplit]:
    """Achievable secrecy rate maximized over a grid of product input laws.

    Each input simplex is discretized with ``grid_per_dim`` points per free
    coordinate, and the grid is read a block at a time (``_law_rows``).  The
    order is deterministic and a later law wins only by more than 1e-15, so
    ties keep the first (lexicographically smallest) grid point.  Desk scale
    only: alphabets of size at most 4 and at most ``_ENUMERATION_BUDGET`` laws.

    A law's rate is at most I(X1;Y1|X2), as cap(r2) is and required(r2) >= 0,
    so a block scores only the laws whose I(X1;Y1|X2) + 1e-12 (for rounding)
    reaches ``floor``: the best rate so far or at three probe laws (the block's
    maxima of I(X1;Y1|X2), delta1 and delta2 of ``weak_regime_rate``), less a
    margin of 2e-15 per grid law.  The result is the exhaustive scan's: every
    skipped rate is below M - margin, M the grid's best, and the grid's running
    records climb from below it to M in at most one step per law, so one at or
    above M - margin beats every earlier law, skipped or not, by over 1e-15;
    both scans take it, and no skipped law can win after it.  Scored laws are
    scanned at their running records, and the winner's split is its own.
    """
    grid_per_dim = _count("grid_per_dim", grid_per_dim, 3)
    margin = 2e-15 * math.prod(math.comb(grid_per_dim + n - 2, n - 1) for n in (ch.nx1, ch.nx2))
    best_rate, best = -math.inf, None
    for px1s, px2s, table in _law_rows(ch, grid_per_dim):
        a1 = table[:, 0]
        probes = [np.argmax(a1), np.argmax(a1 - table[:, 4]), np.argmax(table[:, 3] - table[:, 7])]
        floor = max(best_rate, _breakpoint_search(table[probes])[0].max()) - margin
        kept = np.flatnonzero(a1 + 1e-12 >= floor)
        rates, r2s, r1ds = _breakpoint_search(table[kept])
        earlier = np.maximum.accumulate(np.concatenate([[best_rate], rates[:-1]]))
        for j in np.flatnonzero(rates > earlier):  # the only laws that can win
            if rates[j] > best_rate + 1e-15:
                i, k = divmod(int(kept[j]), len(px2s))
                best_rate, best = rates[j], (px1s[i], px2s[k], table[kept[j]], r2s[j], r1ds[j])
    rate, split = _split(best[2], best_rate, *best[3:])
    return rate, ProductInput(*best[:2]), split


# ---------------------------------------------------------------------------
# Regime special cases
# ---------------------------------------------------------------------------

_REGIME_SLACK = 1e-9


def _require_regime(name: str, fails: np.ndarray, px1s: np.ndarray, px2s: np.ndarray) -> None:
    """Raise at the first law of the block where the regime condition fails."""
    if fails.any():
        i, k = divmod(int(np.argmax(fails)), len(px2s))
        raise RegimeMismatchError(f"{name}-regime condition fails at "
                                  f"px1={px1s[i].tolist()}, px2={px2s[k].tolist()}")


def weak_regime_rate(ch: DmcWthi, grid_per_dim: int = 21) -> float:
    """Closed-form secrecy rate in the weak interference/eavesdropping regime.

    Regime condition, checked at every grid input: the receiver hears the
    transmitter at least as well as the eavesdropper does conditionally, and
    the eavesdropper hears the interferer at least as well as the receiver
    does.  The rate is max over the grid of max(delta1, delta2) where
    delta1 = I(X1;Y1|X2) - I(X1;Y2|X2) and delta2 = I(X1;Y1) - I(X1;Y2).
    """
    best = -math.inf
    for px1s, px2s, table in _law_rows(ch, grid_per_dim):
        a1, a2, _, a1m, b1, b2, _, b1m = table.T
        fails = (a1 < b1 - _REGIME_SLACK) | (b2 < a2 - _REGIME_SLACK)
        _require_regime("weak", fails, px1s, px2s)
        best = max(best, float(np.max(np.maximum(a1 - b1, a1m - b1m))))
    return best


def strong_regime_rate(ch: DmcWthi, grid_per_dim: int = 21) -> float:
    """Closed-form secrecy rate in the strong interference/eavesdropping regime.

    Regime condition (checked at every grid input) is the reverse of the weak
    one.  The rate is max over the grid, clamped at zero, of
    min(I(X1,X2;Y1) - I(X1,X2;Y2), I(X1;Y1|X2) - I(X1;Y2)).
    """
    best = 0.0
    for px1s, px2s, table in _law_rows(ch, grid_per_dim):
        a1, a2, a12, _, b1, b2, b12, b1m = table.T
        fails = (a1 > b1 + _REGIME_SLACK) | (b2 > a2 + _REGIME_SLACK)
        _require_regime("strong", fails, px1s, px2s)
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

    ``value`` is the min over the whole coupling grid (the search skips only
    couplings that cannot attain it) of the grid max over product inputs of
    I(X1,X2; Y1~ | Y2~).  That inner grid max undershoots the exact max at the
    coupling by about ``inner_tolerance`` (grid refinement gap plus local
    variation), and the outer min could still descend by about
    ``coupling_tolerance`` between coupling grid nodes (local half-step
    sensitivity).  ``value`` is a valid upper bound up to ``inner_tolerance``,
    and within their sum ``tolerance`` of what this double grid could certify.
    """

    value: float
    inner_tolerance: float
    coupling_tolerance: float

    @property
    def tolerance(self) -> float:
        return self.inner_tolerance + self.coupling_tolerance


def _coupling_tensors(ch: DmcWthi, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Couplings q(y1, y2 | x1, x2) with the channel's marginals, binary outputs.

    ``params`` holds, per (x1, x2) pair, the position t in [0, 1] of
    q(0,0|x1,x2) inside its Frechet interval.  Shape (n, cells) -> couplings
    (n, cells, 2, 2), the input cells in (x1, x2) order, and their entropies
    H(Y1~,Y2~|x) (n, cells); (n, 1) puts every cell at the same t.  Each cell's
    coupling and entropy depend only on its own t.
    """
    m1 = ch.receiver_marginal()[..., 0].ravel()  # p(y1=0 | x1, x2)
    m2 = ch.eavesdropper_marginal()[..., 0].ravel()
    lo = np.maximum(0.0, m1 + m2 - 1.0)
    q00 = lo + params * (np.minimum(m1, m2) - lo)  # (n, cells)
    q = np.clip(np.stack([q00, m1 - q00, m2 - q00, 1.0 - m1 - m2 + q00], axis=-1), 0.0, 1.0)
    return q.reshape(*q00.shape, 2, 2), _entropy_rows(q)


# Most (input law, coupling, cell) entries in one chunk of the Sato table; a chunk
# holds at least one law, and ``_sliced_max`` gathers the couplings filling one at a law.
_SATO_CHUNK = 2**16


def _couplings(table: tuple, index) -> tuple[np.ndarray, np.ndarray]:
    """Grid couplings ``index`` and their entropies from the cell table, the last digit fastest."""
    positions, cells = table[1].shape
    rows = cells * np.stack(np.unravel_index(index, (positions,) * cells), -1) + np.arange(cells)
    return tuple(np.take(part.reshape(-1, *part.shape[2:]), rows, axis=0) for part in table)


def _sato_laws(ch: DmcWthi, px1s: np.ndarray, px2s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell weights w(x) = p(x1)p(x2) of the laws px1s[i] x px2s[k], and I(X1,X2;Y2).

    Rows run px1 slow, px2 fast, as in ``_law_rows``; I(X1,X2;Y2) is the
    ``_sato_blocks`` objective of p(y2|x), a table with one position, with law constant 0.
    """
    w = (px1s[:, None, :, None] * px2s[None, :, None, :]).reshape(len(px1s) * len(px2s), -1)
    m2 = ch.eavesdropper_marginal().reshape(1, w.shape[1], -1, 1)  # p(y2|x) in cell order
    i_y2 = np.concatenate(list(_sato_blocks(m2, _entropy_rows(m2[..., 0]), w, np.zeros(len(w)))))
    return w, i_y2[:, 0]


def _sato_blocks(q: np.ndarray, h: np.ndarray, w: np.ndarray, i_y2: np.ndarray):
    """I(X1,X2; Y1~ | Y2~) of the laws of ``_sato_laws`` under every coupling of ``q``.

    By the chain rule this is H(Y1~,Y2~) - sum_x w(x) H(Y1~,Y2~|x) - I(X1,X2;Y2),
    and H(Y1~,Y2~|x), ``h`` (n, cells), is a constant of the coupling, read from
    its cell table (``_couplings``): only the mixture p(y1, y2) needs entropies
    per (law, coupling).  Yields (chunk, n) blocks in law order; the sums over x
    run in cell order, so a (law, coupling) value depends on no other law or coupling.
    """
    qt = np.ascontiguousarray(np.moveaxis(q, 0, -1))[:, :, :, None, :]  # (x, y1, y2, 1, n)
    step, cells = max(1, _SATO_CHUNK // h.size), h.shape[1]  # h is (n, cells)
    for s in range(0, len(w), step):
        wk = w[s : s + step, :, None]
        mix = sum(wk[:, x] * qt[x] for x in range(cells))  # (y1, y2, chunk, n)
        yield (_entropy_rows(np.moveaxis(mix.reshape(-1, *mix.shape[2:]), 0, -1))
               - sum(wk[:, x] * h[:, x] for x in range(cells)) - i_y2[s : s + step, None])


def _sliced_max(table: tuple, idx: np.ndarray, w: np.ndarray, i_y2: np.ndarray):
    """Max of the inner objective over the laws of ``_sato_laws`` for each grid coupling ``idx``."""
    step = _SATO_CHUNK // table[1].shape[1]
    parts = (_sato_blocks(*_couplings(table, part), w, i_y2)
             for part in np.split(idx, range(step, len(idx), step)))
    return np.concatenate([functools.reduce(np.maximum, (b.max(axis=0) for b in blocks))
                           for blocks in parts])


def _least_coupling(table: tuple, w: np.ndarray, i_y2: np.ndarray) -> tuple[int, float]:
    """First index and value of the least ``_sliced_max`` over the grid couplings of ``table``.

    ``table`` is the cell table of ``dmc_sato_bound``.  Three rounds each add
    a witness law to ``lb`` (first law ``len(w) // 2``: the centre law for an
    odd input grid, the edge law p(x2) = [0, 1] for an even one; then the
    argmax law of the last evaluated coupling), evaluate the survivor of least
    ``lb`` in full, then drop it and prune by the rule of ``dmc_sato_bound``;
    then the survivors are evaluated.  No coupling is evaluated in full twice.
    """
    idx, lb = np.arange(len(table[1]) ** table[1].shape[1]), -np.inf
    witness, upper, incumbent = [len(w) // 2], math.inf, 0
    for _ in range(3):
        lb = np.maximum(lb, _sliced_max(table, idx, w[witness], i_y2[witness]))
        j = int(np.argmin(lb))
        column = np.concatenate(list(_sato_blocks(*_couplings(table, idx[[j]]), w, i_y2)))[:, 0]
        upper, incumbent = min((upper, incumbent), (float(column.max()), int(idx[j])))
        keep = ((lb < upper) | ((lb == upper) & (idx < incumbent))) & (idx != idx[j])
        idx, lb, witness = idx[keep], lb[keep], [int(np.argmax(column))]
        if not len(idx):
            return incumbent, upper
    inner_max = _sliced_max(table, idx, w, i_y2)
    upper, incumbent = min([(upper, incumbent), *zip(inner_max.tolist(), idx.tolist())])
    return incumbent, upper


def dmc_sato_bound(ch: DmcWthi, coupling_grid: int = 9, input_grid: int = 21) -> DmcSatoBound:
    """Desk-scale Sato-type upper bound for binary-alphabet channels.

    Minimizes, over a grid of noise couplings whose marginals match the
    channel, the grid maximum over product inputs of the genie-aided
    conditional mutual information.  Binary alphabets only; the coupling
    space has one free parameter per input cell (x1, x2), discretized with
    ``coupling_grid`` points, and the inner maximization runs over the
    product of the ``simplex_grid`` laws with ``input_grid`` points per
    coordinate, in bounded chunks (``_sato_blocks``).  The cell table, the
    per-cell couplings of every grid position with their entropies
    H(Y1~,Y2~|x), is built once; each pass gathers its couplings and their
    entropies from it, ``_SATO_CHUNK // cells`` at a time.

    The outer min is an exact branch and bound (``_least_coupling``).  The
    objective at any grid law is a lower bound ``lb`` on a coupling's grid
    max, and the grid max of an evaluated coupling, the incumbent, an upper
    bound on the least.  A coupling with ``lb`` above it can neither be the
    minimiser nor tie with it, and one with an equal ``lb`` at a later index
    loses the tie to the incumbent, so both are skipped.  No slack is needed:
    a (law, coupling) value depends on no other law or coupling, so each
    ``lb`` and incumbent is the float the exhaustive scan computes, and the
    coupling and ``value`` are that scan's.  ``_ENUMERATION_BUDGET`` counts
    the worst case, where every coupling survives: three witness passes,
    three incumbent columns, the full pass, the perturbed couplings and the
    refined surface, 2,924,496 at the default (9, 21).  ``DmcSatoBound`` says
    what the tolerances cover.
    """
    if (ch.nx1, ch.nx2, ch.ny1, ch.ny2) != (2, 2, 2, 2):
        raise DeskScaleError("the Sato minimax search supports binary alphabets only")
    coupling_grid = _count("coupling_grid", coupling_grid, 2)
    input_grid = _count("input_grid", input_grid, 3)
    cells, m = ch.nx1 * ch.nx2, 4 * (input_grid - 1) + 1
    n_laws = math.prod(math.comb(input_grid + n - 2, n - 1) for n in (ch.nx1, ch.nx2))
    # every coupling at every law and at 3 witness laws, 3 incumbent columns and
    # 2 perturbed couplings per cell on the coarse laws, then the refined surface
    _check_budget(coupling_grid**cells * (n_laws + 3) + (3 + 2 * cells) * n_laws + m * m,
                  "Sato objective evaluations")

    t = np.linspace(0.0, 1.0, coupling_grid)
    table = _coupling_tensors(ch, t[:, None])  # couplings and entropies per (position, cell)
    laws = _sato_laws(ch, *(simplex_grid(n, input_grid) for n in (ch.nx1, ch.nx2)))
    best_idx, value = _least_coupling(table, *laws)
    best = t[list(np.unravel_index(best_idx, (coupling_grid,) * cells))]

    # Inner-max quality at the winning coupling: refine the binary input grid
    # 4x and add the local variation of the refined surface as a Lipschitz cushion.
    q_best, fine_laws = _couplings(table, [best_idx]), _sato_laws(ch, *[simplex_grid(2, m)] * 2)
    surface = np.concatenate(list(_sato_blocks(*q_best, *fine_laws))).reshape(m, m)
    local_var = max(float(np.max(np.abs(np.diff(surface, axis=a)))) for a in (0, 1))
    inner_tol = max(0.0, float(surface.max()) - value) + local_var

    # Outer-min sensitivity: half-step perturbations of the winning coupling, read
    # from a table of the positions -half, 0 and +half of each cell (digits 0, 1, 2):
    # one cell at digit 0 or 2 and every other cell at digit 1.
    shifts = np.array([[-0.5], [0.0], [0.5]]) / (coupling_grid - 1)
    around = _coupling_tensors(ch, np.clip(best + shifts, 0.0, 1.0))
    perturbed = (3 ** cells - 1) // 2 + np.outer(3 ** np.arange(cells), [-1, 1]).ravel()
    coupling_tol = max(0.0, value - float(_sliced_max(around, perturbed, *laws).min()))
    return DmcSatoBound(value=value, inner_tolerance=inner_tol, coupling_tolerance=coupling_tol)
