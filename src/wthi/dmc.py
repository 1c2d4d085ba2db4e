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
blocks of whole rows of the input-law grid (a row is one p(x1) with every
p(x2)); p(y|x1) and H(Y|x1) are formed once per search.  The output
marginals p(y1|x1,x2) and p(y2|x1,x2) sum the other output in canonical
(sorted) order, so cells that sum the same terms are the same double.  The
Sato objective uses the chain rule I(X1,X2;Y1~|Y2~) = I(X1,X2;Y1~,Y2~) -
I(X1,X2;Y2): every coupling keeps the channel's Y2 marginal, so the second
term is computed once per input law.

All information quantities are in bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DeskScaleError, DomainError, RegimeMismatchError, _check_budget, _count
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
    conditional entropies, clamped at 0.
    """
    h_x2 = _entropy_rows(np.einsum("mi,oijy->mojy", px1s, w))  # H(Y|x2), (m, output, nx2)
    h_y = _entropy_rows(np.einsum("mi,noiy->mnoy", px1s, y_x1))
    h_y_x1 = np.einsum("mi,noi->mno", px1s, h_x1)
    h_y_x2 = np.einsum("nj,moj->mno", px2s, h_x2)
    h_y_x1x2 = np.einsum("mi,nj,oij->mno", px1s, px2s, h_w)
    fields = np.stack(
        [h_y_x2 - h_y_x1x2, h_y_x1 - h_y_x1x2, h_y - h_y_x1x2, h_y - h_y_x1], axis=-1
    )  # (m, n, output, 4)
    return np.maximum(fields, 0.0).reshape(-1, 8)


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
    The candidate r2 are scanned in ascending order and a later one wins only
    by more than 1e-15, so ties break to the smallest r2.  Secrecy and redundancy rates are clamped at 0.
    """
    a1, a2, a12, a1m, b1, b2, b12, b1m = table.T[..., None]  # (n, 1) columns
    # 0, the breakpoints of both forms, and the four crossings of a constant
    # piece of one form with the sloped piece of the other
    r2 = np.concatenate([np.zeros_like(a1), a2, b2, a12 - a1, b12 - b1,
                         b12 - a1, b12 - a1m, a12 - b1, a12 - b1m], axis=1)
    r2 = np.sort(np.where(r2 >= 0.0, r2, np.inf), axis=1)  # negatives dropped last
    cap, required = _decodable(table, r2)
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


def achievable_rate(
    ch: DmcWthi, grid_per_dim: int = 21
) -> tuple[float, ProductInput, RateSplit]:
    """Achievable secrecy rate maximized over a grid of product input laws.

    Each input simplex is discretized with ``grid_per_dim`` points per free
    coordinate.  Every pair is scored by ``_breakpoint_search``, a block of
    the law grid at a time (``_law_rows``), and only the winner's split is
    built, by ``achievable_rate_fixed_input``.  Iteration order is
    deterministic and a later law wins only by more than 1e-15, so ties keep
    the first (lexicographically smallest) grid point.  A winner exceeds
    every earlier rate, so each block is scanned in order only at its strict
    running records.  Desk scale only: alphabets of size at most 4 and at
    most ``_ENUMERATION_BUDGET`` laws.
    """
    grid_per_dim = _count("grid_per_dim", grid_per_dim, 3)
    best_rate, best = -math.inf, None
    for px1s, px2s, table in _law_rows(ch, grid_per_dim):
        rates = _breakpoint_search(table)[0]
        earlier = np.maximum.accumulate(np.concatenate([[best_rate], rates[:-1]]))
        for k in np.flatnonzero(rates > earlier):  # the only laws that can win
            if rates[k] > best_rate + 1e-15:
                best_rate, best = float(rates[k]), (*_law_at(px1s, px2s, k), table[k])
    px1, px2, row = best
    rate, split = achievable_rate_fixed_input(MutualInfoProfile(*row.tolist()))
    return rate, ProductInput(px1, px2), split


def _law_at(px1s: np.ndarray, px2s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The law (px1, px2) of row ``k`` of a ``_law_rows`` block."""
    return px1s[k // len(px2s)], px2s[k % len(px2s)]


# ---------------------------------------------------------------------------
# Regime special cases
# ---------------------------------------------------------------------------

_REGIME_SLACK = 1e-9


def _require_regime(name: str, fails: np.ndarray, px1s: np.ndarray, px2s: np.ndarray) -> None:
    """Raise at the first law of the block where the regime condition fails."""
    if fails.any():
        px1, px2 = _law_at(px1s, px2s, int(np.argmax(fails)))
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
    q(0,0|x1,x2) inside its Frechet interval.  Shape (n, 4) -> (n, 4, 2, 2),
    the input cells in (x1, x2) order.
    """
    m1 = ch.receiver_marginal()[..., 0].ravel()  # p(y1=0 | x1, x2)
    m2 = ch.eavesdropper_marginal()[..., 0].ravel()
    lo = np.maximum(0.0, m1 + m2 - 1.0)
    q00 = lo + params * (np.minimum(m1, m2) - lo)  # (n, 4)
    q = np.stack([q00, m1 - q00, m2 - q00, 1.0 - m1 - m2 + q00], axis=-1)
    return np.clip(q, 0.0, 1.0).reshape(-1, 4, 2, 2)


# Most (input law, coupling, cell) entries in one chunk of the Sato table; a
# chunk holds at least one input law.
_SATO_CHUNK = 2**16
# Most couplings ``dmc_sato_bound`` builds at once: one input law fills a chunk.
_COUPLING_SLICE = _SATO_CHUNK // 4


def _coupling_params(grid: int, index) -> np.ndarray:
    """Rows ``index`` of the ``grid``-point parameter grid in [0, 1]^4, last parameter fastest."""
    return np.linspace(0.0, 1.0, grid)[np.stack(np.unravel_index(index, (grid,) * 4), axis=-1)]


def _sato_laws(ch: DmcWthi, px1: np.ndarray, px2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell weights w(x) = p(x1)p(x2), (k, 4), of the laws px1[k] x px2[k], and I(X1,X2;Y2).

    The sums over x run in cell order, without BLAS, as in ``_sato_blocks``.
    """
    w = (px1[:, :, None] * px2[:, None, :]).reshape(-1, 4)
    m2 = ch.eavesdropper_marginal().reshape(4, -1)  # p(y2|x) in cell order
    h = _entropy_rows(m2)
    return w, (_entropy_rows(sum(w[:, x, None] * m2[x] for x in range(4)))
               - sum(w[:, x] * h[x] for x in range(4)))


def _sato_blocks(q: np.ndarray, w: np.ndarray, i_y2: np.ndarray):
    """I(X1,X2; Y1~ | Y2~) of the laws of ``_sato_laws`` under every coupling of ``q``.

    By the chain rule this is H(Y1~,Y2~) - sum_x w(x) H(Y1~,Y2~|x) - I(X1,X2;Y2),
    and H(Y1~,Y2~|x) is a constant of the coupling: only the mixture p(y1, y2)
    needs entropies per (law, coupling).  ``q`` is from ``_coupling_tensors``.
    Yields (chunk, n) blocks in law order; the sums over x run in cell order,
    so a law's values do not depend on its chunk.
    """
    c = _entropy_rows(q.reshape(-1, 4, 4))  # H(Y1~,Y2~|x), (n, 4)
    qt = np.ascontiguousarray(np.moveaxis(q, 0, -1))[:, :, :, None, :]  # (x, y1, y2, 1, n)
    step = max(1, _SATO_CHUNK // (4 * len(q)))
    for s in range(0, len(w), step):
        wk = w[s : s + step, :, None]
        mix = sum(wk[:, x] * qt[x] for x in range(4))  # (y1, y2, chunk, n)
        yield (_entropy_rows(np.moveaxis(mix.reshape(4, *mix.shape[2:]), 0, -1))
               - sum(wk[:, x] * c[:, x] for x in range(4)) - i_y2[s : s + step, None])


def _binary_laws(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Laws [t1, 1 - t1] and [t2, 1 - t2] of every pair on a ``points``-grid, t1 slower."""
    t1, t2 = np.meshgrid(*[np.linspace(0.0, 1.0, points)] * 2, indexing="ij")
    return tuple(np.stack([t.ravel(), 1.0 - t.ravel()], axis=-1) for t in (t1, t2))


def _grid_max(q: np.ndarray, w: np.ndarray, i_y2: np.ndarray) -> np.ndarray:
    """Max of the inner objective over the laws of ``_sato_laws``, for every coupling."""
    return functools.reduce(np.maximum, (b.max(axis=0) for b in _sato_blocks(q, w, i_y2)))


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
    in all, each read from constants of the coupling in bounded chunks
    (``_sato_blocks``), with the couplings built ``_COUPLING_SLICE`` at a time.
    See ``DmcSatoBound`` for what the tolerances cover.
    """
    if (ch.nx1, ch.nx2, ch.ny1, ch.ny2) != (2, 2, 2, 2):
        raise DeskScaleError("the Sato minimax search supports binary alphabets only")
    coupling_grid = _count("coupling_grid", coupling_grid, 2)
    input_grid = _count("input_grid", input_grid, 3)
    m = 4 * (input_grid - 1) + 1
    # the grid and its 8 perturbed couplings on the coarse laws, then the refined surface
    _check_budget((coupling_grid**4 + 8) * input_grid**2 + m * m, "Sato objective evaluations")

    laws = _sato_laws(ch, *_binary_laws(input_grid))
    indices = np.arange(coupling_grid**4)
    inner_max = np.concatenate([
        _grid_max(_coupling_tensors(ch, _coupling_params(coupling_grid, idx)), *laws)
        for idx in np.split(indices, range(_COUPLING_SLICE, len(indices), _COUPLING_SLICE))])
    best_idx = int(np.argmin(inner_max))
    value = float(inner_max[best_idx])
    best = _coupling_params(coupling_grid, best_idx)

    # Inner-max quality at the winning coupling: refine the input grid 4x and
    # add the local variation of the refined surface as a Lipschitz cushion.
    q_best, fine_laws = _coupling_tensors(ch, best[None]), _sato_laws(ch, *_binary_laws(m))
    surface = np.concatenate(list(_sato_blocks(q_best, *fine_laws))).reshape(m, m)
    local_var = max(float(np.max(np.abs(np.diff(surface, axis=a)))) for a in (0, 1))
    inner_tol = max(0.0, float(surface.max()) - value) + local_var

    # Outer-min sensitivity: half-step perturbations of the winning coupling.
    # Rows: -half, +half on parameter 0, then on 1, 2, 3.
    half_steps = np.kron(np.eye(4), [[-1.0], [1.0]]) * (0.5 / (coupling_grid - 1))
    perturbed = np.clip(best + half_steps, 0.0, 1.0)
    pert_max = _grid_max(_coupling_tensors(ch, perturbed), *laws)
    coupling_tol = max(0.0, value - float(pert_max.min()))
    return DmcSatoBound(value=value, inner_tolerance=inner_tol, coupling_tolerance=coupling_tol)
