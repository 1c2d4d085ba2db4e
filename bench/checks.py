"""Independent checks of wthi outputs.

Each checker recomputes a quantity without the code path that produced it, or
tests a property the method must have, and returns a dict that maps a check
name to True (passed) or False.  Checkers never run inside a timed region.

* Gaussian rates are recomputed from the three-regime formula in 30-digit
  arithmetic (mpmath); the Sato bound is compared with a refined grid of its
  objective over the noise correlation.
* DMC rates are compared with a dense (r1, r2) scan of the decodable-region
  inequalities, built on a mutual-information profile computed here from
  joint entropies (the library uses conditional sums).
* Simulator outputs are tested against exact extremes (blind and perfect
  eavesdroppers, a noiseless receiver) and for prefix reproducibility.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

RATE_TOL = 1e-9   # bits: library float rate vs the 30-digit recomputation
SATO_TOL = 1e-6   # bits: closed-form Sato minimum vs the refined rho grid
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Gaussian model
# ---------------------------------------------------------------------------


def _cap(x):
    return mp.log1p(x) / (2 * mp.log(2))


def gaussian_rate(a: float, b: float, p1: float, p2: float) -> float:
    """Best of the interferer-assisted and plain wiretap rates at powers (p1, p2)."""
    with mp.workdps(30):
        a, b, p1, p2 = (mp.mpf(float(v)) for v in (a, b, p1, p2))
        r1d = _cap(a * p1 / (1 + p2))
        if b >= 1 + p1:
            assisted = _cap(p1) - r1d
        elif b >= 1:
            assisted = _cap(p1 + b * p2) - _cap(a * p1 + p2)
        else:
            assisted = _cap(p1 / (1 + b * p2)) - r1d
        return float(max(assisted, _cap(p1) - _cap(a * p1), 0))


def wiretap_rate(a: float, p1: float) -> float:
    """[C(p1) - C(a*p1)]+ in 30-digit arithmetic."""
    with mp.workdps(30):
        return float(max(_cap(mp.mpf(p1)) - _cap(mp.mpf(a) * p1), 0))


def awgn_capacity(x: float) -> float:
    with mp.workdps(30):
        return float(_cap(mp.mpf(x)))


def sato_objective(a: float, b: float, p1: float, p2: float, rho: np.ndarray) -> np.ndarray:
    """Genie-aided objective f(rho) of the Sato bound, in bits.

    The numerator (1+p1+b*p2)(1+a*p1+p2) - (rho+s)^2 is rewritten as
    (1-rho)(1+rho+2s) + f_lo with f_lo = (sqrt(a)-1)^2 p1 + (sqrt(b)-1)^2 p2
    + (sqrt(ab)-1)^2 p1 p2 >= 0, a sum of nonnegative terms, so the grid stays
    accurate where rho approaches 1 and where the gains are tiny.
    """
    sa, sb = math.sqrt(a), math.sqrt(b)
    s = sa * p1 + sb * p2
    f_lo = (sa - 1.0) ** 2 * p1 + (sb - 1.0) ** 2 * p2 + (sa * sb - 1.0) ** 2 * p1 * p2
    u = 1.0 - rho
    num = u * (1.0 + rho + 2.0 * s) + f_lo
    den = u * (1.0 + rho) * (1.0 + a * p1 + p2)
    return 0.5 * np.log2(num / den)


def sato_grid_min(a: float, b: float, p1: float, p2: float) -> float:
    """Minimum of the Sato objective over rho in (-1, 1) by a twice-refined grid."""
    edge = 1.0 - np.logspace(-1, -12, 12)
    rho = np.unique(np.concatenate([np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, 4001), edge, -edge]))
    f = sato_objective(a, b, p1, p2, rho)
    i = int(np.argmin(f))
    fine = np.linspace(rho[max(i - 1, 0)], rho[min(i + 1, rho.size - 1)], 2001)
    return float(min(f[i], sato_objective(a, b, p1, p2, fine).min()))


def check_sato(a: float, b: float, p1: float, p2: float, value: float) -> bool:
    """The closed-form Sato value equals the grid minimum of its objective."""
    return abs(value - sato_grid_min(a, b, p1, p2)) <= SATO_TOL


def check_policy(ch, alloc, rate: float, bounds3: tuple[float, float, float],
                 best: float) -> dict[str, bool]:
    """One channel carried through the power policy, the rate and ``bound_best``.

    ``bounds3`` holds the library's (main, sato, z) bounds at full power.
    """
    tol1 = 1e-9 * max(1.0, ch.p1_max)
    tol2 = 1e-9 * max(1.0, ch.p2_max)
    return {
        "in_power_box": 0.0 <= alloc.p1 <= ch.p1_max + tol1 and 0.0 <= alloc.p2 <= ch.p2_max + tol2,
        "rate_recomputed": abs(rate - gaussian_rate(ch.a, ch.b, alloc.p1, alloc.p2)) <= RATE_TOL,
        "rate_le_bounds": all(rate <= v + 1e-9 for v in bounds3),
        "best_is_min": best == min(bounds3),
        "main_recomputed": abs(bounds3[0] - awgn_capacity(ch.p1_max)) <= RATE_TOL,
        "sato_vs_grid": check_sato(ch.a, ch.b, ch.p1_max, ch.p2_max, bounds3[1]),
    }


def check_oracle(ch, policy_rate: float, oracle) -> dict[str, bool]:
    """The policy is not beaten by the grid oracle beyond its discretization bound."""
    return {
        "policy_ge_oracle": policy_rate >= oracle.rate - oracle.eps_grid - 1e-12,
        "oracle_rate_recomputed": abs(
            oracle.rate - gaussian_rate(ch.a, ch.b, oracle.alloc.p1, oracle.alloc.p2)
        ) <= RATE_TOL,
    }


def close12(printed: float, exact: float) -> bool:
    """A value printed with 12 significant digits matches the exact one."""
    return abs(printed - exact) <= max(1e-11 * abs(exact), 1e-14)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(-1, len(header))


def check_sweep_csv(text: str, again: str, axis: np.ndarray, p1_max: float) -> dict[str, bool]:
    """One CSV of ``sweep-symmetric`` or ``sweep-interferer`` over ``axis``.

    ``again`` is the output of a second run with the same configuration.  The
    closed forms are evaluated at the axis values themselves, not at their
    12-digit printout.
    """
    header, rows = parse_csv(text)
    col = {name: rows[:, k] for k, name in enumerate(header)}
    main = awgn_capacity(p1_max)
    out = {"byte_identical": text == again, "row_count": rows.shape[0] == axis.size}
    if not out["row_count"]:
        return out
    out["axis_printed"] = all(close12(v, x) for v, x in zip(rows[:, 0], axis))
    if "rate_wiretap" in col:  # sweep-symmetric
        rate, wiretap = col["rate_with_interferer"], col["rate_wiretap"]
        out["wiretap_closed_form"] = all(
            close12(w, wiretap_rate(a, p1_max)) for a, w in zip(axis, wiretap))
        out["rate_ge_wiretap"] = bool(np.all(rate >= wiretap * (1 - 1e-11) - 1e-14))
        out["rate_le_bounds"] = bool(np.all(rate <= main + 1e-9))
    else:
        rate = col["achievable"]
        out["main_closed_form"] = all(close12(v, main) for v in col["bound_main"])
        out["rate_le_bounds"] = bool(all(
            np.all(rate <= col[k] + 1e-9) for k in ("bound_main", "bound_sato", "bound_z")))
    return out


# ---------------------------------------------------------------------------
# Finite alphabets
# ---------------------------------------------------------------------------


def _h(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def profile(transition: np.ndarray, px1: np.ndarray, px2: np.ndarray) -> tuple[float, ...]:
    """The eight region mutual informations, in the order of ``MutualInfoProfile``.

    Computed from joint entropies of the product-input joint law.
    """
    joint = px1[:, None, None, None] * px2[None, :, None, None] * transition
    out = []
    for j in (joint.sum(axis=3), joint.sum(axis=2)):  # axes (x1, x2, y)
        h12y, h12 = _h(j), _h(j.sum(axis=2))
        h1, h2, hy = _h(j.sum(axis=(1, 2))), _h(j.sum(axis=(0, 2))), _h(j.sum(axis=(0, 1)))
        h1y, h2y = _h(j.sum(axis=1)), _h(j.sum(axis=0))
        out += [
            h12 + h2y - h2 - h12y,   # I(X1;Y|X2)
            h12 + h1y - h1 - h12y,   # I(X2;Y|X1)
            h12 + hy - h12y,         # I(X1,X2;Y)
            h1 + hy - h1y,           # I(X1;Y)
        ]
    return tuple(out)


def scan_rate(prof: tuple[float, ...], n: int = 1001) -> tuple[float, float]:
    """Dense (r1, r2) scan of the double-binning secrecy rate.

    Receiver: the closed joint-decoding region, or r1 <= I(X1;Y1) with
    r2 > I(X2;Y1|X1).  The redundancy is the largest r1d that the closed
    eavesdropper region decodes at r2.  Returns (best rate, resolution), the
    resolution being the sum of the two grid steps (the objective is
    1-Lipschitz in each rate).
    """
    a1, a2, a12, a1m, b1, b2, b12, b1m = prof
    r1_hi = max(a1, a1m, 1e-12)
    r2_hi = max(a2, b2, 1e-12)
    r1 = np.linspace(0.0, r1_hi, n)[:, None]
    # the objective is constant beyond max(a2, b2); one point samples that tail
    r2 = np.concatenate([np.linspace(0.0, r2_hi, n - 1), [r2_hi + 1.0]])[None, :]
    receiver = ((r1 <= a1) & (r2 <= a2) & (r1 + r2 <= a12)) | ((r1 <= a1m) & (r2 > a2))
    joint_sup = np.where(r2 <= b2, np.minimum(b1, b12 - r2), -np.inf)
    separate_sup = np.where(r2 >= b2, b1m, -np.inf)
    required = np.maximum(joint_sup, separate_sup)
    r1s = np.where(receiver, np.maximum(r1 - required, 0.0), 0.0)
    return float(r1s.max()), r1_hi / (n - 1) + r2_hi / (n - 2)


def check_dmc_rate(prof: tuple[float, ...], rate: float) -> bool:
    """The optimizer's rate lies between the scan and the scan plus its resolution."""
    scan, resolution = scan_rate(prof)
    return scan <= rate + 1e-9 and rate - scan <= resolution + 1e-9


def on_grid(p: np.ndarray, grid: int) -> bool:
    k = np.asarray(p) * (grid - 1)
    return bool(np.all(np.abs(k - np.round(k)) <= 1e-9)) and abs(float(np.sum(p)) - 1.0) <= 1e-12


def check_search(transition: np.ndarray, grid: int, rate: float, px1, px2, split) -> dict[str, bool]:
    return {
        "law_on_grid": on_grid(px1, grid) and on_grid(px2, grid),
        "split_carries_rate": split.r1s == rate,
        "rate_vs_scan": check_dmc_rate(profile(transition, np.asarray(px1), np.asarray(px2)), rate),
    }


def check_degraded_sato(value: float, inner_tol: float, tol: float, rate: float) -> dict[str, bool]:
    gap = value - rate
    return {"gap_le_tolerance": gap <= tol + 1e-12, "gap_ge_minus_inner": gap >= -inner_tol - 1e-12}


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


def check_trials(result, h: np.ndarray, errors: np.ndarray, m1s: int,
                 prefix: tuple[np.ndarray, np.ndarray]) -> dict[str, bool]:
    """Per-trial arrays of one ``simulate_detailed`` run.

    ``prefix`` is the (h, errors) pair of a shorter run at the same seed.
    """
    h_max = math.log2(m1s) if m1s > 1 else 0.0
    ph, pe = prefix
    k = ph.size
    return {
        "entropy_in_range": bool(np.all((h >= -EXACT_TOL) & (h <= h_max + EXACT_TOL))),
        "summary_is_mean": result.p_e == float(np.mean(errors)) and abs(
            result.equivocation_ratio - (float(np.mean(h)) / h_max if h_max > 0 else 1.0)
        ) <= EXACT_TOL,
        "prefix_reproducible": k < h.size
        and np.array_equal(h[:k], ph) and np.array_equal(errors[:k], pe),
    }


def codeword_multiplicities(c1: np.ndarray) -> np.ndarray:
    """How often each distinct transmitter codeword occurs in the codebook."""
    return np.unique(c1.reshape(-1, c1.shape[-1]), axis=0, return_counts=True)[1]


def check_blind(result, h: np.ndarray, m1s: int) -> dict[str, bool]:
    return {
        "blind_ratio_one": abs(result.equivocation_ratio - 1.0) <= EXACT_TOL,
        "blind_entropy_max": bool(np.all(np.abs(h - math.log2(m1s)) <= EXACT_TOL)),
    }


def check_perfect(h: np.ndarray, result, counts: np.ndarray) -> dict[str, bool]:
    """y2 = x1: the posterior is uniform over the bins holding the sent codeword.

    With one codeword per bin every trial's entropy is log2 of the
    multiplicity of the sent codeword; with distinct codewords the ratio is 0.
    """
    allowed = np.log2(np.unique(counts))
    per_trial = bool(np.all(np.min(np.abs(h[:, None] - allowed[None, :]), axis=1) <= EXACT_TOL))
    out = {"perfect_entropy_exact": per_trial}
    if np.all(counts == 1):
        out["perfect_ratio_zero"] = abs(result.equivocation_ratio) <= EXACT_TOL
    return out


def check_noiseless_receiver(errors: np.ndarray, counts: np.ndarray) -> dict[str, bool]:
    """y1 = x1: with distinct codewords ML decoding never errs."""
    if np.all(counts == 1):
        return {"noiseless_no_error": not bool(errors.any())}
    return {}
