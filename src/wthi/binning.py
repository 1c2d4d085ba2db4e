"""Desk-scale simulation of the double-binning code construction.

The transmitter's codebook holds ``2^(n*r1)`` i.i.d. codewords arranged in
bins (one bin per secret message) and sub-bins (the redundancy index is split
as r1d = r1d' + r1d'').  The interferer's codebook holds ``2^(n*r2)``
codewords, likewise split into bins.  Encoding picks the within-bin indices
uniformly at random; the receiver decodes by maximum likelihood over all
codeword pairs, and the eavesdropper's confusion is measured by the exact
per-realization conditional entropy of the secret message.

Maximum-likelihood decoding stands in for joint typicality: typical sets are
vacuous at blocklengths this small, and ML can only do better, so error
trends remain meaningful.

Every trial draws its indices and channel outputs first; scoring then runs
on chunks of trials.  The log-likelihood of a codeword pair is computed from
exact joint-type counts: for each distinct value of the log table, how many
symbols k of the pair hit a cell (x1_k, x2_k, y_k) holding that value.  The
counts are GEMMs of 0/1 indicator matrices (small integers, exact in float64
whatever the BLAS build or thread count) and are contracted with the table
values in a fixed elementwise order.  Pairs with equal joint types, or more
generally hitting the same multiset of table values, therefore score
bit-identically, so ML ties really go to the lowest flat (transmitter,
interferer) index, and a trial's results do not depend on which chunk it is
scored in.  A chunk holds at most ``_CHUNK_ELEMENTS`` (trial, pair) scores
plus indicators, one trial at n = 14.

The eavesdropper's pair scores are turned into H(W1 | y2) for the whole
chunk at once: each trial's scores are shifted by their maximum and
exponentiated in place, summed per secret bin, and normalized, and the bin
posteriors go through the library's one entropy helper.  A trial whose y2
is impossible under every pair keeps the flat posterior, log2(m1s) bits.

Randomness comes from the counter-based Philox 4x64 generator (numpy's
``Philox``).  The codebook stream uses key ``(seed, 0)`` and trial ``t`` uses
key ``(seed, t + 1)``, so serial and parallel trial execution agree
bit-exactly, and a shorter run is a prefix of a longer one.

Sizes are the rounded powers ``round(2^(n*rate))``; all entropy
normalizations use the realized size ``m1s`` rather than the nominal rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dmc import DmcWthi, ProductInput, _entropy_rows
from .errors import DeskScaleError, DomainError
from .gaussian import _require_finite_nonneg

RNG_ALGORITHM = "philox4x64"

_MAX_BLOCKLENGTH = 14
_MAX_PAIRS = 1 << 20
_CHUNK_ELEMENTS = 1 << 17  # per chunk: trials x m1 x (m2 + nx2 * n)
_GEMM_ELEMENTS = 1 << 18   # OpenBLAS runs a product of at most this size on one thread


def _size(n: int, rate: float) -> int:
    return max(1, round(2.0 ** (n * rate)))


@dataclass(frozen=True)
class CodebookSpec:
    """Blocklength and the six binning rates (bits per channel use).

    The transmitter's codebook rate is r1 = r1s + r1d_prime + r1d_dprime and
    the interferer's is r2 = r2_prime + r2_dprime; ``r2`` is stored
    explicitly and validated against its parts.  The product of the two
    realized codebook sizes must stay within the desk-scale enumeration
    budget of 2^20.
    """

    n: int
    r1s: float
    r1d_prime: float
    r1d_dprime: float
    r2: float
    r2_prime: float
    r2_dprime: float

    def __post_init__(self) -> None:
        if not (1 <= int(self.n) <= _MAX_BLOCKLENGTH):
            raise DeskScaleError(f"blocklength must be in [1, {_MAX_BLOCKLENGTH}], got {self.n}")
        for name in ("r1s", "r1d_prime", "r1d_dprime", "r2", "r2_prime", "r2_dprime"):
            _require_finite_nonneg(name, getattr(self, name))
        if abs(self.r2 - (self.r2_prime + self.r2_dprime)) > 1e-12:
            raise DomainError("r2 must equal r2_prime + r2_dprime")
        if self.pairs > _MAX_PAIRS:
            raise DeskScaleError(
                f"codebook pair count {self.pairs} exceeds the desk-scale budget {_MAX_PAIRS}"
            )

    @property
    def r1(self) -> float:
        return self.r1s + self.r1d_prime + self.r1d_dprime

    @property
    def sizes(self) -> tuple[int, int, int, int, int]:
        """(m1s, m1p, m1pp, m2p, m2pp): realized bin/sub-bin/codebook sizes."""
        n = self.n
        return (
            _size(n, self.r1s),
            _size(n, self.r1d_prime),
            _size(n, self.r1d_dprime),
            _size(n, self.r2_prime),
            _size(n, self.r2_dprime),
        )

    @property
    def pairs(self) -> int:
        m1s, m1p, m1pp, m2p, m2pp = self.sizes
        return m1s * m1p * m1pp * m2p * m2pp


@dataclass(frozen=True, eq=False)
class Codebooks:
    """Realized random codebooks.

    c1 has shape (m1s, m1p, m1pp, n): bins indexed by the secret message,
    sub-bins by the first redundancy index.  c2 has shape (m2p, m2pp, n).
    """

    c1: np.ndarray
    c2: np.ndarray


@dataclass(frozen=True)
class SimResult:
    p_e: float
    equivocation_ratio: float
    trials: int


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def build_codebooks(
    ch: DmcWthi, inp: ProductInput, spec: CodebookSpec, seed: int
) -> Codebooks:
    """Draw both codebooks i.i.d. from the input laws; deterministic in ``seed``."""
    if inp.px1.size != ch.nx1 or inp.px2.size != ch.nx2:
        raise DomainError("input distribution sizes do not match the channel alphabets")
    m1s, m1p, m1pp, m2p, m2pp = spec.sizes
    rng = _stream(seed, 0)
    c1 = rng.choice(ch.nx1, size=(m1s, m1p, m1pp, spec.n), p=inp.px1).astype(np.int8)
    c2 = rng.choice(ch.nx2, size=(m2p, m2pp, spec.n), p=inp.px2).astype(np.int8)
    return Codebooks(c1=c1, c2=c2)


def _log_table(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)


def _gemm(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """out = left @ right, in row blocks of at most ``_GEMM_ELEMENTS`` multiply-adds.

    Products this small run on one BLAS thread.  On a 2-core host, threaded
    products of these shapes took up to 8 ms instead of 0.2 ms whenever the
    other core was busy.
    """
    step = max(1, _GEMM_ELEMENTS // right.size)
    for lo in range(0, left.shape[0], step):
        np.matmul(left[lo:lo + step], right, out=out[lo:lo + step])


def _pair_scores(log_p: np.ndarray, c1f: np.ndarray, c2f: np.ndarray, y: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Sum_k log p(y_k | x1_k, x2_k) for every trial and codeword pair, shape (T, m1, m2).

    ``log_p`` is (nx1, nx2, ny) with -inf on zero-probability cells and ``y``
    is (T, n).  A pair's score depends on its symbols only through how many
    of them hit each distinct value v of the table: with v0 the smallest
    finite value, score = n*v0 + sum over v > v0, in increasing order, of
    (v - v0) * M_v.  The counts M_v[(t, i), j] = #{k : log_p[c1[i, k],
    c2[j, k], y[t, k]] = v} are GEMMs of 0/1 indicators, small integers that
    are exact in float64 whatever the BLAS.  So pairs that hit the same
    multiset of table values (equal joint types in particular) score
    bit-identically, and a trial's scores do not depend on the other trials.
    A pair that hits a zero-probability cell scores -inf.
    """
    trials, n = y.shape
    m1, m2 = c1f.shape[0], c2f.shape[0]
    nx1, nx2, ny = log_p.shape
    rows = log_p.transpose(0, 2, 1).reshape(nx1 * ny, nx2)  # [(x1, y), x2]
    hit = np.take(rows, c1f[None] * ny + y[:, None], axis=0)  # [t, i, k, b]
    hit = hit.reshape(trials * m1, n * nx2)
    right = (c2f.T[:, None] == np.arange(nx2)[:, None]).reshape(n * nx2, m2).astype(float)
    values = sorted(set(log_p.ravel().tolist()))  # np.unique costs more on tables this small
    finite = [v for v in values if v > -math.inf]

    score = np.empty((trials, m1, m2)) if out is None else out
    score.fill(n * finite[0])
    flat = score.reshape(trials * m1, m2)
    counts = np.empty_like(flat)
    for v in finite[1:]:
        _gemm((hit == v).astype(float), right, counts)
        counts *= v - finite[0]
        flat += counts
    if values[0] == -math.inf:
        _gemm((hit == -math.inf).astype(float), right, counts)
        flat[counts > 0.0] = -np.inf
    return score


def _score_chunk(log_y1: np.ndarray, log_y2: np.ndarray, c1f: np.ndarray, c2f: np.ndarray,
                 m1s: int, y1: np.ndarray, y2: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Decoded secret message and H(W1 | y2) in bits for each trial of a chunk.

    The receiver decodes by ML over all codeword pairs, ties to the lowest
    flat (transmitter, interferer) index; ``c1f`` rows are ordered bin by bin.
    The eavesdropper's pair scores overwrite the receiver's in ``out`` and
    become posterior weights in place.  A trial whose y2 is impossible under
    every pair gets the flat posterior, log2(m1s) bits.
    """
    trials = y1.shape[0]
    m1, m2 = c1f.shape[0], c2f.shape[0]
    ll = _pair_scores(log_y1, c1f, c2f, y1, out)
    w1_hat = ll.reshape(trials, -1).argmax(axis=1) // m2 // (m1 // m1s)
    if m1s == 1:
        return w1_hat, np.zeros(trials)
    w = _pair_scores(log_y2, c1f, c2f, y2, ll).reshape(trials, -1)
    shift = w.max(axis=1)
    seen = shift > -np.inf  # False where every pair makes y2 impossible
    np.exp(np.subtract(w, np.where(seen, shift, 0.0)[:, None], out=w), out=w)
    per_bin = w.reshape(trials, m1s, -1).sum(axis=2)
    total = np.where(seen, per_bin.sum(axis=1), 1.0)
    return w1_hat, np.where(seen, _entropy_rows(per_bin / total[:, None]), math.log2(m1s))


def simulate(
    ch: DmcWthi,
    inp: ProductInput,
    spec: CodebookSpec,
    seed: int,
    trials: int,
) -> SimResult:
    """Monte Carlo error probability and exact average equivocation ratio.

    Per trial: the secret message and all dithering indices are drawn
    uniformly, the channel emits (y1, y2) symbol by symbol, the receiver
    performs ML decoding over all codeword pairs (ties to the lowest index),
    and the eavesdropper's posterior over secret messages given y2 is summed
    exactly over all pairs.  ``equivocation_ratio`` is the trial-averaged
    H(W1 | Y2 = y2) normalized by log2(m1s), so it lies in [0, 1]; a
    degenerate spec with a single secret message reports 1.0.
    """
    result, _, _ = simulate_detailed(ch, inp, spec, seed, trials)
    return result


def simulate_detailed(
    ch: DmcWthi,
    inp: ProductInput,
    spec: CodebookSpec,
    seed: int,
    trials: int,
) -> tuple[SimResult, np.ndarray, np.ndarray]:
    """Like ``simulate`` but also returns per-trial entropies and error flags."""
    if trials <= 0:
        raise DomainError(f"trials must be > 0, got {trials}")
    books = build_codebooks(ch, inp, spec, seed)
    m1s, m1p, m1pp, m2p, m2pp = spec.sizes
    m1 = m1s * m1p * m1pp
    m2 = m2p * m2pp
    c1f = books.c1.reshape(m1, spec.n)
    c2f = books.c2.reshape(m2, spec.n)

    log_y1 = _log_table(ch.receiver_marginal())      # [x1, x2, y1]
    log_y2 = _log_table(ch.eavesdropper_marginal())  # [x1, x2, y2]
    flat_channel = ch.transition.reshape(ch.nx1, ch.nx2, -1)
    cdf = np.cumsum(flat_channel, axis=2)

    h_bits = np.empty(trials)
    errors = np.empty(trials, dtype=bool)
    h_max = math.log2(m1s) if m1s > 1 else 0.0
    chunk = max(1, _CHUNK_ELEMENTS // (m1 * (m2 + ch.nx2 * spec.n)))
    buf = np.empty(min(chunk, trials) * m1 * m2)

    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        w1 = np.empty(size, dtype=np.int64)
        idx1 = np.empty(size, dtype=np.int64)
        idx2 = np.empty(size, dtype=np.int64)
        u = np.empty((size, spec.n))
        for k in range(size):
            rng = _stream(seed, start + k + 1)
            w1[k] = rng.integers(m1s)
            idx1[k] = (w1[k] * m1p + rng.integers(m1p)) * m1pp + rng.integers(m1pp)
            idx2[k] = rng.integers(m2p) * m2pp + rng.integers(m2pp)
            u[k] = rng.random(spec.n)
        row_cdf = cdf[c1f[idx1], c2f[idx2]]  # (size, n, ny1*ny2)
        out = np.minimum((row_cdf <= u[:, :, None]).sum(axis=2), row_cdf.shape[2] - 1)

        w1_hat, h_bits[start:start + size] = _score_chunk(
            log_y1, log_y2, c1f, c2f, m1s, out // ch.ny2, out % ch.ny2,
            buf[:size * m1 * m2].reshape(size, m1, m2))
        errors[start:start + size] = w1_hat != w1

    ratio = float(np.mean(h_bits) / h_max) if h_max > 0.0 else 1.0
    result = SimResult(
        p_e=float(np.mean(errors)),
        equivocation_ratio=ratio,
        trials=trials,
    )
    return result, h_bits, errors


def result_record(
    spec: CodebookSpec, seed: int, trials: int, result: SimResult, runtime_ms: float
) -> dict:
    """JSON-ready record of one simulation run, with RNG provenance."""
    return {
        "spec": asdict(spec),
        "seed": seed,
        "trials": trials,
        "p_e": result.p_e,
        "equivocation_ratio": result.equivocation_ratio,
        "runtime_ms": runtime_ms,
        "rng": RNG_ALGORITHM,
    }
