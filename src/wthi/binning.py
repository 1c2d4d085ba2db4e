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

Trials run in chunks: a chunk draws its trials' indices and channel outputs,
then scores them.  The log-likelihood of a codeword pair is computed from
exact joint-type counts: for each distinct value of the log table, how many
symbols k of the pair hit a cell (x1_k, x2_k, y_k) holding that value.  The
counts are float32 GEMMs of 0/1 indicators (integers of at most n, exact in
float32 whatever the BLAS build or thread count), cast to float64 and
contracted with the table values in a fixed elementwise order.  Pairs hitting
the same multiset of table values (equal joint types in particular) therefore
score bit-identically, so ML ties really go to the lowest flat (transmitter,
interferer) index, and a trial's results do not depend on which chunk it is
scored in.  A chunk holds at most ``_CHUNK_ELEMENTS`` (trial, pair) scores
plus indicators, one trial at n = 14.

The receiver scores only the transmitter rows that can still win: U, the
sum over symbols of the best log-likelihood over x2, bounds a row's scores
from above, and the best pair of the row with the largest U bounds the
maximum from below.  Rows with U under that floor, less a slack for float
rounding, are skipped, and the decision is taken from the exact scores of
the others with the tie-break of an exhaustive search.  The eavesdropper's
posterior needs every pair, so it scores them all: each trial's scores are
shifted by their maximum and exponentiated in place, summed per secret bin,
and normalized, and the bin posteriors go through the library's one entropy
helper.  A y2 impossible under every pair keeps the flat posterior.

Randomness comes from numpy's counter-based Philox4x64-10 generator.
Seeds are taken mod 2^64.  The codebooks are drawn from
``Generator(Philox(key=(seed, 0)))``.  The trials are read in order from one
generator of key (seed, 1), built once per ``simulate`` call: with
k = ceil((5 + n) / 4), trial ``t`` reads the 4k doubles of counters
t*k + 1 .. (t + 1)*k, five indices and n channel uniforms (see
``_trial_draws``).  Every result is bit-reproducible per (seed, trial), does
not depend on the chunk size, and a shorter run is a prefix of a longer one.

Sizes are the rounded powers ``round(2^(n*rate))``; all entropy
normalizations use the realized size ``m1s`` rather than the nominal rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dmc import DmcWthi, ProductInput, _check_input_sizes, _entropy_rows
from .errors import DeskScaleError, DomainError, _check_budget, _count, _require_finite_nonneg

RNG_ALGORITHM = "philox4x64"

_MAX_BLOCKLENGTH = 14
_MAX_PAIRS = 1 << 20
_CHUNK_ELEMENTS = 1 << 17  # per chunk: trials x m1 x (m2 + nx2 * n)
_GEMM_ELEMENTS = 1 << 19   # about half the largest product OpenBLAS runs on one thread


def _size(n: int, rate: float) -> int:
    if n * rate > _MAX_PAIRS.bit_length():  # 2^(n*rate) > 2 * _MAX_PAIRS, or a float overflow
        raise DeskScaleError(f"codebook size 2^{n * rate:g} exceeds the budget {_MAX_PAIRS}")
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
        object.__setattr__(self, "n", _count("n", self.n, 1))
        if self.n > _MAX_BLOCKLENGTH:
            raise DeskScaleError(f"blocklength must be in [1, {_MAX_BLOCKLENGTH}], got {self.n}")
        for name in ("r1s", "r1d_prime", "r1d_dprime", "r2", "r2_prime", "r2_dprime"):
            _require_finite_nonneg(name, getattr(self, name))
        if abs(self.r2 - (self.r2_prime + self.r2_dprime)) > 1e-12:
            raise DomainError("r2 must equal r2_prime + r2_dprime")
        _check_budget(self.pairs, "codebook pairs", _MAX_PAIRS)

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
    """Summary of a simulator run, then its read-only per-trial arrays (outside ``==``)."""

    p_e: float
    equivocation_ratio: float
    trials: int
    h_bits: np.ndarray = field(compare=False, repr=False)  # H(W1 | Y2 = y2) in bits
    errors: np.ndarray = field(compare=False, repr=False)  # decoding-error flags


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _trial_draws(rng: np.random.Generator, count: int, sizes: tuple[int, ...],
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (count, len(sizes)) and uniforms (count, n) of the next ``count`` trials of ``rng``.

    With k = ceil((len(sizes) + n) / 4), a trial reads the next 4k doubles,
    k whole Philox counters, so trial t of a stream reads counters t*k + 1 ..
    (t + 1)*k however the trials are split between calls.  Index j is
    floor(u_j * m_j) for the j-th size m_j, the inverse-CDF rule of the
    channel outputs, and the next n doubles are the channel uniforms.  An
    index's law deviates from uniform by at most m * 2^-53 relative, and the
    largest double below 1 maps to m - 1 for every m up to 2^21.
    """
    k = -(-(len(sizes) + n) // 4)  # Philox counters of four words: one word per index and per use
    u = rng.random((count, 4 * k))
    draws = (u[:, :len(sizes)] * np.asarray(sizes)).astype(np.int64)
    return draws, u[:, len(sizes):len(sizes) + n]


def build_codebooks(ch: DmcWthi, inp: ProductInput, spec: CodebookSpec, seed: int) -> Codebooks:
    """Draw both codebooks i.i.d. from the input laws; deterministic in ``seed``."""
    _check_input_sizes(ch, inp)
    m1s, m1p, m1pp, m2p, m2pp = spec.sizes
    rng = _stream(seed, 0)
    c1 = rng.choice(ch.nx1, size=(m1s, m1p, m1pp, spec.n), p=inp.px1)
    c2 = rng.choice(ch.nx2, size=(m2p, m2pp, spec.n), p=inp.px2)
    return Codebooks(c1=c1, c2=c2)


def _log_table(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)


def _gemm(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """out = left @ right, in row blocks of at most ``_GEMM_ELEMENTS`` multiply-adds.

    Products this small run on one BLAS thread: with 2 threads, OpenBLAS
    0.3.31 ran float32 and float64 products of up to 998,400 multiply-adds on
    one.  On a 2-core host, threaded products of these shapes took up to 8 ms
    instead of 15-30 us whenever the other core was busy.
    """
    step = max(1, _GEMM_ELEMENTS // right.size)
    for lo in range(0, left.shape[0], step):
        np.matmul(left[lo:lo + step], right, out=out[lo:lo + step])


def _pair_scores(log_p: np.ndarray, cells: np.ndarray, c2f: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Sum_k log p(y_k | x1_k, x2_k) for each row of ``cells`` and interferer codeword.

    ``log_p`` is (nx1, nx2, ny) with -inf on zero-probability cells; a row of
    ``cells`` holds x1_k * ny + y_k, one transmitter codeword against one
    output.  The scores have shape ``cells.shape[:-1] + (m2,)``.  A pair's
    score depends on its symbols only through how many of them hit each
    distinct value v of the table: with v0 the smallest finite value, score =
    n*v0 + sum over v > v0, in increasing order, of (v - v0) * M_v.  The
    counts M_v are float32 GEMMs of 0/1 indicators, exact whatever the BLAS,
    cast to float64 before they meet v - v0.  So pairs that hit the same
    multiset of table values score bit-identically, and a row's scores do
    not depend on the other rows.  A pair that hits a zero-probability cell
    scores -inf, as does every pair when no cell is finite.
    """
    n, m2, nx2 = cells.shape[-1], c2f.shape[0], log_p.shape[1]
    by_cell = log_p.transpose(0, 2, 1).reshape(-1, nx2)  # [(x1, y), x2]
    hit = np.take(by_cell, cells, axis=0).reshape(-1, n * nx2)
    right = (c2f.T[:, None] == np.arange(nx2)[:, None]).reshape(n * nx2, m2).astype(np.float32)
    values = sorted(set(log_p.ravel().tolist()))  # np.unique costs more on tables this small
    finite = [v for v in values if v > -math.inf]

    score = np.empty(cells.shape[:-1] + (m2,)) if out is None else out
    flat = score.reshape(-1, m2)
    indicator = np.empty(hit.shape, dtype=np.float32)
    counts = np.empty(flat.shape, dtype=np.float32)
    term = np.empty_like(flat) if len(finite) > 2 else None
    if len(finite) < 2:
        flat.fill(n * finite[0] if finite else -np.inf)
    for k, v in enumerate(finite[1:]):
        _gemm(np.equal(hit, v, out=indicator), right, counts)
        if k == 0:  # (v - v0) * M_v + n*v0 is n*v0 + (v - v0) * M_v: IEEE addition commutes
            np.multiply(counts, v - finite[0], out=flat, dtype=float)
            flat += n * finite[0]
        else:
            flat += np.multiply(counts, v - finite[0], out=term, dtype=float)
    if values[0] == -math.inf:
        _gemm(np.equal(hit, -math.inf, out=indicator), right, counts)
        flat[counts > 0.0] = -np.inf
    return score


def _survivors(log_p: np.ndarray, cells: np.ndarray, c2f: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """(trial, row) indices of the transmitter rows that can hold a trial's ML pair.

    U[t, i] = sum_k max_x2 log p(y_tk | x1_ik, x2) bounds row i's scores from
    above, and the best pair of the row with the largest U bounds the maximum
    from below.  The slack 1e-9 * (1 + |floor|) covers the rounding gap between
    these float sums and the count-based scores; a floor of -inf keeps every row.
    """
    nx2 = log_p.shape[1]
    by_cell = log_p.transpose(0, 2, 1).reshape(-1, nx2)
    per_symbol = cells.transpose(2, 0, 1)  # (n, T, m1): sums run over the leading axis
    upper = np.take(by_cell.max(axis=1), per_symbol).sum(axis=0)
    best = per_symbol[:, np.arange(len(cells)), upper.argmax(axis=1)]  # (n, T)
    floor = np.take(by_cell, best[:, :, None] * nx2 + c2f.T[:, None]).sum(axis=0).max(axis=1)
    return np.nonzero(upper >= (floor - 1e-9 * (1.0 + np.abs(floor)))[:, None])


def _ml_index(log_p: np.ndarray, cells: np.ndarray, c2f: np.ndarray) -> np.ndarray:
    """Flat (transmitter, interferer) index of each trial's ML pair, ties to the lowest.

    Only the surviving rows are scored.  A trial's pair is the first
    maximising column of its first surviving row that reaches the trial's
    maximum, and 0 when every score is -inf: the flat argmax of an
    exhaustive search.  Each trial keeps at least its row of largest U.
    """
    t, i = _survivors(log_p, cells, c2f)
    scores = _pair_scores(log_p, cells[t, i], c2f)
    col = scores.argmax(axis=1)
    best = scores[np.arange(len(t)), col]
    trials = np.arange(len(cells))
    top = np.maximum.reduceat(best, np.searchsorted(t, trials))
    win = np.flatnonzero(best == top[t])
    win = win[np.searchsorted(t[win], trials)]  # each trial's first row at its maximum
    return np.where(top > -np.inf, i[win] * scores.shape[1] + col[win], 0)


def _score_chunk(log_y1: np.ndarray, log_y2: np.ndarray, c1f: np.ndarray, c2f: np.ndarray,
                 m1s: int, y1: np.ndarray, y2: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Decoded secret message and H(W1 | y2) in bits for each trial of a chunk.

    The receiver decodes by ML over all codeword pairs, scoring only the rows
    that can win, ties to the lowest flat (transmitter, interferer) index;
    ``c1f`` rows are ordered bin by bin.
    The eavesdropper's pair scores are written to ``out`` (T, m1, m2) and
    become posterior weights in place.  A trial whose y2 is impossible under
    every pair gets the flat posterior, log2(m1s) bits.
    """
    trials = y1.shape[0]
    m1, m2 = c1f.shape[0], c2f.shape[0]
    flat = _ml_index(log_y1, c1f * log_y1.shape[2] + y1[:, None], c2f)
    w1_hat = flat // m2 // (m1 // m1s)
    if m1s == 1:
        return w1_hat, np.zeros(trials)
    w = _pair_scores(log_y2, c1f * log_y2.shape[2] + y2[:, None], c2f, out).reshape(trials, -1)
    shift = w.max(axis=1)
    seen = shift > -np.inf  # False where every pair makes y2 impossible
    np.exp(np.subtract(w, np.where(seen, shift, 0.0)[:, None], out=w), out=w)
    per_bin = w.reshape(trials, m1s, -1).sum(axis=2)
    total = np.where(seen, per_bin.sum(axis=1), 1.0)
    return w1_hat, np.where(seen, _entropy_rows(per_bin / total[:, None]), math.log2(m1s))


def simulate(ch: DmcWthi, inp: ProductInput, spec: CodebookSpec, seed: int,
             trials: int) -> SimResult:
    """Monte Carlo error probability and exact equivocation, with the per-trial arrays.

    Per trial: the secret message and all dithering indices are drawn
    uniformly, the channel emits (y1, y2) symbol by symbol, the receiver
    performs ML decoding over all codeword pairs (ties to the lowest index),
    and the eavesdropper's posterior over secret messages given y2 is summed
    exactly over all pairs.  ``equivocation_ratio`` is the trial-averaged
    H(W1 | Y2 = y2) normalized by log2(m1s), so it lies in [0, 1]; a
    degenerate spec with a single secret message reports 1.0.  At most
    4,000,000 trials run, the desk-scale budget; more raise ``DeskScaleError``.
    """
    trials = _count("trials", trials, 1)
    _check_budget(trials, "trials")
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
    rng = _stream(seed, 1)

    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        draws, uniforms = _trial_draws(rng, size, spec.sizes, spec.n)
        idx1 = (draws[:, 0] * m1p + draws[:, 1]) * m1pp + draws[:, 2]
        row_cdf = cdf[c1f[idx1], c2f[draws[:, 3] * m2pp + draws[:, 4]]]  # (size, n, ny1*ny2)
        out = np.minimum((row_cdf <= uniforms[:, :, None]).sum(axis=2), row_cdf.shape[2] - 1)

        w1_hat, h_bits[start:start + size] = _score_chunk(
            log_y1, log_y2, c1f, c2f, m1s, out // ch.ny2, out % ch.ny2,
            buf[:size * m1 * m2].reshape(size, m1, m2))
        errors[start:start + size] = w1_hat != draws[:, 0]

    ratio = float(np.mean(h_bits) / h_max) if h_max > 0.0 else 1.0
    h_bits.setflags(write=False)
    errors.setflags(write=False)
    return SimResult(float(np.mean(errors)), ratio, trials, h_bits, errors)


def simulate_detailed(ch: DmcWthi, inp: ProductInput, spec: CodebookSpec, seed: int,
                      trials: int) -> tuple[SimResult, np.ndarray, np.ndarray]:
    """``simulate`` as (result, h_bits, errors): kept only because bench/workloads.py
    and bench/test_checks.py call and trace it; ROADMAP item 2's bench revision deletes it.
    """
    res = simulate(ch, inp, spec, seed, trials)
    return res, res.h_bits, res.errors


def result_record(spec: CodebookSpec, seed: int, result: SimResult) -> dict:
    """JSON-ready record of one simulation run, with RNG provenance and no timing."""
    return {
        "spec": asdict(spec),
        "seed": seed,
        "trials": result.trials,
        "p_e": result.p_e,
        "equivocation_ratio": result.equivocation_ratio,
        "rng": RNG_ALGORITHM,
    }
