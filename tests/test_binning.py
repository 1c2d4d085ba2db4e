import itertools
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wthi import binning
from wthi.binning import (
    CodebookSpec,
    RNG_ALGORITHM,
    build_codebooks,
    result_record,
    simulate,
)
from wthi.dmc import DmcWthi, ProductInput
from wthi.errors import DeskScaleError, DomainError

from channels import (
    blind_eavesdropper_channel,
    noiseless_blind_channel,
    perfect_eavesdropper_channel,
    trend_channel,
)
from oracles import pair_count_scores_reference, pair_loglik_reference, posterior_entropy_reference

UNIFORM = ProductInput.uniform(2, 2)

# blind-eavesdropper spec used throughout: 16 secret messages at n = 12
BLIND_SPEC = CodebookSpec(
    n=12, r1s=1 / 3, r1d_prime=0.0, r1d_dprime=0.0, r2=1 / 6, r2_prime=0.0, r2_dprime=1 / 6
)
# seed 0 draws 16 distinct transmitter codewords (asserted in the tests below)
BLIND_SEED = 0
# n = 14 at the codebook sizes of acceptance criterion 9 (918 x 2 x 78)
HEAVY_SPEC = CodebookSpec(
    n=14, r1s=0.703, r1d_prime=0.0, r1d_dprime=0.0, r2=0.52, r2_prime=1 / 14,
    r2_dprime=0.52 - 1 / 14,
)
# n = 6 at the same rates, sizes (19, 1, 1, 1, 6)
SHORT_SPEC = replace(HEAVY_SPEC, n=6)


def random_table(sizes: tuple, rng: np.random.Generator, sparse: bool) -> np.ndarray:
    """log p(y | x1, x2), shape (nx1, nx2, ny); sparse tables have -inf cells."""
    p = rng.random(sizes)
    if sparse:
        p[p < 0.4] = 0.0
        p[..., 0] += p.sum(axis=2) == 0.0
    return binning._log_table(p / p.sum(axis=2, keepdims=True))


def table_of_kind(kind: str, sizes: tuple, rng: np.random.Generator) -> np.ndarray:
    """A "dense" or "sparse" ``random_table``, or a "ties" table of few values."""
    if kind == "ties":  # two or three distinct values, -inf among them half the time
        levels = -rng.exponential(size=int(rng.integers(2, 4)))
        levels[0] = -np.inf if rng.random() < 0.5 else levels[0]
        return rng.choice(levels, size=sizes)
    return random_table(sizes, rng, kind == "sparse")


class TestCodebookSpec:
    def test_counting(self):
        # n = 2 at total rate 1 with half of it secret: 4 codewords, 2 bins of 2
        spec = CodebookSpec(
            n=2, r1s=0.5, r1d_prime=0.0, r1d_dprime=0.5, r2=0.0, r2_prime=0.0, r2_dprime=0.0
        )
        m1s, m1p, m1pp, m2p, m2pp = spec.sizes
        assert (m1s, m1p, m1pp) == (2, 1, 2)
        assert m1s * m1p * m1pp == 4
        assert spec.r1s + spec.r1d_prime + spec.r1d_dprime == pytest.approx(1.0)

    def test_rate_decomposition_validated(self):
        with pytest.raises(DomainError):
            CodebookSpec(
                n=4, r1s=0.5, r1d_prime=0.0, r1d_dprime=0.0,
                r2=0.5, r2_prime=0.1, r2_dprime=0.1,
            )

    def test_enumeration_budget(self):
        with pytest.raises(DeskScaleError):
            CodebookSpec(
                n=14, r1s=1.0, r1d_prime=0.0, r1d_dprime=0.0,
                r2=0.8, r2_prime=0.0, r2_dprime=0.8,
            )

    @pytest.mark.parametrize("r1s", [2.15, 200.0, 1e300])
    def test_oversized_codebook_rejected_before_its_size_is_formed(self, r1s):
        # 2 ** (n * r1s) overflows a float from r1s = 102.4 on; no such size fits the budget
        with pytest.raises(DeskScaleError):
            CodebookSpec(
                n=10, r1s=r1s, r1d_prime=0.0, r1d_dprime=0.0,
                r2=0.0, r2_prime=0.0, r2_dprime=0.0,
            )

    def test_blocklength_guard(self):
        with pytest.raises(DeskScaleError):
            CodebookSpec(
                n=15, r1s=0.1, r1d_prime=0.0, r1d_dprime=0.0,
                r2=0.0, r2_prime=0.0, r2_dprime=0.0,
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            CodebookSpec(
                n=4, r1s=-0.1, r1d_prime=0.0, r1d_dprime=0.0,
                r2=0.0, r2_prime=0.0, r2_dprime=0.0,
            )


class TestBuildCodebooks:
    def test_deterministic_for_fixed_seed(self):
        ch = blind_eavesdropper_channel()
        b1 = build_codebooks(ch, UNIFORM, BLIND_SPEC, 7)
        b2 = build_codebooks(ch, UNIFORM, BLIND_SPEC, 7)
        assert np.array_equal(b1.c1, b2.c1)
        assert np.array_equal(b1.c2, b2.c2)
        b3 = build_codebooks(ch, UNIFORM, BLIND_SPEC, 8)
        assert not np.array_equal(b1.c1, b3.c1)

    def test_shapes(self):
        books = build_codebooks(blind_eavesdropper_channel(), UNIFORM, BLIND_SPEC, 0)
        assert books.c1.shape == (16, 1, 1, 12)
        assert books.c2.shape == (1, 4, 12)

    def test_rejects_a_law_of_the_wrong_size(self):
        # the message mi_profile gives too
        with pytest.raises(DomainError, match=r"input sizes \(3, 2\) do not match channel "
                                              r"alphabets \(2, 2\)"):
            build_codebooks(blind_eavesdropper_channel(), ProductInput.uniform(3, 2), BLIND_SPEC, 0)

    def test_symbol_frequencies_concentrate(self):
        # skewed input law; the empirical ones-fraction should land within
        # three binomial standard deviations
        spec = CodebookSpec(
            n=14, r1s=0.5, r1d_prime=0.0, r1d_dprime=0.0,
            r2=0.0, r2_prime=0.0, r2_dprime=0.0,
        )
        inp = ProductInput(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        books = build_codebooks(blind_eavesdropper_channel(), inp, spec, 3)
        draws = books.c1.size
        ones = float(books.c1.sum()) / draws
        sigma = math.sqrt(0.7 * 0.3 / draws)
        assert abs(ones - 0.7) < 3 * sigma


class TestSimulate:
    def test_noiseless_blind_is_perfectly_reliable_and_secret(self):
        ch = noiseless_blind_channel()
        books = build_codebooks(ch, UNIFORM, BLIND_SPEC, BLIND_SEED)
        c1 = books.c1.reshape(-1, BLIND_SPEC.n)
        assert len({tuple(r) for r in c1}) == c1.shape[0]  # distinct codewords
        res = simulate(ch, UNIFORM, BLIND_SPEC, BLIND_SEED, 150)
        assert res.p_e == 0.0
        assert res.equivocation_ratio == pytest.approx(1.0, abs=1e-12)

    def test_perfect_eavesdropper_has_no_secrecy(self):
        res = simulate(perfect_eavesdropper_channel(), UNIFORM, BLIND_SPEC, BLIND_SEED, 150)
        assert res.equivocation_ratio < 0.05

    def test_bit_exact_determinism(self):
        ch = blind_eavesdropper_channel()
        r1 = simulate(ch, UNIFORM, BLIND_SPEC, 13, 60)
        r2 = simulate(ch, UNIFORM, BLIND_SPEC, 13, 60)
        assert r1 == r2

    def test_per_trial_entropy_bounds(self):
        ch = blind_eavesdropper_channel(0.2)
        h_bits = simulate(ch, UNIFORM, BLIND_SPEC, 41, 80).h_bits
        m1s = BLIND_SPEC.sizes[0]
        assert np.all(h_bits >= -1e-12)
        assert np.all(h_bits <= math.log2(m1s) + 1e-9)

    def test_more_confusion_codewords_never_hurt(self):
        # pure wiretap geometry: the eavesdropper hears the transmitter through
        # a BSC; widening the confusion sub-bin raises its equivocation
        t = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                py1 = np.zeros(2)
                py1[x1] = 1.0
                py2 = np.array([0.9, 0.1]) if x1 == 0 else np.array([0.1, 0.9])
                t[x1, x2] = np.outer(py1, py2)
        from wthi.dmc import DmcWthi

        ch = DmcWthi(2, 2, 2, 2, t)

        def spec_with(r1d_dprime):
            return CodebookSpec(
                n=10, r1s=0.2, r1d_prime=0.0, r1d_dprime=r1d_dprime,
                r2=0.0, r2_prime=0.0, r2_dprime=0.0,
            )

        wins = 0
        for seed in range(5):
            low = simulate(ch, UNIFORM, spec_with(0.1), seed, 120)
            high = simulate(ch, UNIFORM, spec_with(0.5), seed, 120)
            wins += high.equivocation_ratio >= low.equivocation_ratio - 0.02
        assert wins >= 3

    @pytest.mark.parametrize("r1s, r2", [(2 / 7, 1 / 7), (HEAVY_SPEC.r1s, HEAVY_SPEC.r2)])
    def test_prefix_is_bit_exact_across_chunk_boundaries(self, r1s, r2):
        spec = CodebookSpec(n=14, r1s=r1s, r1d_prime=0.0, r1d_dprime=0.0,
                            r2=r2, r2_prime=0.0, r2_dprime=r2)
        ch = trend_channel()
        m1, m2 = spec.sizes[0], spec.sizes[4]
        chunk = max(1, binning._CHUNK_ELEMENTS // (m1 * (m2 + ch.nx2 * spec.n)))
        short = 3 * chunk // 2 + 1  # ends inside the second chunk
        res_short = simulate(ch, UNIFORM, spec, 5, short)
        res_long = simulate(ch, UNIFORM, spec, 5, 2 * short)
        assert np.array_equal(res_short.h_bits, res_long.h_bits[:short])
        assert np.array_equal(res_short.errors, res_long.errors[:short])

    def test_prefix_is_bit_exact_across_drawn_chunks(self, monkeypatch):
        # each chunk draws its own trials; runs that end inside the first and the
        # second chunk are prefixes of the long run
        ch = trend_channel()
        chunks = []
        trial_draws = binning._trial_draws

        def recording(rng, count, *args):
            chunks.append(count)
            return trial_draws(rng, count, *args)

        monkeypatch.setattr(binning, "_trial_draws", recording)
        full = simulate(ch, UNIFORM, SHORT_SPEC, 9, 12000)
        chunk = chunks[0]
        assert len(chunks) >= 2 and chunk < 12000 // 2
        for short in (chunk - 1, chunk + chunk // 3 + 1):
            res = simulate(ch, UNIFORM, SHORT_SPEC, 9, short)
            assert np.array_equal(res.h_bits, full.h_bits[:short])
            assert np.array_equal(res.errors, full.errors[:short])

    def test_seeds_are_taken_mod_2_64_without_collisions(self):
        ch = blind_eavesdropper_channel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            minus = [build_codebooks(ch, UNIFORM, BLIND_SPEC, s).c1 for s in (-1, -2)]
            wrapped = build_codebooks(ch, UNIFORM, BLIND_SPEC, 2**64 - 1).c1
            high = [simulate(trend_channel(), UNIFORM, SHORT_SPEC, s, 40).h_bits
                    for s in (2**63 + 1, 2**63 + 2)]
        assert not np.array_equal(minus[0], minus[1])
        assert np.array_equal(minus[0], wrapped)
        assert not np.array_equal(high[0], high[1])

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(DomainError):
            simulate(blind_eavesdropper_channel(), UNIFORM, BLIND_SPEC, 0, 0)

    def test_rejects_trials_over_the_budget_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the budget is checked before the codebooks are drawn")

        monkeypatch.setattr(binning, "build_codebooks", unreachable)
        with pytest.raises(DeskScaleError, match="4000001 trials exceed"):
            simulate(blind_eavesdropper_channel(), UNIFORM, BLIND_SPEC, 0, 4_000_001)

    def test_per_trial_arrays_are_read_only_and_outside_equality(self):
        res = simulate(trend_channel(), UNIFORM, SHORT_SPEC, 6, 50)
        assert res.h_bits.shape == res.errors.shape == (50,)
        assert (res.h_bits.dtype, res.errors.dtype) == (np.float64, np.bool_)
        for arr in (res.h_bits, res.errors):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert res.p_e == float(np.mean(res.errors))
        assert res.equivocation_ratio == float(np.mean(res.h_bits) / math.log2(SHORT_SPEC.sizes[0]))
        other = replace(res, h_bits=res.h_bits + 1.0, errors=~res.errors)
        assert other == res and hash(other) == hash(res)
        assert repr(res) == (f"SimResult(p_e={res.p_e!r}, "
                             f"equivocation_ratio={res.equivocation_ratio!r}, trials=50)")

    def test_detailed_view_is_simulate(self):
        # the tuple form stays only for the benchmark; it is the same run
        ch = trend_channel()
        res = simulate(ch, UNIFORM, SHORT_SPEC, 8, 30)
        view, h_bits, errors = binning.simulate_detailed(ch, UNIFORM, SHORT_SPEC, 8, 30)
        assert view == res
        assert h_bits is view.h_bits and errors is view.errors
        assert np.array_equal(h_bits, res.h_bits) and np.array_equal(errors, res.errors)


class TestTrialDraws:
    @given(
        st.one_of(st.sampled_from([0, -1, 2**63, 2**64 - 1]),
                  st.integers(min_value=-2**63, max_value=2**64 - 1)),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=40),
        st.lists(st.one_of(st.sampled_from([1, 2, 2**20]), st.integers(min_value=1, max_value=2**20)),
                 min_size=5, max_size=5).map(tuple),
        st.integers(min_value=1, max_value=14),
    )
    @settings(max_examples=200, deadline=None)
    def test_trials_read_one_stream_in_order(self, seed, start, count, sizes, n):
        # trial t is row t of one generator of key words (seed mod 2^64, 1) read
        # from counter 0, ceil((5 + n) / 4) counters of four doubles a row,
        # whether the trials before it were read in one call or several
        rng = binning._stream(seed, 1)
        for before in (start // 3, start - start // 3):
            binning._trial_draws(rng, before, sizes, n)
        draws, u = binning._trial_draws(rng, count, sizes, n)
        rng = np.random.Generator(np.random.Philox(key=seed % 2**64 + 2**64))
        rows = rng.random((start + count, 4 * math.ceil((5 + n) / 4)))[start:]
        assert np.array_equal(draws, np.floor(rows[:, :5] * np.array(sizes)).astype(np.int64))
        assert np.array_equal(u, rows[:, 5:5 + n])

    def test_the_largest_uniform_maps_below_every_size(self):
        # 1 - 2^-53 times m rounds below m for every size _size can return
        class Top:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        sizes = np.arange(1, (1 << binning._MAX_PAIRS.bit_length()) + 1)
        draws, _ = binning._trial_draws(Top(), 1, sizes, 1)
        assert np.array_equal(draws[0], sizes - 1)

    def test_simulation_uses_each_trials_own_draws(self, monkeypatch):
        # chunks of 8 trials, each drawing its own trials, against all trials
        # drawn and scored in one chunk
        ch = trend_channel()
        m1, m2 = SHORT_SPEC.sizes[0], SHORT_SPEC.sizes[4]
        per_trial = m1 * (m2 + ch.nx2 * SHORT_SPEC.n)
        blocks = []
        trial_draws = binning._trial_draws

        def recording(rng, count, *args):
            blocks.append(count)
            return trial_draws(rng, count, *args)

        monkeypatch.setattr(binning, "_trial_draws", recording)
        monkeypatch.setattr(binning, "_CHUNK_ELEMENTS", 8 * per_trial)
        small = simulate(ch, UNIFORM, SHORT_SPEC, 4, 1000)
        monkeypatch.setattr(binning, "_CHUNK_ELEMENTS", 1000 * per_trial)
        one = simulate(ch, UNIFORM, SHORT_SPEC, 4, 1000)
        assert blocks == [8] * 125 + [1000]
        assert np.array_equal(small.h_bits, one.h_bits)
        assert np.array_equal(small.errors, one.errors)

    def test_each_call_builds_two_generators(self, monkeypatch):
        # one for the codebooks and one that every chunk reads, in runs of 1
        # chunk and of 125 (the chunk sizes of the test above)
        ch = trend_channel()
        per_trial = SHORT_SPEC.sizes[0] * (SHORT_SPEC.sizes[4] + ch.nx2 * SHORT_SPEC.n)
        streams = []
        stream = binning._stream
        monkeypatch.setattr(binning, "_stream",
                            lambda seed, kind: streams.append(kind) or stream(seed, kind))
        for per_chunk in (1000, 8):
            monkeypatch.setattr(binning, "_CHUNK_ELEMENTS", per_chunk * per_trial)
            simulate(ch, UNIFORM, SHORT_SPEC, 4, 1000)
        assert streams == [0, 1, 0, 1]


class TestPairScores:
    @given(
        st.tuples(*[st.integers(min_value=2, max_value=3)] * 3),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fsum_oracle(self, sizes, seed, sparse):
        rng = np.random.default_rng(seed)
        log_p = random_table(sizes, rng, sparse)
        n, m1, m2, trials = (int(v) for v in rng.integers(1, [15, 9, 9, 4]))
        c1f = rng.integers(sizes[0], size=(m1, n))
        c2f = rng.integers(sizes[1], size=(m2, n))
        y = rng.integers(sizes[2], size=(trials, n))
        got = binning._pair_scores(log_p, c1f * sizes[2] + y[:, None], c2f)
        for t in range(trials):
            want = pair_loglik_reference(log_p, c1f, c2f, y[t])
            assert np.array_equal(np.isneginf(got[t]), np.isneginf(want))
            finite = np.isfinite(want)
            assert np.all(np.isfinite(got[t][finite]))
            assert np.max(np.abs(got[t][finite] - want[finite]), initial=0.0) <= 1e-12

    def test_matches_fsum_oracle_at_full_size(self):
        # criterion-9 sizes: the count products run in several row blocks
        ch = trend_channel()
        books = build_codebooks(ch, UNIFORM, HEAVY_SPEC, 1)
        c1f = books.c1.reshape(-1, HEAVY_SPEC.n)
        c2f = books.c2.reshape(-1, HEAVY_SPEC.n)
        assert c1f.shape[0] * HEAVY_SPEC.n > binning._GEMM_ELEMENTS // c2f.shape[0]
        log_p = binning._log_table(ch.receiver_marginal())
        y = np.random.default_rng(2).integers(ch.ny1, size=(1, HEAVY_SPEC.n))
        got = binning._pair_scores(log_p, c1f * ch.ny1 + y[:, None], c2f)[0]
        want = pair_loglik_reference(log_p, c1f, c2f, y[0])
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=3)] * 3),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["dense", "sparse", "ties"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_count_oracle_bit_for_bit(self, sizes, seed, kind):
        rng = np.random.default_rng(seed)
        log_p = table_of_kind(kind, sizes, rng)
        n, m1, m2, trials = (int(v) for v in rng.integers(1, [15, 9, 9, 4]))
        c1f = rng.integers(sizes[0], size=(m1, n))
        c2f = rng.integers(sizes[1], size=(m2, n))
        y = rng.integers(sizes[2], size=(trials, n))
        got = binning._pair_scores(log_p, c1f * sizes[2] + y[:, None], c2f)
        for t in range(trials):
            assert np.array_equal(got[t], pair_count_scores_reference(log_p, c1f, c2f, y[t]))

    @pytest.mark.parametrize("marginal", ["receiver_marginal", "eavesdropper_marginal"])
    def test_equals_the_count_oracle_at_full_size(self, marginal):
        # criterion-9 sizes, with the count products in several row blocks
        ch = trend_channel()
        books = build_codebooks(ch, UNIFORM, HEAVY_SPEC, 1)
        c1f = books.c1.reshape(-1, HEAVY_SPEC.n)
        c2f = books.c2.reshape(-1, HEAVY_SPEC.n)
        log_p = binning._log_table(getattr(ch, marginal)())
        y = np.random.default_rng(2).integers(log_p.shape[2], size=(2, HEAVY_SPEC.n))
        got = binning._pair_scores(log_p, c1f * log_p.shape[2] + y[:, None], c2f)
        assert c1f.shape[0] * got.shape[2] * HEAVY_SPEC.n * ch.nx2 > binning._GEMM_ELEMENTS
        for t in range(len(y)):
            assert np.array_equal(got[t], pair_count_scores_reference(log_p, c1f, c2f, y[t]))

    def test_equal_joint_types_tie_to_the_lowest_index(self):
        # The arrangements put two ones in each half of y, so against one
        # interferer codeword they share a joint type in different symbol
        # orders.  The table holds four values in 16 cells, so the last two
        # codewords hit the same values as the arrangements through other
        # joint types; all of them tie against the second interferer codeword.
        ch = trend_channel()
        log_y1 = binning._log_table(ch.receiver_marginal())
        log_y2 = binning._log_table(ch.eavesdropper_marginal())
        y = np.array([[1, 1, 1, 1, 2, 2, 2, 2]])
        arrangements = [w for w in itertools.product((0, 1), repeat=8)
                        if sum(w[:4]) == 2 and sum(w[4:]) == 2]
        c1f = np.array([(1, 1, 1, 1, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 1)] + arrangements
                       + [(1, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)])
        c2f = np.array([(0, 0, 0, 0, 1, 1, 1, 1), (1, 1, 1, 1, 0, 0, 0, 0)])
        scores = binning._pair_scores(log_y1, c1f * ch.ny1 + y[:, None], c2f)[0]

        def joint_type(pair):
            return frozenset(Counter(zip(c1f[pair[0]], c2f[pair[1]], y[0])).items())

        def symbol_order_sum(pair):
            return sum(float(v) for v in log_y1[c1f[pair[0]], c2f[pair[1]], y[0]])

        groups = {}  # pairs by the multiset of table values they hit
        for i, j in np.ndindex(scores.shape):
            groups.setdefault(tuple(sorted(log_y1[c1f[i], c2f[j], y[0]])), []).append((i, j))
        for pairs in groups.values():
            assert len({scores[p] for p in pairs}) == 1
        # the groups mix joint types, and summing in symbol order splits some
        assert any(len({joint_type(p) for p in pairs}) > 1 for pairs in groups.values())
        assert any(len({symbol_order_sum(p) for p in pairs}) > 1 for pairs in groups.values())

        want = pair_loglik_reference(log_y1, c1f, c2f, y[0])
        best = np.flatnonzero(want == want.max())
        assert len(best) == len(arrangements) + 2
        assert int(np.argmax(scores)) == best[0]
        w1_hat, _ = binning._score_chunk(log_y1, log_y2, c1f, c2f, c1f.shape[0], y, y % 2)
        assert w1_hat[0] == best[0] // 2

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=3)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_symbol_order_does_not_change_trials(self, sizes, seed, sparse):
        rng = np.random.default_rng(seed)
        t = np.exp(random_table((sizes[0], sizes[1], sizes[2] * sizes[3]), rng, sparse))
        ch = DmcWthi(*sizes, t.reshape(sizes))
        log_y1 = binning._log_table(ch.receiver_marginal())
        log_y2 = binning._log_table(ch.eavesdropper_marginal())
        n, m1s, per_bin, m2, trials = (int(v) for v in rng.integers(1, [15, 5, 4, 9, 6]))
        c1f = rng.integers(ch.nx1, size=(m1s * per_bin, n))
        c2f = rng.integers(ch.nx2, size=(m2, n))
        y1 = rng.integers(ch.ny1, size=(trials, n))
        y2 = rng.integers(ch.ny2, size=(trials, n))
        perm = rng.permutation(n)
        w1_hat, h_bits = binning._score_chunk(log_y1, log_y2, c1f, c2f, m1s, y1, y2)
        w1_perm, h_perm = binning._score_chunk(
            log_y1, log_y2, c1f[:, perm], c2f[:, perm], m1s, y1[:, perm], y2[:, perm])
        assert np.array_equal(w1_hat, w1_perm)
        assert np.array_equal(h_bits, h_perm)


class TestPrunedDecoder:
    @given(
        st.tuples(*[st.integers(min_value=2, max_value=3)] * 3),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["dense", "sparse", "ties"]),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    @example(sizes=(2, 2, 2), seed=172, kind="ties", n=4, trials=1, impossible=False)  # no finite cell
    def test_matches_the_exhaustive_argmax(self, sizes, seed, kind, n, trials, impossible):
        rng = np.random.default_rng(seed)
        nx1, nx2, ny = sizes
        # no input pair emits y = ny
        log_p = np.concatenate([table_of_kind(kind, sizes, rng), np.full((nx1, nx2, 1), -np.inf)],
                               axis=2)
        m1, m2 = (int(v) for v in rng.integers(1, 10, size=2))
        c1f = rng.integers(nx1, size=(m1, n))
        c2f = rng.integers(nx2, size=(m2, n))
        y = rng.integers(ny, size=(trials, n))
        if impossible:
            y[0, rng.integers(n)] = ny
        cells = c1f * (ny + 1) + y[:, None]
        exhaustive = binning._pair_scores(log_p, cells, c2f).reshape(trials, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = binning._ml_index(log_p, cells, c2f)
        assert np.array_equal(got, exhaustive.argmax(axis=1))
        if impossible:
            assert got[0] == 0

    def test_slack_keeps_a_row_whose_float_bound_rounds_low(self):
        # one interferer symbol and one output: both rows hit the same values, so
        # they tie, but summed in symbol order row 0 comes out one ulp lower
        log_p = np.log([0.1, 0.2, 0.3, 0.4]).reshape(4, 1, 1)
        cells, c2f = np.array([[[2, 2, 3], [2, 3, 2]]]), np.zeros((1, 3), dtype=int)
        sums = log_p.ravel()[cells[0]].sum(axis=1)
        assert sums[0] < sums[1]
        assert binning._ml_index(log_p, cells, c2f)[0] == 0

    def test_scores_few_rows_at_criterion_9_sizes(self, monkeypatch):
        kept, rows = [], []
        survivors = binning._survivors

        def recording(log_p, cells, c2f):
            t, i = survivors(log_p, cells, c2f)
            kept.append(len(t))
            rows.append(cells.shape[0] * cells.shape[1])
            return t, i

        monkeypatch.setattr(binning, "_survivors", recording)
        simulate(trend_channel(), UNIFORM, HEAVY_SPEC, 0, 4)
        assert sum(rows) == 4 * HEAVY_SPEC.sizes[0]
        assert sum(kept) < 0.02 * sum(rows)

    @pytest.mark.parametrize("k, n, r1s", [(12, 4, 1.0), (130, 3, 2.0)])
    def test_large_alphabets_score_their_own_cells(self, k, n, r1s):
        # a noiseless k-letter channel; in int8, x1 * ny1 wraps from 12 letters
        # on, and the symbols themselves from 129
        t = np.zeros((k, 1, k, 1))
        t[np.arange(k), 0, np.arange(k), 0] = 1.0
        ch = DmcWthi(k, 1, k, 1, t)
        spec = CodebookSpec(n=n, r1s=r1s, r1d_prime=0.0, r1d_dprime=0.0,
                            r2=0.0, r2_prime=0.0, r2_dprime=0.0)
        inp = ProductInput.uniform(k, 1)
        c1 = build_codebooks(ch, inp, spec, 0).c1.reshape(-1, spec.n)
        assert len({tuple(r) for r in c1}) == c1.shape[0]  # distinct codewords
        assert simulate(ch, inp, spec, 0, 200).p_e == 0.0


class TestEquivocation:
    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(31)
        log_y1 = random_table((2, 3, 3), rng, sparse=False)
        p = rng.random((2, 3, 4))
        p[p < 0.35] = 0.0
        p[..., 3] = 0.0  # no input pair emits y2 = 3
        p[..., 0] += p.sum(axis=2) == 0.0
        log_y2 = binning._log_table(p / p.sum(axis=2, keepdims=True))
        # the entropy of a computed uniform pmf on 11 points is not log2(11) exactly
        n, m1s, per_bin, m2, trials = 5, 11, 2, 5, 120
        c1f = rng.integers(2, size=(m1s * per_bin, n))
        c2f = rng.integers(3, size=(m2, n))
        y1 = rng.integers(3, size=(trials, n))
        y2 = rng.integers(3, size=(trials, n))
        y2[:3, 0] = 3  # impossible under every pair: the flat posterior
        _, h_bits = binning._score_chunk(log_y1, log_y2, c1f, c2f, m1s, y1, y2)
        assert np.all(h_bits[:3] == math.log2(m1s))
        lls = [pair_loglik_reference(log_y2, c1f, c2f, y) for y in y2]
        for h, ll in zip(h_bits, lls):
            assert abs(h - posterior_entropy_reference(ll, m1s)) <= 1e-12
        # some possible observations rule out a whole bin, some only some pairs
        bins_dead = [np.isneginf(ll.reshape(m1s, -1)).all(axis=1) for ll in lls[3:]]
        assert any(dead.any() and not dead.all() for dead in bins_dead)
        assert any(np.isneginf(ll).any() and not dead.any() for ll, dead in zip(lls[3:], bins_dead))

    def test_trend_channel_eavesdropper_table_has_two_values(self):
        # p(y2 | x1, x2) depends on x1 xor x2 only, and each scored value costs
        # one count pass, so equal cells must be equal doubles
        table = binning._log_table(trend_channel().eavesdropper_marginal())
        assert np.unique(table).size == 2


class TestResultRecord:
    def test_fields(self):
        res = simulate(blind_eavesdropper_channel(), UNIFORM, BLIND_SPEC, 2, 10)
        record = result_record(BLIND_SPEC, 2, res)
        assert record["seed"] == 2
        assert record["trials"] == 10
        assert record["p_e"] == res.p_e
        assert record["equivocation_ratio"] == res.equivocation_ratio
        assert "runtime_ms" not in record  # a wall time would make the record irreproducible
        assert record["rng"] == RNG_ALGORITHM
        assert record["spec"]["n"] == BLIND_SPEC.n
