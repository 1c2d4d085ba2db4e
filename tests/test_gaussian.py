import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wthi.errors import DomainError
from wthi.gaussian import (
    GaussianWthi,
    PowerAllocation,
    Regime,
    _Math,
    _rate_array,
    _rates,
    awgn_capacity,
    rate_achievable,
    rate_wiretap,
)

from channels import CLOSED_GAINS, CLOSED_POWERS, SEAMS, closed_channels, on_seam
from oracles import half_log2, rate_achievable_reference


@st.composite
def closed_domain_grids(draw):
    """A channel of the closed domain and power axes p1s, p2s within its caps, with
    the gains on one of the seams at a point of the axes."""
    p1s = draw(st.lists(CLOSED_POWERS, min_size=1, max_size=4))
    p2s = draw(st.lists(CLOSED_POWERS, min_size=1, max_size=4))
    a, b = draw(CLOSED_GAINS), draw(CLOSED_GAINS)
    seam, p1, p2 = (draw(st.sampled_from(x)) for x in (SEAMS, p1s, p2s))
    ch = GaussianWthi(*on_seam(seam, a, b, p1, p2), max(p1s), max(p2s))
    return ch, np.asarray(p1s), np.asarray(p2s)


class TestAwgnCapacity:
    def test_identity_cases(self):
        assert awgn_capacity(0.0) == 0.0
        assert awgn_capacity(1.0) == pytest.approx(0.5, abs=1e-15)
        assert awgn_capacity(3.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.inf, math.nan])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            awgn_capacity(bad)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert awgn_capacity(lo) <= awgn_capacity(hi) + 1e-12


class TestRateWiretap:
    def test_equal_channels_give_zero(self):
        assert rate_wiretap(1.0, 10.0) == 0.0

    def test_clamped_when_eavesdropper_stronger(self):
        assert rate_wiretap(2.0, 10.0) == 0.0

    def test_value_against_high_precision(self):
        # C(10) - C(5) = (1/2) log2(11/6), recomputed at 50 digits
        assert rate_wiretap(0.5, 10.0) == pytest.approx(half_log2(11, 6), abs=1e-14)


class TestInterferenceAssisted:
    def test_decode_cancel_branch(self):
        ch = GaussianWthi(0.5, 12.0, 10.0, 10.0)
        rate, split = rate_achievable(ch, PowerAllocation(10.0, 10.0))
        assert rate == pytest.approx(half_log2(121, 16), abs=1e-12)
        assert split.regime is Regime.DECODE_CANCEL
        assert split.r2 == pytest.approx(awgn_capacity(10.0))
        assert split.r1d == pytest.approx(awgn_capacity(5.0 / 11.0))

    def test_zero_transmit_power(self):
        ch = GaussianWthi(1.7, 0.3, 5.0, 40.0)
        rate, _ = rate_achievable(ch, PowerAllocation(0.0, 17.0))
        assert rate == 0.0

    def test_treat_as_noise_with_blind_eavesdropper(self):
        # the assisted piece alone: with a = 0 the wiretap scheme wins the rate
        assisted, r1d, _, _ = _rates(0.0, 0.5, 10.0, 10.0, _Math)
        assert assisted == pytest.approx(half_log2(8, 3), abs=1e-12)
        assert r1d == 0.0

    def test_treat_as_noise_regime(self):
        ch = GaussianWthi(0.5, 0.1, 10.0, 10.0)
        rate, split = rate_achievable(ch, ch.full_power())
        assert rate == pytest.approx(rate_achievable_reference(0.5, 0.1, 10.0, 10.0), abs=1e-12)
        assert rate == pytest.approx(1.02220, abs=1e-5)
        assert split.regime is Regime.TREAT_AS_NOISE

    @given(CLOSED_GAINS, CLOSED_POWERS, CLOSED_POWERS)
    @settings(max_examples=100, deadline=None)
    def test_continuous_across_joint_decode_seam(self, a, p1, p2):
        # b = 1 + p1 separates decode-cancel from joint decoding.
        seam = 1.0 + p1
        delta = 1e-10 * max(1.0, seam)
        r_lo = _rates(a, seam - delta, p1, p2, _Math)[0]
        r_hi = _rates(a, seam + delta, p1, p2, _Math)[0]
        assert abs(r_lo - r_hi) < 1e-9

    @given(CLOSED_GAINS, CLOSED_POWERS, CLOSED_POWERS)
    @settings(max_examples=100, deadline=None)
    def test_continuous_across_treat_as_noise_seam(self, a, p1, p2):
        delta = 1e-10
        r_lo = _rates(a, 1.0 - delta, p1, p2, _Math)[0]
        r_hi = _rates(a, 1.0 + delta, p1, p2, _Math)[0]
        assert abs(r_lo - r_hi) < 1e-9


class TestInterfererSilent:
    def test_trivial_points(self):
        ch = GaussianWthi(1.0, 2.0, 5.0, 5.0)
        assert rate_wiretap(ch.a, 5.0) == 0.0
        ch = GaussianWthi(0.25, 2.0, 5.0, 5.0)
        assert rate_wiretap(ch.a, 0.0) == 0.0

    def test_same_contract_as_wiretap(self):
        # the silent scheme inside rate_achievable is rate_wiretap
        ch = GaussianWthi(0.5, 3.0, 10.0, 5.0)
        rate, _ = rate_achievable(ch, PowerAllocation(10.0, 0.0))
        assert rate == rate_wiretap(0.5, 10.0)

    @given(st.floats(min_value=0.0, max_value=0.999), CLOSED_POWERS, CLOSED_POWERS)
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_a_and_p1(self, a, p1, p2):
        lo, hi = sorted((p1, p2))
        assert rate_wiretap(a, lo) <= rate_wiretap(a, hi) + 1e-12
        assert rate_wiretap(a + 0.2, p1) <= rate_wiretap(a, p1) + 1e-12


class TestRateAchievable:
    def test_reduces_to_wiretap_when_eavesdropper_strong(self):
        ch = GaussianWthi(2.0, 0.1, 10.0, 0.0)
        rate, split = rate_achievable(ch, PowerAllocation(10.0, 0.0))
        assert rate == 0.0
        assert split.regime is Regime.SILENT

    def test_zero_beyond_positivity_boundary(self):
        # symmetric gains a = b = 12 exceed 1 + p2 = 11: no secrecy possible
        ch = GaussianWthi(12.0, 12.0, 10.0, 10.0)
        rate, _ = rate_achievable(ch, PowerAllocation(10.0, 10.0))
        assert rate == 0.0

    def test_interferer_strictly_helps(self):
        ch = GaussianWthi(0.5, 10.0, 10.0, 10.0)
        rate, split = rate_achievable(ch, PowerAllocation(10.0, 10.0))
        assert rate > rate_wiretap(0.5, 10.0)
        # joint-decoding value C(110) - C(15) = (1/2) log2(111/16)
        assert rate == pytest.approx(half_log2(111, 16), abs=1e-12)
        assert split.regime is Regime.JOINT_DECODE

    @given(closed_channels())
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_split_consistent(self, ch):
        rate, split = rate_achievable(ch, ch.full_power())
        assert rate >= 0.0
        assert split.r1s == rate
        assert abs(split.r1 - (split.r1s + split.r1d)) <= 1e-12
        assert min(split.r1, split.r2, split.r1s, split.r1d) >= 0.0

    @given(closed_channels())
    @settings(max_examples=100, deadline=None)
    def test_no_interferer_reduction_is_exact(self, ch):
        rate, _ = rate_achievable(ch, PowerAllocation(ch.p1_max, 0.0))
        assert rate == rate_wiretap(ch.a, ch.p1_max)

    @given(st.floats(min_value=1.0, max_value=60.0), CLOSED_GAINS, CLOSED_POWERS)
    @settings(max_examples=100, deadline=None)
    def test_very_strong_eavesdropping_gives_zero(self, a_excess, b, p2):
        a = 1.0 + p2 + a_excess
        ch = GaussianWthi(a, b, 30.0, p2 + 1e-9)
        rate, _ = rate_achievable(ch, PowerAllocation(30.0, p2))
        assert rate == 0.0

    def test_very_strong_boundary_is_exactly_zero(self):
        # a = 1 + p2 up to rounding: the rate is zero, not a rounding residue
        ch = GaussianWthi(3.4871134774380947, 25.52121996783805, 0.307563713665154,
                          2.4871134774380947)
        rate, split = rate_achievable(ch, ch.full_power())
        assert rate == 0.0
        assert split.regime is Regime.SILENT

    def test_allocation_must_respect_constraints(self):
        ch = GaussianWthi(0.5, 2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            rate_achievable(ch, PowerAllocation(2.0, 0.5))

    def test_capacity_overflow_raises(self):
        # a*p1 overflows a float while a < 1 + p2, so the rate is not trivially 0
        ch = GaussianWthi(10.0, 0.5, 1e308, 100.0)
        with pytest.raises(DomainError):
            rate_achievable(ch, ch.full_power())

    @given(closed_domain_grids())
    @settings(max_examples=200, deadline=None)
    def test_matches_high_precision_on_closed_domain(self, case):
        ch, p1s, p2s = case
        for p1 in p1s:
            for p2 in p2s:
                rate, _ = rate_achievable(ch, PowerAllocation(p1, p2))
                expected = rate_achievable_reference(ch.a, ch.b, p1, p2)
                assert rate == pytest.approx(expected, abs=1e-9)


class TestVectorizedTwin:
    def test_matches_scalar_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b = rng.uniform(0.0, 4.0, 2)
            ch = GaussianWthi(a, b, 50.0, 50.0)
            p1s = rng.uniform(0.0, 50.0, 6)
            p2s = rng.uniform(0.0, 50.0, 5)
            grid = _rate_array(ch.a, ch.b, p1s[:, None], p2s)
            for i, p1 in enumerate(p1s):
                for j, p2 in enumerate(p2s):
                    scalar, _ = rate_achievable(ch, PowerAllocation(p1, p2))
                    assert grid[i, j] == pytest.approx(scalar, abs=1e-12)

    def test_very_strong_boundary_is_exactly_zero(self):
        # the channel of TestRateAchievable: a = 1 + p2 up to rounding
        ch = GaussianWthi(3.4871134774380947, 25.52121996783805, 0.307563713665154,
                          2.4871134774380947)
        p1s, p2s = np.asarray([0.0, 0.1, ch.p1_max]), np.asarray([0.0, 1.0, ch.p2_max])
        grid = _rate_array(ch.a, ch.b, p1s[:, None], p2s)
        assert grid[2, 2] == 0.0
        for i, p1 in enumerate(p1s):
            for j, p2 in enumerate(p2s):
                assert grid[i, j] == rate_achievable(ch, PowerAllocation(p1, p2))[0]

    @given(closed_domain_grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rate_on_closed_domain(self, case):
        # np.log1p and math.log1p may differ in the last bit, so the two agree
        # on the exact zeros and to 1e-12 elsewhere, not bit for bit
        ch, p1s, p2s = case
        grid = _rate_array(ch.a, ch.b, p1s[:, None], p2s)
        for i, p1 in enumerate(p1s):
            for j, p2 in enumerate(p2s):
                scalar, _ = rate_achievable(ch, PowerAllocation(p1, p2))
                assert (grid[i, j] == 0.0) == (scalar == 0.0)
                assert grid[i, j] == pytest.approx(scalar, abs=1e-12)


class TestDomainTypes:
    def test_degraded_predicate(self):
        # the eavesdropper output is a noisy function of the receiver's exactly
        # when a*b = 1 (within 1e-12) and a <= 1
        ch = GaussianWthi(0.5, 2.0, 1.0, 1.0)
        assert abs(ch.a * ch.b - 1.0) <= 1e-12 and ch.a <= 1.0
        ch = GaussianWthi(2.0, 0.5, 1.0, 1.0)
        assert abs(ch.a * ch.b - 1.0) <= 1e-12 and ch.a > 1.0
        ch = GaussianWthi(0.5, 2.0 + 1e-6, 1.0, 1.0)
        assert abs(ch.a * ch.b - 1.0) > 1e-12

    def test_rejects_negative_fields(self):
        with pytest.raises(DomainError):
            GaussianWthi(-0.1, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            PowerAllocation(1.0, -2.0)
