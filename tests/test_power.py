import itertools
import math
import time
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wthi import power
from wthi.bounds import bound_main_channel, bound_z_channel
from wthi.errors import DeskScaleError, DomainError
from wthi.gaussian import GaussianWthi, PowerAllocation, rate_achievable
from wthi.power import (
    PolicyIntermediates,
    asymptotic_rate,
    grid_oracle_detailed,
    intermediates,
    optimal_power,
)

from oracles import half_log2


def random_channel(rng) -> GaussianWthi:
    return GaussianWthi(
        rng.uniform(0.05, 5.0),
        rng.uniform(0.05, 5.0),
        rng.uniform(0.1, 50.0),
        rng.uniform(0.1, 50.0),
    )


class TestOptimalPower:
    def test_silent_below_interferer_power_threshold(self):
        # positive rate needs p2 > (a-1)/(1-a*b) = 1.25 here
        for p2_max in (0.5, 1.2, 1.25):
            ch = GaussianWthi(2.0, 0.1, 10.0, p2_max)
            alloc, _ = optimal_power(ch)
            assert (alloc.p1, alloc.p2) == (0.0, 0.0)
            best = grid_oracle_detailed(ch, 80, 80).rate
            assert best == 0.0

    def test_decode_cancel_point(self):
        ch = GaussianWthi(0.5, 12.0, 20.0, 100.0)
        alloc, inter = optimal_power(ch)
        assert (alloc.p1, alloc.p2) == (11.0, 100.0)
        assert inter.p1_star == 11.0
        rate, _ = rate_achievable(ch, alloc)
        res = grid_oracle_detailed(ch, 150, 150)
        assert rate >= res.rate - res.eps_grid - 1e-12

    def test_interior_interferer_power(self):
        # a = b = 0.5 with a small transmitter cap: the rate-maximizing
        # interferer power is the interior stationary point, not zero.
        ch = GaussianWthi(0.5, 0.5, 0.1, 10.0)
        alloc, inter = optimal_power(ch)
        assert alloc.p1 == 0.1
        assert alloc.p2 == pytest.approx(inter.p2_star, abs=1e-15)
        assert alloc.p2 == pytest.approx(0.0482536863, abs=1e-9)
        rate, _ = rate_achievable(ch, alloc)
        rate_zero, _ = rate_achievable(ch, PowerAllocation(0.1, 0.0))
        assert rate > rate_zero
        res = grid_oracle_detailed(ch, 200, 200)
        assert rate >= res.rate - res.eps_grid - 1e-12

    def test_interference_harmful_when_transmitter_weak(self):
        # a < b < 1 with p1_max below (b-a)/(a(1-b)): interferer stays silent.
        ch = GaussianWthi(0.3, 0.6, 1.0, 10.0)
        assert (0.6 - 0.3) / (0.3 * 0.4) == pytest.approx(2.5)
        alloc, _ = optimal_power(ch)
        assert (alloc.p1, alloc.p2) == (1.0, 0.0)
        res = grid_oracle_detailed(ch, 200, 200)
        rate, _ = rate_achievable(ch, alloc)
        assert rate >= res.rate - res.eps_grid - 1e-12

    def test_policy_never_loses_to_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ch = random_channel(rng)
            alloc, _ = optimal_power(ch)
            rate, _ = rate_achievable(ch, alloc)
            res = grid_oracle_detailed(ch, 120, 120)
            assert rate >= res.rate - res.eps_grid - 1e-12

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_respects_constraints(self, a, b, p1m, p2m):
        ch = GaussianWthi(a, b, p1m, p2m)
        alloc, _ = optimal_power(ch)
        assert 0.0 <= alloc.p1 <= p1m + 1e-12
        assert 0.0 <= alloc.p2 <= p2m + 1e-12

    def test_positivity_condition_with_large_interferer_power(self):
        # with a huge interferer power cap, a positive rate is possible exactly
        # when a < 1, or b > 1, or (a > 1 and b < 1/a)
        avals = np.linspace(0.07, 4.91, 20)
        bvals = np.linspace(0.06, 4.88, 20)
        for a in avals:
            for b in bvals:
                if min(abs(a - 1), abs(b - 1), abs(a * b - 1)) < 0.05:
                    continue  # keep away from the boundary manifolds
                ch = GaussianWthi(float(a), float(b), 10.0, 1e4)
                alloc, _ = optimal_power(ch)
                rate, _ = rate_achievable(ch, alloc)
                expect_positive = (a < 1) or (b > 1) or (a > 1 and b < 1 / a)
                assert (rate > 1e-9) == expect_positive, (a, b, rate)

    def test_boundary_rates_each_distinct_allocation_once(self, monkeypatch):
        # a = 1 is a branch boundary; with p2_max = 0 the transmit-only and the
        # full-power entries of the menu are the same pair (10, 0)
        ch = GaussianWthi(1.0, 2.0, 10.0, 0.0)
        rated = []

        def counting_rate(ch, alloc):
            rated.append((alloc.p1, alloc.p2))
            return rate_achievable(ch, alloc)

        monkeypatch.setattr(power, "rate_achievable", counting_rate)
        alloc, _ = optimal_power(ch)
        assert rated == [(0.0, 0.0), (10.0, 0.0), (1.0, 0.0)]  # the prescribed one first
        assert alloc == PowerAllocation(0.0, 0.0)


class TestIntermediates:
    def test_p1_star_only_defined_for_b_at_least_one(self):
        assert intermediates(GaussianWthi(0.5, 3.0, 5.0, 5.0)).p1_star == 2.0
        assert intermediates(GaussianWthi(0.5, 0.9, 5.0, 5.0)).p1_star is None

    def test_p2_star_nonnegative_when_defined(self):
        rng = np.random.default_rng(3)
        seen = 0
        for _ in range(200):
            ch = random_channel(rng)
            inter = intermediates(ch)
            if inter.p2_star is not None:
                seen += 1
                assert inter.p2_star >= 0.0
        assert seen > 0

    def test_singular_cases_flagged(self):
        assert intermediates(GaussianWthi(0.5, 2.0, 5.0, 5.0)).p2_star is None  # ab = 1
        assert intermediates(GaussianWthi(2.0, 0.0, 5.0, 5.0)).p2_star is None  # b = 0
        assert intermediates(GaussianWthi(2.0, 0.0, 5.0, 5.0)).delta is None


class TestGridOracle:
    def test_capacity_overflow_raises(self):
        # p1 + b*p2 overflows a float, as it does for rate_achievable
        with pytest.raises(DomainError), np.errstate(over="ignore", invalid="ignore"):
            grid_oracle_detailed(GaussianWthi(0.5, 2.0, 1e308, 1e308), 20, 20)

    def test_symmetric_unit_gains_give_zero(self):
        best = grid_oracle_detailed(GaussianWthi(1.0, 1.0, 7.0, 13.0), 50, 50).rate
        assert best == 0.0

    def test_degenerate_interferer_cap_reduces_to_wiretap(self):
        res = grid_oracle_detailed(GaussianWthi(0.5, 10.0, 10.0, 0.0), 100, 2)
        alloc, best = res.alloc, res.rate
        assert (alloc.p1, alloc.p2) == (10.0, 0.0)
        assert best == pytest.approx(half_log2(11, 6), abs=1e-12)

    def test_policy_allocation_within_grid_tolerance(self):
        ch = GaussianWthi(2.0, 2.0, 10.0, 10.0)
        alloc, inter = optimal_power(ch)
        assert (alloc.p1, alloc.p2) == (1.0, 10.0)
        rate, _ = rate_achievable(ch, alloc)
        res = grid_oracle_detailed(ch, 200, 200)
        assert abs(res.rate - rate) <= res.eps_grid + 1e-12

    def test_rejects_tiny_grids(self):
        with pytest.raises(DomainError):
            grid_oracle_detailed(GaussianWthi(1.0, 1.0, 1.0, 1.0), 1, 50)

    def test_rejects_grids_over_the_budget_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(DeskScaleError, match="4002000 oracle grid points exceed"):
            grid_oracle_detailed(GaussianWthi(0.5, 10.0, 10.0, 10.0), 2001, 2000)
        assert time.perf_counter() - start < 0.1

    def test_underflowing_branch_point_denominator(self):
        # a*(1 - b) underflows to 0, so the level (b-a)/(a(1-b)) is +inf, not a division
        ch = GaussianWthi(5e-324, 0.5, 10.0, 10.0)
        res = grid_oracle_detailed(ch, 20, 20)
        alloc, _ = optimal_power(ch)
        assert res.alloc == alloc == PowerAllocation(10.0, 0.0)
        assert res.rate == rate_achievable(ch, alloc)[0] == pytest.approx(half_log2(11))


# Gains and powers from zero through subnormal, unit and huge to near the float maximum
EXTREMES = (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e300, 1.7e308)


class TestClosedDomain:
    def test_extreme_grid_raises_only_domain_error(self):
        # every channel of EXTREMES^4 and gain pair of EXTREMES^2: each operation
        # returns finite numbers or raises DomainError, and emits no warning
        operations = {
            "optimal_power": lambda ch: optimal_power(ch)[0],
            "intermediates": intermediates,
            "grid_oracle_detailed": lambda ch: grid_oracle_detailed(ch, 8, 8),
            "rate_achievable": lambda ch: rate_achievable(ch, ch.full_power())[0],
            "bound_main_channel": bound_main_channel,
            "bound_z_channel": bound_z_channel,
        }
        outputs = {name: 0 for name in operations}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for gains in itertools.product(EXTREMES, repeat=4):
                ch = GaussianWthi(*gains)
                for name, op in operations.items():
                    try:
                        out = op(ch)
                    except DomainError:
                        continue
                    if isinstance(out, PowerAllocation):
                        out = (out.p1, out.p2)
                    elif isinstance(out, PolicyIntermediates):  # None marks inapplicable
                        out = [x for x in astuple(out) if x is not None]
                    elif not isinstance(out, float):
                        out = (out.alloc.p1, out.alloc.p2, out.rate, out.eps_grid)
                    assert all(map(math.isfinite, np.atleast_1d(out))), (name, gains, out)
                    outputs[name] += 1
            for a, b in itertools.product(EXTREMES, repeat=2):
                try:
                    rate = asymptotic_rate(a, b)
                except DomainError:
                    assert a == 0.0 or b == 0.0, (a, b)
                    continue
                assert math.isfinite(rate) and rate >= 0.0, (a, b, rate)
        assert [str(w.message) for w in caught] == []
        # most channels have an answer; every bound_main_channel call does
        assert min(outputs.values()) > 9000 and outputs["bound_main_channel"] == 10**4

    @pytest.mark.parametrize("gains", [(1e300, 5e-324, 0.0, 0.0), (1.7e308, 5e-324, 2.0, 1.0)])
    def test_squared_gain_overflow(self, gains):
        # (a - 1)^2 and a/b overflow: the stationary point is unbounded, so inapplicable
        alloc, inter = optimal_power(GaussianWthi(*gains))
        assert math.isfinite(alloc.p1) and math.isfinite(alloc.p2)
        assert inter.p2_star is None and inter.delta is None


class TestAsymptoticRate:
    def test_known_limits(self):
        assert asymptotic_rate(1.0, 4.0) == pytest.approx(1.0, abs=1e-15)
        assert asymptotic_rate(0.5, 0.4) == pytest.approx(half_log2(5), abs=1e-14)
        assert asymptotic_rate(2.0, 1.0) == 0.0

    def test_limits_at_gains_whose_product_or_reciprocal_is_not_finite(self):
        # a * b underflows to 0 and 1 / 5e-324 overflows; the logs stay finite
        assert asymptotic_rate(1e-200, 1e-200) == pytest.approx(200 * math.log2(10), rel=1e-15)
        assert asymptotic_rate(5e-324, 1.0) == 537.0
        assert asymptotic_rate(1.7e308, 1.7e308) == pytest.approx(0.5 * math.log2(1.7e308))

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(DomainError):
            asymptotic_rate(0.0, 1.0)
        with pytest.raises(DomainError):
            asymptotic_rate(1.0, -2.0)

    def test_policy_converges_to_limit(self):
        for a, b in [(1.0, 4.0), (0.5, 0.4), (2.0, 1.0), (0.5, 8.0), (3.0, 0.2)]:
            ch = GaussianWthi(a, b, 1e6, 1e6)
            alloc, _ = optimal_power(ch)
            rate, _ = rate_achievable(ch, alloc)
            assert abs(rate - asymptotic_rate(a, b)) < 0.01
