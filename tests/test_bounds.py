import math

import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import mp

from wthi.bounds import (
    BoundKind,
    bound_best,
    bound_main_channel,
    bound_sato,
    bound_z_channel,
    sato_minimize,
)
from wthi.errors import DomainError
from wthi.gaussian import GaussianWthi, PowerAllocation, rate_achievable
from wthi.power import optimal_power

from channels import closed_channels, fleet_channel
from oracles import half_log2, sato_grid, sato_minimum_reference, sato_objective


def policy_rate(ch: GaussianWthi) -> float:
    return rate_achievable(ch, optimal_power(ch)[0])[0]


# Points where the Sato minimizer once failed: rho_star = (q - sqrt(disc)) / (2s)
# cancelled to 0 (a ZeroDivisionError), it put the bound 0.16 bits below the
# policy rate, and at s = 0 with positive powers it gave 0 instead of C(p1).
# Then the double root rho* = 1 of the seams b = 1 and a = b = 1, where the
# 40-digit reference once rounded rho just below 1 and gave -7.2e-6 and -inf.
DOUBLE_ROOT_POINTS = [(0.0, 1.0, 0.0, 1e-5), (1.0, 1.0, 1.0, 10**-4.5)]
SATO_NAMED_POINTS = [
    (1.7271181809105776e-12, 7.336561898096473e-12, 514.6325513362392, 723.8177627688348),
    (4.5e-11, 1.2e-11, 619.0, 964.0),
    (0.0, 0.0, 10.0, 10.0),
    *DOUBLE_ROOT_POINTS,
]


class TestMainChannelBound:
    def test_values(self):
        assert bound_main_channel(GaussianWthi(1.0, 1.0, 0.0, 3.0)) == 0.0
        assert bound_main_channel(GaussianWthi(1.0, 1.0, 3.0, 0.0)) == pytest.approx(1.0)
        assert bound_main_channel(GaussianWthi(0.3, 2.0, 10.0, 1.0)) == pytest.approx(
            half_log2(11), abs=1e-14
        )


class TestSatoObjective:
    def test_zero_powers_vanish_for_any_rho(self):
        ch = GaussianWthi(1.3, 0.4, 0.0, 0.0)
        for rho in (-0.9, -0.2, 0.0, 0.55):
            assert sato_objective(ch, PowerAllocation(0.0, 0.0), rho) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_hand_computed_value(self):
        # a = b = 1, p1 = p2 = 1, rho = 0: (3*3 - 4) / (1*3) = 5/3
        ch = GaussianWthi(1.0, 1.0, 1.0, 1.0)
        got = sato_objective(ch, PowerAllocation(1.0, 1.0), 0.0)
        assert got == pytest.approx(half_log2(5, 3), abs=1e-14)

    def test_midpoint_convexity_probe(self):
        ch = GaussianWthi(0.5, 10.0, 10.0, 10.0)
        alloc = PowerAllocation(10.0, 10.0)
        f = [sato_objective(ch, alloc, r) for r in (-0.5, 0.0, 0.5)]
        assert f[1] <= 0.5 * (f[0] + f[2]) + 1e-12

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 1.5, math.nan])
    def test_rejects_rho_outside_open_interval(self, rho):
        ch = GaussianWthi(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            sato_objective(ch, PowerAllocation(1.0, 1.0), rho)


class TestSatoMinimize:
    def test_degenerate_zero_power(self):
        ev = sato_minimize(GaussianWthi(1.0, 1.0, 0.0, 0.0), PowerAllocation(0.0, 0.0))
        assert ev.degenerate
        assert ev.value == 0.0
        assert ev.rho_star == 0.0

    def test_minimizer_matches_dense_grid(self):
        ch = GaussianWthi(0.5, 10.0, 10.0, 10.0)
        ev = sato_minimize(ch, PowerAllocation(10.0, 10.0))
        rho, f = sato_grid(0.5, 10.0, 10.0, 10.0, points=100001)
        assert abs(ev.rho_star - rho[int(np.argmin(f))]) < 1e-4

    def test_dominates_achievable_in_degraded_case(self):
        ch = GaussianWthi(0.5, 2.0, 10.0, 10.0)
        assert abs(ch.a * ch.b - 1.0) <= 1e-12 and ch.a <= 1.0  # degraded: a*b = 1, a <= 1
        ev = sato_minimize(ch, PowerAllocation(10.0, 10.0))
        rate, _ = rate_achievable(ch, PowerAllocation(10.0, 10.0))
        assert ev.value >= rate - 1e-12

    def test_value_equals_objective_at_minimizer(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ch = fleet_channel(rng)
            ev = sato_minimize(ch, ch.full_power())
            if ev.degenerate or ev.rho_star > 1.0 - 1e-9:
                continue
            assert ev.value == pytest.approx(
                sato_objective(ch, ch.full_power(), ev.rho_star), abs=1e-10
            )

    def test_symmetric_unit_gains_collapse_to_zero(self):
        # rho* sits at the edge of the interval; the stable form stays finite
        ev = sato_minimize(GaussianWthi(1.0, 1.0, 5.0, 7.0), PowerAllocation(5.0, 7.0))
        assert ev.value == pytest.approx(0.0, abs=1e-9)

    def test_convexity_and_argmin_sampled(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ch = fleet_channel(rng)
            ev = sato_minimize(ch, ch.full_power())
            rho, f = sato_grid(ch.a, ch.b, ch.p1_max, ch.p2_max, points=1001)
            mid = 0.5 * (f[:-2] + f[2:]) - f[1:-1]
            assert float(mid.min()) >= -1e-9
            if not ev.degenerate:
                assert abs(ev.rho_star - rho[int(np.argmin(f))]) <= rho[1] - rho[0] + 1e-12

    def test_monotone_in_both_powers_at_fixed_rho(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rng.uniform(0.05, 5.0, 2)
            rho = rng.uniform(-0.95, 0.95)
            p1, p2 = rng.uniform(0.0, 50.0, 2)
            ch = GaussianWthi(a, b, 200.0, 200.0)
            f0 = sato_objective(ch, PowerAllocation(p1, p2), rho)
            f1 = sato_objective(ch, PowerAllocation(p1 + 1.0, p2), rho)
            f2 = sato_objective(ch, PowerAllocation(p1, p2 + 1.0), rho)
            assert f1 >= f0 - 1e-12
            assert f2 >= f0 - 1e-12


class TestSatoClosedDomain:
    def test_slice_matches_reference_and_dominates_policy(self):
        # the closed-domain slice: 400 log-uniform draws from seed 7 over gains
        # 1e-12..10 and powers 1e-3..1e3, then the named points
        rng = np.random.default_rng(7)
        draws = [(*10.0 ** rng.uniform(-12.0, 1.0, 2), *10.0 ** rng.uniform(-3.0, 3.0, 2))
                 for _ in range(400)]
        for gains in draws + SATO_NAMED_POINTS:
            ch = GaussianWthi(*gains)
            value = bound_sato(ch)
            assert policy_rate(ch) <= value + 1e-9, gains
            assert abs(value - sato_minimum_reference(*gains)) <= 1e-12, gains

    @pytest.mark.parametrize("gains", DOUBLE_ROOT_POINTS)
    def test_reference_matches_80_digits_at_the_double_root(self, gains):
        # the objective falls all the way to rho = 1, so at 80 digits its value
        # 1e-20 before the edge is the infimum to far better than 1e-12
        with mp.workdps(80):
            a, b, p1, p2 = (mp.mpf(x) for x in gains)
            big_a, d = 1 + p1 + b * p2, 1 + a * p1 + p2
            s, rho = mp.sqrt(a) * p1 + mp.sqrt(b) * p2, 1 - mp.mpf(10) ** -20
            near_edge = mp.log((big_a * d - (rho + s) ** 2) / ((1 - rho**2) * d), 2) / 2
        assert abs(sato_minimum_reference(*gains) - float(near_edge)) <= 1e-12
        assert bound_sato(GaussianWthi(*gains)) == pytest.approx(float(near_edge), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(closed_channels())
    def test_every_bound_dominates_policy(self, ch):
        rate = policy_rate(ch)
        sato = bound_sato(ch)
        for bound in (sato, bound_z_channel(ch), bound_main_channel(ch), bound_best(ch)[0]):
            assert rate <= bound + 1e-9
        assert abs(sato - sato_minimum_reference(ch.a, ch.b, ch.p1_max, ch.p2_max)) <= 1e-12


class TestZChannelBound:
    def test_unit_gain_drops_wiretap_term(self):
        ch = GaussianWthi(1.0, 0.7, 6.0, 9.0)
        expected = half_log2(2 * 7 * 10, 17)
        assert bound_z_channel(ch) == pytest.approx(expected, abs=1e-14)

    def test_zero_everything(self):
        assert bound_z_channel(GaussianWthi(0.0, 0.0, 0.0, 0.0)) == pytest.approx(0.0)

    @pytest.mark.parametrize("a, p1, p2", [(0.0, 0.0, 1.7e308), (1.0, 1e300, 1e300),
                                           (1e300, 1e300, 1.7e308)])
    def test_epi_term_finite_where_its_product_overflows(self, a, p1, p2):
        # 2(1 + a*p1)(1 + p2) overflows a float; the bound is finite and matches mpmath
        with mp.workdps(30):
            u, v = 1 + mp.mpf(a) * mp.mpf(p1), 1 + mp.mpf(p2)
            epi = mp.log(2 * u * v / (u + v), 2) / 2
            expected = float(max(0, mp.log((1 + mp.mpf(p1)) / u, 2) / 2) + epi)
        assert bound_z_channel(GaussianWthi(a, 0.5, p1, p2)) == pytest.approx(expected,
                                                                              rel=1e-14)

    def test_epi_term_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            ch = fleet_channel(rng)
            a, p1 = ch.a, ch.p1_max
            wiretap_term = max(
                0.0, 0.5 * (math.log2(1 + p1) - math.log2(1 + a * p1))
            )
            assert bound_z_channel(ch) >= wiretap_term - 1e-12


class TestBoundBest:
    def test_zero_power_ties_break_to_sato(self):
        value, kind = bound_best(GaussianWthi(1.0, 1.0, 0.0, 0.0))
        assert value == 0.0
        assert kind is BoundKind.SATO

    def test_sato_wins_when_eavesdropper_strong(self):
        _, kind = bound_best(GaussianWthi(2.0, 0.1, 10.0, 5.0))
        assert kind is BoundKind.SATO

    def test_z_channel_wins_in_mid_window(self):
        # between the Sato and main-channel crossovers of this geometry
        ch = GaussianWthi(0.5, 10.0, 10.0, 3.0)
        z = bound_z_channel(ch)
        assert z < bound_sato(ch)
        assert z < bound_main_channel(ch)
        _, kind = bound_best(ch)
        assert kind is BoundKind.Z_CHANNEL

    def test_dominates_achievable(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ch = fleet_channel(rng)
            alloc, _ = optimal_power(ch)
            rate, _ = rate_achievable(ch, alloc)
            best, _ = bound_best(ch)
            assert rate <= best + 1e-9
