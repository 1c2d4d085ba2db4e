import functools
import itertools
import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wthi import power
from wthi.bounds import bound_best, bound_main_channel, bound_sato, bound_z_channel, sato_minimize
from wthi.errors import DeskScaleError, DomainError
from wthi.gaussian import GaussianWthi, PowerAllocation, _rate_array, rate_achievable
from wthi.power import (
    asymptotic_rate,
    grid_oracle_detailed,
    intermediates,
    optimal_power,
)

from channels import EXTREMES, FLEET_CHANNELS, SEAMS, closed_channels, fleet_channel
from oracles import (grid_oracle_reference, half_log2, rate_achievable_reference,
                     sweep_tolerance)


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
            ch = fleet_channel(rng)
            alloc, _ = optimal_power(ch)
            rate, _ = rate_achievable(ch, alloc)
            res = grid_oracle_detailed(ch, 120, 120)
            assert rate >= res.rate - res.eps_grid - 1e-12

    @given(closed_channels())
    @settings(max_examples=200, deadline=None)
    def test_output_respects_constraints(self, ch):
        alloc, _ = optimal_power(ch)
        assert 0.0 <= alloc.p1 <= ch.p1_max + 1e-12
        assert 0.0 <= alloc.p2 <= ch.p2_max + 1e-12

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
        assert rated == [(0.0, 0.0), (10.0, 0.0), (1.0, 0.0)]  # in menu order
        assert alloc == PowerAllocation(0.0, 0.0)


class TestIntermediates:
    def test_p1_star_only_defined_for_b_at_least_one(self):
        assert intermediates(GaussianWthi(0.5, 3.0, 5.0, 5.0)).p1_star == 2.0
        assert intermediates(GaussianWthi(0.5, 0.9, 5.0, 5.0)).p1_star is None

    def test_p2_star_nonnegative_when_defined(self):
        rng = np.random.default_rng(3)
        seen = 0
        for _ in range(200):
            ch = fleet_channel(rng)
            inter = intermediates(ch)
            if inter.p2_star is not None:
                seen += 1
                assert inter.p2_star >= 0.0
        assert seen > 0

    def test_singular_cases_flagged(self):
        assert intermediates(GaussianWthi(0.5, 2.0, 5.0, 5.0)).p2_star is None  # ab = 1
        assert intermediates(GaussianWthi(2.0, 0.0, 5.0, 5.0)).p2_star is None  # b = 0
        assert intermediates(GaussianWthi(2.0, 0.0, 5.0, 5.0)).delta is None

    @staticmethod
    def assert_array_body_matches(channels):
        # the one body over arrays gives each channel's intermediates: finite values
        # ==, and a non-finite entry exactly where intermediates has None
        a, b, p1_max = (np.array(x) for x in zip(*((ch.a, ch.b, ch.p1_max) for ch in channels)))

        def ratio(num, den):
            return np.divide(num, den, out=np.full(den.shape, np.inf), where=den > 0.0)

        with np.errstate(all="ignore"):
            columns = power._candidates(a, b, p1_max, np, ratio)
        for ch, *values in zip(channels, *(column.tolist() for column in columns)):
            got = tuple(x if math.isfinite(x) else None for x in values)
            assert got == astuple(intermediates(ch)), ch

    @given(st.lists(closed_channels() | FLEET_CHANNELS, min_size=2, max_size=12))
    # (a - 1)^2 and a/b overflow; a/b overflows alone; ab = 1
    @example([GaussianWthi(1e300, 5e-324, 0.0, 0.0), GaussianWthi(5.0, 5e-324, 1.0, 1.0),
              GaussianWthi(0.5, 2.0, 5.0, 5.0)])
    @settings(max_examples=300, deadline=None)
    def test_array_body_matches_each_channel(self, channels):
        self.assert_array_body_matches(channels)

    def test_array_body_matches_on_the_extreme_grid(self):
        self.assert_array_body_matches([GaussianWthi(*gains)
                                        for gains in extreme_sweep()["optimal_power"]])


# Oracle channels: the bench fleet's ranges, EXTREMES, fleet gains with the flat
# column 1 + p2 - a - ab*p2 = 0 inside the box, and the closed domain on each seam
ORACLE_FAMILIES = ("fleet", "extremes", "flat", *SEAMS)


@st.composite
def oracle_grids(draw) -> tuple[GaussianWthi, int, int]:
    family = draw(st.sampled_from(ORACLE_FAMILIES))
    if family == "fleet":
        a, b = draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0))
        ch = GaussianWthi(a, b, draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 50.0)))
    elif family == "extremes":
        ch = GaussianWthi(*(draw(st.sampled_from(EXTREMES)) for _ in range(4)))
    elif family == "flat":  # ab < 1 < a or a < 1 < ab puts (a - 1)/(1 - ab) above 0
        a = draw(st.floats(0.05, 5.0).filter(lambda x: x != 1.0))
        b = draw(st.floats(0.01, 0.95) if a > 1.0 else st.floats(1.05, 20.0)) / a
        p1, p2 = draw(st.floats(0.0, 50.0)), (a - 1.0) / (1.0 - a * b) * draw(st.floats(1.0, 4.0))
        ch = GaussianWthi(a, b, p1, p2)
    else:
        ch = draw(closed_channels((family,)))
    return ch, draw(st.integers(2, 60)), draw(st.integers(2, 60))


def outcome(op, *args):
    """``op(*args)``, or "DomainError" where it raises that."""
    try:
        return op(*args)
    except DomainError:
        return "DomainError"


def oracle_numbers(oracle, ch: GaussianWthi, n1: int, n2: int) -> tuple[float, ...]:
    res = oracle(ch, n1, n2)
    return res.alloc.p1, res.alloc.p2, res.rate, res.eps_grid


def hexed(out):
    """An outcome with its floats as hex strings, so that == tells -0.0 from 0.0."""
    return out if out == "DomainError" else tuple(x.hex() for x in out)


def boundary_menu(ch: GaussianWthi) -> dict[tuple[float, float], float] | None:
    """The rate of each distinct menu allocation where a comparison of ``_prescribed``
    sits within 1e-9 of a tie (or a >= 1 does), or None off a boundary; a rate that
    overflows raises DomainError."""
    near = [ch.a >= 1.0 and math.isclose(ch.a, 1.0, rel_tol=1e-9, abs_tol=1e-9)]

    def gt(x: float, y: float) -> bool:
        near.append(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9))
        return x > y

    power._prescribed(ch.a, ch.b, ch.p1_max, ch.p2_max, gt)
    if not any(near):
        return None
    inter = intermediates(ch)
    return {pair: rate_achievable(ch, PowerAllocation(*pair))[0]
            for pair in set(power._menu(ch.p1_max, ch.p2_max, inter.p1_star, inter.p2_star))
            - {None}}


def assert_exact_menu_best(rates: dict[tuple[float, float], float], alloc: PowerAllocation):
    # the policy's rate is the largest of the menu's, and of the allocations
    # that reach it the policy's has the least (p1 + p2, p1)
    best = max(rates.values())
    assert rates[alloc.p1, alloc.p2] == best, (rates, alloc)
    least = min((p1 + p2, p1) for (p1, p2), rate in rates.items() if rate == best)
    assert (alloc.p1 + alloc.p2, alloc.p1) == least, (rates, alloc)


# Operations on every EXTREMES^4 channel, each giving a tuple of floats
EXTREME_OPERATIONS = {
    "grid_oracle_detailed": lambda ch: oracle_numbers(grid_oracle_detailed, ch, 8, 8),
    "grid_oracle_reference": lambda ch: oracle_numbers(grid_oracle_reference, ch, 8, 8),
    "optimal_power": lambda ch: astuple(optimal_power(ch)[0]),
    # None marks inapplicable
    "intermediates": lambda ch: tuple(x for x in astuple(intermediates(ch)) if x is not None),
    "rate_achievable": lambda ch: rate_achievable(ch, ch.full_power())[:1],
    "bound_main_channel": lambda ch: (bound_main_channel(ch),),
    "bound_z_channel": lambda ch: (bound_z_channel(ch),),
    "bound_sato": lambda ch: (bound_sato(ch),),
    "bound_best": lambda ch: bound_best(ch)[:1],
    "sato_minimize": lambda ch: (sato_minimize(ch, ch.full_power()).value,),
}


@functools.cache
def extreme_sweep() -> dict:
    """Every EXTREMES^4 outcome, computed once for all the tests that read it.

    Per name of ``EXTREME_OPERATIONS`` and "boundary_menu", the outcome by
    channel gains; "asymptotic_rate", the outcome by EXTREMES^2 gain pair;
    "warnings", the message of every warning the sweep emitted.
    """
    sweep = {name: {} for name in (*EXTREME_OPERATIONS, "boundary_menu", "asymptotic_rate")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for gains in itertools.product(EXTREMES, repeat=4):
            ch = GaussianWthi(*gains)
            for name, op in EXTREME_OPERATIONS.items():
                sweep[name][gains] = outcome(op, ch)
            sweep["boundary_menu"][gains] = outcome(boundary_menu, ch)
        for a, b in itertools.product(EXTREMES, repeat=2):
            sweep["asymptotic_rate"][a, b] = outcome(asymptotic_rate, a, b)
    sweep["warnings"] = [str(w.message) for w in caught]
    return sweep


def answered_finite(*names: str) -> dict[str, int]:
    """Check that each named operation gave finite floats or DomainError on every
    EXTREMES^4 channel, and count the channels where it answered."""
    sweep = extreme_sweep()
    for name in names:
        for gains, out in sweep[name].items():
            assert out == "DomainError" or all(map(math.isfinite, out)), (name, gains, out)
    return {name: sum(out != "DomainError" for out in sweep[name].values()) for name in names}


class TestGridOracle:
    @given(oracle_grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_exhaustive_scan(self, grid):
        # the oracle rates only the columns that can hold the argmax; its result
        # is the exhaustive scan's bit for bit, and both raise on the same channels
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert hexed(outcome(oracle_numbers, grid_oracle_detailed, *grid)) == hexed(
                outcome(oracle_numbers, grid_oracle_reference, *grid))
        assert [str(w.message) for w in caught] == []

    def test_extreme_grid_matches_the_exhaustive_scan(self):
        sweep = extreme_sweep()
        got, want = sweep["grid_oracle_detailed"], sweep["grid_oracle_reference"]
        for gains, out in got.items():
            assert hexed(out) == hexed(want[gains]), gains
        raised = sum(out == "DomainError" for out in got.values())
        assert 0 < raised < 1000

    @given(oracle_grids())
    @example((GaussianWthi(2.0, 0.0, 1.7e308, 2.0), 3, 2))
    @example((GaussianWthi(2.0, 1.5e308, 1.7e308, 2.0), 3, 2))
    @settings(max_examples=300, deadline=None)
    def test_edge_rows_bound_every_column(self, grid):
        # the rate is monotone in p1 on each side of b - 1 and 0 at p1 = 0, so with
        # no overflow each column is at most its best on the rows b - 1 and p1_max
        # plus the oracle's slack.  An a*p1 that overflows clamps its whole row to
        # 0 (the examples), so the column bound fails there, but a column the
        # oracle skips still holds no value as high as the best edge rate.  The
        # grid holds the rows next to b - 1 and the flat column p2 = (a-1)/(1-ab),
        # where no rate piece moves with p1.
        ch, n1, n2 = grid
        a, b = ch.a, ch.b
        seam = min(max(b - 1.0, 0.0), ch.p1_max)
        near = [math.nextafter(seam, 0.0), math.nextafter(seam, math.inf)]
        flat = [(a - 1.0) / (1.0 - a * b)] if a * b != 1.0 else []
        p1s = np.unique(np.clip([*np.linspace(0.0, ch.p1_max, n1), seam, *near], 0.0, ch.p1_max))
        p2s = np.unique(np.clip([*np.linspace(0.0, ch.p2_max, n2), *flat], 0.0, ch.p2_max))
        with np.errstate(over="ignore", invalid="ignore"):
            rates = _rate_array(ch.a, ch.b, p1s[:, None], p2s)
            edge = _rate_array(ch.a, ch.b, np.array([[seam], [ch.p1_max]]), p2s)
        assert (rates[0] == 0.0).all()
        peak, top = edge.max(axis=0), edge.max()
        slack = 1e-12 * (1.0 + abs(top))
        assert (rates[:, peak + slack < top] < top).all()
        if np.isfinite([a * ch.p1_max + ch.p2_max, ch.p1_max + b * ch.p2_max]).all():
            assert (rates <= peak + slack).all()

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

    def test_rejects_grids_over_the_budget_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the oracle began its grid before the budget check")

        monkeypatch.setattr(power, "_branch_points", no_work)  # the oracle's first work step
        with pytest.raises(DeskScaleError, match="4002000 oracle grid points exceed"):
            grid_oracle_detailed(GaussianWthi(0.5, 10.0, 10.0, 10.0), 2001, 2000)

    def test_underflowing_branch_point_denominator(self):
        # a*(1 - b) underflows to 0, so the level (b-a)/(a(1-b)) is +inf, not a division
        ch = GaussianWthi(5e-324, 0.5, 10.0, 10.0)
        res = grid_oracle_detailed(ch, 20, 20)
        alloc, _ = optimal_power(ch)
        assert res.alloc == alloc == PowerAllocation(10.0, 0.0)
        assert res.rate == rate_achievable(ch, alloc)[0] == pytest.approx(half_log2(11))


class TestBoundaryMenu:
    @pytest.mark.parametrize("gains, p1, p2", [
        ((1.0, 0.0, 1e-12, 1e-12), 1e-12, 1e-12),
        ((1.0, 1e-300, 1e-12, 1e-12), 1e-12, 1e-12),
        ((0.0, 0.0, 1e-300, 0.0), 1e-300, 0.0),
    ])
    def test_boundary_keeps_a_rate_below_1e_15(self, gains, p1, p2):
        # on a boundary, a positive rate far below 1e-15 still beats silence;
        # the library's rate differs from the 30-digit one in the fourth digit
        # at 1e-12, where two log1p values of nearly equal arguments cancel
        ch = GaussianWthi(*gains)
        alloc, _ = optimal_power(ch)
        assert alloc == PowerAllocation(p1, p2)
        rate, _ = rate_achievable(ch, alloc)
        assert rate == pytest.approx(rate_achievable_reference(ch.a, ch.b, p1, p2), rel=1e-3)
        assert rate > 0.0

    @given(oracle_grids())
    @settings(max_examples=300, deadline=None)
    def test_boundary_takes_the_exact_menu_best(self, grid):
        # where no menu candidate raises
        ch, _, _ = grid
        rates = outcome(boundary_menu, ch)
        if isinstance(rates, dict):
            assert_exact_menu_best(rates, optimal_power(ch)[0])

    def test_extreme_grid_boundary_takes_the_exact_menu_best(self):
        sweep = extreme_sweep()
        checked = 0
        for gains, rates in sweep["boundary_menu"].items():
            if isinstance(rates, dict):
                assert_exact_menu_best(rates, PowerAllocation(*sweep["optimal_power"][gains]))
                checked += 1
        assert checked > 4000


class TestPolicyRate:
    # The sweeps' rate over an axis is the rate of optimal_power's allocation: nan at the
    # same points, never below it, and within the sweeps' rounding tolerance above it
    # (the best menu rate can round higher); where a point raises, it raises the first
    # such point's error

    @staticmethod
    def assert_matches_optimal_power(a, b, p1_max, p2_max):
        axis = np.broadcast_arrays(*(np.asarray(x, float) for x in (a, b, p1_max, p2_max)))
        try:
            allocs = [optimal_power(GaussianWthi(*g))[0] for g in zip(*(x.tolist() for x in axis))]
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                power._policy_rate(a, b, p1_max, p2_max)
            return
        p1, p2 = (np.array([getattr(alloc, name) for alloc in allocs]) for name in ("p1", "p2"))
        with np.errstate(all="ignore"):
            want = _rate_array(*axis[:2], p1, p2, strict=True)
        got = power._policy_rate(a, b, p1_max, p2_max)
        assert (np.isnan(got) == np.isnan(want)).all()
        for gains, cell, rate in zip(zip(*(x.tolist() for x in axis)), got.tolist(), want.tolist()):
            assert math.isnan(rate) or 0.0 <= cell - rate <= sweep_tolerance(*gains), gains

    @given(closed_channels() | FLEET_CHANNELS, st.integers(9, 33))
    @settings(max_examples=300, deadline=None)
    def test_symmetric_axis(self, ch, points):
        # the axis a = b ends on the drawn b, which sits on the drawn seam
        axis = np.linspace(0.0, ch.b or 1.0, points)
        self.assert_matches_optimal_power(axis, axis, ch.p1_max, ch.p2_max)

    @given(closed_channels() | FLEET_CHANNELS, st.integers(9, 33))
    @settings(max_examples=300, deadline=None)
    def test_log_symmetric_axis(self, ch, points):
        # every a = b < 1 point of the axis takes the stationary branch, each with its own p2*
        axis = np.geomspace(1e-6, 1e6, points)
        self.assert_matches_optimal_power(axis, axis, ch.p1_max, ch.p2_max)

    @given(closed_channels() | FLEET_CHANNELS, st.integers(9, 33))
    @settings(max_examples=300, deadline=None)
    def test_interferer_cap_axis(self, ch, points):
        axis = np.linspace(0.0, ch.p2_max or 1.0, points)
        self.assert_matches_optimal_power(ch.a, ch.b, ch.p1_max, axis)

    @given(st.lists(st.tuples(*[st.sampled_from(EXTREMES)] * 4), min_size=2, max_size=12))
    # one path's channel, then near ties that raise: one of another path, one of the first's
    @example([(0.5, 2.0, 1e12, 1e12), (0.0, 1.0, 1.7e308, 1.7e308), (1e-12, 1e12, 1e12, 1e300)])
    # on the seam b = 1 + p1, where the best menu rate rounds above the policy's
    @example([(1.8524739826848087, 1.0000011408783442, 1.1408783443522532e-06,
               19.03155273576474)])
    @settings(max_examples=200, deadline=None)
    def test_extreme_channels_as_one_axis(self, channels):
        self.assert_matches_optimal_power(*np.array(channels).T)

    def test_extreme_grid_as_one_axis(self):
        answered = [gains for gains, out in extreme_sweep()["optimal_power"].items()
                    if out != "DomainError"]
        assert len(answered) > 9000
        self.assert_matches_optimal_power(*np.array(answered).T)


class TestClosedDomain:
    # every channel of EXTREMES^4 and gain pair of EXTREMES^2, read from one sweep

    def test_extreme_grid_raises_only_domain_error(self):
        # each operation returns finite numbers or raises DomainError; most
        # channels have an answer
        outputs = answered_finite("optimal_power", "intermediates", "grid_oracle_detailed",
                                  "grid_oracle_reference", "rate_achievable",
                                  "bound_main_channel", "bound_z_channel")
        assert min(outputs.values()) > 9000

    def test_extreme_grid_main_channel_bound_always_answers(self):
        assert answered_finite("bound_main_channel") == {"bound_main_channel": 10**4}

    def test_extreme_grid_sato_is_finite_or_domain_error(self):
        # the Sato sums overflow on more channels than the other operations do
        outputs = answered_finite("sato_minimize", "bound_sato", "bound_best")
        assert len(set(outputs.values())) == 1 and outputs["bound_sato"] > 6000

    def test_extreme_grid_best_bound_is_the_least(self):
        sweep = extreme_sweep()
        for gains, best in sweep["bound_best"].items():
            if best != "DomainError":
                three = [sweep[name][gains] for name in
                         ("bound_sato", "bound_z_channel", "bound_main_channel")]
                assert "DomainError" not in three and best == min(three), gains

    def test_extreme_gain_pairs_asymptotic_rate(self):
        for (a, b), rate in extreme_sweep()["asymptotic_rate"].items():
            if rate == "DomainError":
                assert a == 0.0 or b == 0.0, (a, b)
            else:
                assert math.isfinite(rate) and rate >= 0.0, (a, b, rate)

    def test_extreme_grid_emits_no_warning(self):
        assert extreme_sweep()["warnings"] == []

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
