import itertools
import json
import math
import re
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wthi import dmc
from wthi.binning import CodebookSpec, simulate
from wthi.dmc import (
    DmcWthi,
    MutualInfoProfile,
    ProductInput,
    achievable_rate,
    achievable_rate_fixed_input,
    dmc_sato_bound,
    mi_profile,
    simplex_grid,
    strong_regime_rate,
    very_strong_eavesdropping,
    weak_regime_rate,
)
from wthi.errors import DeskScaleError, DomainError, RegimeMismatchError
from wthi.gaussian import Regime

from channels import (
    DMC_FAMILIES,
    blind_eavesdropper_channel,
    bsc,
    channel_document,
    degraded_instance,
    family_channel,
    identical_outputs_channel,
    noiseless_blind_channel,
    perfect_eavesdropper_channel,
    random_binary_channel,
    strong_instance,
    trend_channel,
    very_strong_instance,
    weak_instance,
)
from oracles import (
    breakpoint_reference,
    entropy_bits,
    joint_entropy_profile,
    mutual_information_bits,
    region_reference,
    sato_coupling_scan,
    sato_inner_reference,
    scan_secrecy_rate,
)

UNIFORM = ProductInput.uniform(2, 2)


def xor_receiver_channel() -> DmcWthi:
    """y1 = x1 xor x2 deterministically; y2 a fair coin."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            py1 = np.zeros(2)
            py1[x1 ^ x2] = 1.0
            t[x1, x2] = np.outer(py1, [0.5, 0.5])
    return DmcWthi(2, 2, 2, 2, t)


class TestMiProfile:
    def test_identity_receiver_blind_eavesdropper(self):
        prof = mi_profile(noiseless_blind_channel(), UNIFORM)
        assert prof.i_x1_y1 == pytest.approx(1.0, abs=1e-12)
        assert prof.i_x1_y1_given_x2 == pytest.approx(1.0, abs=1e-12)
        for field in ("i_x1_y2_given_x2", "i_x2_y2_given_x1", "i_x1x2_y2", "i_x1_y2"):
            assert getattr(prof, field) == pytest.approx(0.0, abs=1e-12)

    def test_xor_hides_marginals(self):
        prof = mi_profile(xor_receiver_channel(), UNIFORM)
        assert prof.i_x1_y1 == pytest.approx(0.0, abs=1e-12)
        assert prof.i_x1_y1_given_x2 == pytest.approx(1.0, abs=1e-12)

    def test_chain_rule_both_expansions(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            ch = random_binary_channel(rng)
            t1, t2 = rng.uniform(0.05, 0.95, 2)
            inp = ProductInput(np.array([t1, 1 - t1]), np.array([t2, 1 - t2]))
            prof = mi_profile(ch, inp)
            # X1-first expansion (stored quantities)
            assert prof.i_x1x2_y1 == pytest.approx(
                prof.i_x1_y1 + prof.i_x2_y1_given_x1, abs=1e-9
            )
            # X2-first expansion, I(X2;Y1) recomputed from the joint directly
            joint = (
                inp.px1[:, None, None] * inp.px2[None, :, None] * ch.receiver_marginal()
            )
            i_x2_y1 = mutual_information_bits(joint.sum(axis=0))
            assert prof.i_x1x2_y1 == pytest.approx(
                i_x2_y1 + prof.i_x1_y1_given_x2, abs=1e-9
            )

    def test_dimension_mismatch(self):
        # the message build_codebooks gives too
        with pytest.raises(DomainError, match=r"input sizes \(3, 2\) do not match channel "
                                              r"alphabets \(2, 2\)"):
            mi_profile(noiseless_blind_channel(), ProductInput.uniform(3, 2))

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_joint_entropy_reference(self, sizes, seed, family, zero_input):
        ch = family_channel(sizes, seed, family)
        rng = np.random.default_rng([seed, 1])  # the law's own stream
        px1, px2 = rng.dirichlet(np.ones(sizes[0])), rng.dirichlet(np.ones(sizes[1]))
        if zero_input:  # an input letter of probability zero
            px1[0] = 0.0
            px1 /= px1.sum()
        prof = mi_profile(ch, ProductInput(px1, px2))
        expected = joint_entropy_profile(ch.transition, px1, px2)
        got = [getattr(prof, f) for f in prof.__dataclass_fields__]
        assert got == pytest.approx(expected, abs=1e-12)

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_rows_match_joint_entropy_reference(self, sizes, seed, family):
        ch = family_channel(sizes, seed, family)
        for px1s, px2s, table in dmc._law_rows(ch, 4):  # the grid holds the point masses
            assert len(table) == len(px1s) * len(px2s)
            for (px1, px2), row in zip(itertools.product(px1s, px2s), table):  # px2 fastest
                expected = joint_entropy_profile(ch.transition, px1, px2)
                assert row.tolist() == pytest.approx(expected, abs=1e-12)
                assert row.tolist() == list(astuple(mi_profile(ch, ProductInput(px1, px2))))


class TestDmcWthiValidation:
    def test_bad_shape(self):
        with pytest.raises(DomainError):
            DmcWthi(2, 2, 2, 2, np.zeros((2, 2, 2, 3)))

    def test_bad_slice_sum(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, 0] = 0.5
        with pytest.raises(DomainError, match="sums to"):
            DmcWthi(2, 2, 2, 2, t)

    def test_json_round_trip(self, tmp_path):
        ch = blind_eavesdropper_channel()
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel_document(ch)))
        loaded = DmcWthi.from_dict(json.loads(path.read_text()))
        assert np.allclose(loaded.transition, ch.transition)

    def test_missing_fields(self):
        with pytest.raises(DomainError, match="missing"):
            DmcWthi.from_dict({"nx1": 2, "transition": []})

    def test_size_below_one(self):
        with pytest.raises(DomainError, match="nx2 must be >= 1"):
            DmcWthi(2, 0, 2, 2, np.zeros((2, 0, 2, 2)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5, 1.5])
    def test_entry_outside_the_unit_interval(self, value):
        # the slice still sums to 1 for the finite values; NaN fails every comparison,
        # so the checks are written to pass only on entries known to be in range
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 1, 0, 0], t[0, 1, 1, 1] = value, 0.5 - value
        with pytest.raises(DomainError, match=r"transition entries must lie in \[0, 1\]"):
            DmcWthi(2, 2, 2, 2, t)

    def test_integral_float_sizes_load(self):
        doc = channel_document(blind_eavesdropper_channel())
        doc["nx1"] = 2.0
        ch = DmcWthi.from_dict(doc)
        assert type(ch.nx1) is int and ch.nx1 == 2

    @pytest.mark.parametrize("field, value, message", [
        ("nx1", 2.9, "nx1 must be an integer, got 2.9"),
        ("nx1", "x", "nx1 must be an integer, got 'x'"),
        ("ny2", True, "ny2 must be an integer, got True"),
        ("transition", [[[[1.0]]], [[[0.5, 0.5]]]], "transition is not a numeric array"),
        ("transition", "0.25", "transition is not a numeric array"),
        ("transition", [[["0.5", "0.5"]]], "transition is not a numeric array"),
    ])
    def test_malformed_document(self, field, value, message):
        doc = {**channel_document(blind_eavesdropper_channel()), field: value}
        with pytest.raises(DomainError, match=re.escape(message)):
            DmcWthi.from_dict(doc)


class TestProductInputValidation:
    @pytest.mark.parametrize("px1", [[[0.5, 0.5]], []])
    def test_not_one_dimensional(self, px1):
        with pytest.raises(DomainError, match="px1 must be a 1-D distribution"):
            ProductInput(np.array(px1), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("px2", [[math.nan, 1.0], [math.inf, 0.0], [-0.5, 1.5], [0.3, 0.3]])
    def test_not_a_pmf(self, px2):
        with pytest.raises(DomainError, match="px2 must be a pmf summing to 1"):
            ProductInput(np.array([0.5, 0.5]), np.array(px2))


class TestMarginals:
    @pytest.mark.parametrize("seed", range(5))
    def test_do_not_depend_on_the_order_of_the_summed_outputs(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.random((3, 2, 5, 6)) * 10.0 ** rng.integers(-3, 1, (3, 2, 5, 6))
        ch = DmcWthi(3, 2, 5, 6, t / t.sum(axis=(2, 3), keepdims=True))
        by_y2 = DmcWthi(3, 2, 5, 6, ch.transition[..., rng.permutation(6)])
        by_y1 = DmcWthi(3, 2, 5, 6, ch.transition[:, :, rng.permutation(5)])
        assert np.array_equal(by_y2.receiver_marginal(), ch.receiver_marginal())
        assert np.array_equal(by_y1.eavesdropper_marginal(), ch.eavesdropper_marginal())


def decodable(prof: MutualInfoProfile, r1: float, r2: float) -> tuple[bool, bool]:
    """Whether the receiver decodes r1, and the eavesdropper r1 as r1d, at dummy rate r2."""
    cap, required = dmc._decodable(np.asarray([astuple(prof)]), r2)
    return bool(r1 <= cap.item()), bool(r1 <= required.item())


class TestRegions:
    @pytest.fixture()
    def prof(self):
        return mi_profile(random_binary_channel(np.random.default_rng(5)), UNIFORM)

    def test_origin_inside_both(self, prof):
        assert decodable(prof, 0.0, 0.0) == (True, True)

    def test_rate_above_everything_outside(self, prof):
        r1_big = prof.i_x1_y1_given_x2 + 1.0
        assert not decodable(prof, r1_big, 0.0)[0]
        assert not decodable(prof, prof.i_x1_y2_given_x2 + 1.0, 0.0)[1]

    def test_separate_decoding_branches(self, prof):
        # receiver: r2 strictly above its conditional capacity for the helper
        assert decodable(prof, prof.i_x1_y1, prof.i_x2_y1_given_x1 + 0.1)[0]
        # eavesdropper regions are closed: the boundary pair is decodable
        assert decodable(prof, prof.i_x1_y2, prof.i_x2_y2_given_x1 + 0.1)[1]
        assert decodable(prof, prof.i_x1_y2_given_x2, 0.0)[1]

    # a rate drawn uniformly or snapped onto a profile field (index 0-7); r1
    # may also sit on the sum-rate boundary I(X1,X2;Y) - r2 of the receiver
    # (index 8) or the eavesdropper (index 9)
    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
        st.booleans(),
        st.one_of(st.floats(min_value=0.0, max_value=2.5), st.integers(0, 9)),
        st.one_of(st.floats(min_value=0.0, max_value=2.5), st.integers(0, 7)),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_docstring_inequalities(self, sizes, seed, family, point_mass, r1, r2):
        # The regions compare in floating point, so they may differ from the
        # exact inequalities only where rounding decides: within 2^-50 of the
        # boundary, where the exact answer itself flips.
        inp = ProductInput.uniform(sizes[0], sizes[1])
        if point_mass:
            inp = ProductInput(inp.px1, np.eye(sizes[1])[0])
        prof = mi_profile(family_channel(sizes, seed, family), inp)
        fields = astuple(prof)
        r2 = fields[r2] if isinstance(r2, int) else r2
        if isinstance(r1, int):
            r1 = fields[r1] if r1 < 8 else max(0.0, fields[2 if r1 == 8 else 6] - r2)
        tol = Fraction(1, 2**50)
        for inside, receiver in zip(decodable(prof, r1, r2), (True, False)):
            if inside != region_reference(prof, r1, r2, receiver):
                box = {region_reference(prof, Fraction(r1) + i * tol, Fraction(r2) + j * tol,
                                        receiver)
                       for i in (-1, 0, 1) for j in (-1, 0, 1)}
                assert len(box) == 2, (receiver, r1, r2, fields)

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_union_downward_closed(self, r1, r2, f1, f2):
        prof = mi_profile(random_binary_channel(np.random.default_rng(17)), UNIFORM)
        for inside, shrunk in zip(decodable(prof, r1, r2), decodable(prof, r1 * f1, r2 * f2)):
            assert shrunk or not inside


class TestFixedInputRate:
    def test_blind_eavesdropper_needs_no_redundancy(self):
        prof = mi_profile(noiseless_blind_channel(), UNIFORM)
        rate, split = achievable_rate_fixed_input(prof)
        assert rate == pytest.approx(prof.i_x1_y1_given_x2, abs=1e-12)
        assert split.r1d == 0.0
        assert split.r2 == pytest.approx(prof.i_x2_y1_given_x1, abs=1e-12)

    def test_identical_outputs_give_zero(self):
        prof = mi_profile(identical_outputs_channel(), UNIFORM)
        rate, split = achievable_rate_fixed_input(prof)
        assert rate == 0.0
        assert split.regime is Regime.SILENT

    def test_flat_objective_ties_to_the_smallest_dummy_rate(self):
        # blind eavesdropper: the rate is a1 = 1 for every r2 in [0, a12 - a1]
        prof = MutualInfoProfile(1.0, 1.0, 1.5, 0.5, 0.0, 0.0, 0.0, 0.0)
        rate, split = achievable_rate_fixed_input(prof)
        assert (rate, split.r2, split.regime) == (1.0, 0.0, Regime.NO_INTERFERER)

    def test_matches_scan_oracle_on_random_channels(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            prof = mi_profile(random_binary_channel(rng), UNIFORM)
            rate, split = achievable_rate_fixed_input(prof)
            scan, resolution = scan_secrecy_rate(prof)
            assert scan <= rate + 1e-9
            assert rate - scan <= resolution + 1e-9
            assert split.r1s == rate

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scan_oracle_on_sparse_channels(self, sizes, seed, point_mass):
        # zero transitions and point-mass inputs make breakpoints vanish or coincide
        inp = ProductInput.uniform(sizes[0], sizes[1])
        if point_mass:
            inp = ProductInput(inp.px1, np.eye(sizes[1])[0])
        prof = mi_profile(family_channel(sizes, seed, "sparse"), inp)
        rate, split = achievable_rate_fixed_input(prof)
        scan, resolution = scan_secrecy_rate(prof)
        assert scan <= rate + 1e-9
        assert rate - scan <= resolution + 1e-9
        assert split.r1s == rate

    @pytest.mark.parametrize("fields", [
        (0, 0, 0, 1, 0.5, 0, 0.5, 0),  # every r2 > 0 would give 1, r2 = 0 gives 0
        (1, 1, 1.5, 0.5, 0.2, -0.1, 0.1, 0.2),  # both identities hold, one field is negative
        (1, 1, 1.5, 0.5, 0.2, math.inf, math.inf, 0.2),
        (1, 1, 1.5, 0.5, 0.2, math.nan, 0.1, 0.2),
    ])
    def test_rejects_tuples_of_no_input_law(self, fields):
        prof = MutualInfoProfile(*fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"input law: {prof}")):
                achievable_rate_fixed_input(prof)

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
        st.integers(min_value=3, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_accepts_every_grid_laws_profile(self, sizes, seed, family, grid):
        # the grid holds the point-mass laws, where fields vanish
        for _, _, table in dmc._law_rows(family_channel(sizes, seed, family), grid):
            rates = dmc._breakpoint_search(table)[0]
            for row, rate in zip(table, rates):
                assert achievable_rate_fixed_input(MutualInfoProfile(*row))[0] == rate


def reference_search(ch: DmcWthi, grid: int) -> tuple:
    """(rate, px1, px2, split) of ``achievable_rate`` by one search per law.

    A later law wins only by more than 1e-15.
    """
    best = (-math.inf,)
    for px1 in simplex_grid(ch.nx1, grid):
        for px2 in simplex_grid(ch.nx2, grid):
            rate, split = achievable_rate_fixed_input(mi_profile(ch, ProductInput(px1, px2)))
            if rate > best[0] + 1e-15:
                best = (rate, px1.tolist(), px2.tolist(), split)
    return best


def search(ch: DmcWthi, grid: int) -> tuple:
    rate, inp, split = achievable_rate(ch, grid)
    return rate, inp.px1.tolist(), inp.px2.tolist(), split


class TestAchievableRate:
    @pytest.mark.parametrize("n, grid", [(2, 11), (3, 6), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", ["dense", "sparse", "x2_irrelevant"])
    def test_matches_reference_loop(self, monkeypatch, n, grid, seed, family):
        ch = family_channel((n, n, n, n), seed, family)
        expected = reference_search(ch, grid)
        scored, real = [], dmc._breakpoint_search
        monkeypatch.setattr(dmc, "_breakpoint_search", lambda t: scored.append(len(t)) or real(t))
        # one- and three-row blocks make blocks where no law reaches the floor:
        # the last row is the point mass p(x1) = [1, 0, ...], where I(X1;Y1|X2) = 0
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(dmc, "_LAW_BLOCK", rows * len(simplex_grid(n, grid)))
            scored.clear()
            assert search(ch, grid) == expected, rows
            if rows == 1:  # the last block scores no law once a positive rate is found
                assert (0 in scored) == (expected[0] > 0.0)

    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
        st.integers(min_value=3, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_rate_is_at_most_the_conditional_capacity(self, sizes, seed, family, grid):
        # the bound the pruned law search rests on, at every law of the grid
        for _, _, table in dmc._law_rows(family_channel(sizes, seed, family), grid):
            assert np.all(dmc._breakpoint_search(table)[0] <= table[:, 0] + 1e-12)

    def test_ties_go_to_the_first_law_in_grid_order(self):
        # x1 = 1 and x1 = 2 are the same input, so swapping their
        # probabilities ties every law with another one
        t = family_channel((2, 2, 2, 2), 0, "dense").transition[[0, 1, 1]]
        ch = DmcWthi(3, 2, 2, 2, t)
        found = search(ch, 7)
        assert found == reference_search(ch, 7)
        rate, px1, px2, _ = found
        swapped = [px1[0], px1[2], px1[1]]
        assert rate > 0.0 and swapped != px1
        tie, _ = achievable_rate_fixed_input(mi_profile(ch, ProductInput(swapped, px2)))
        assert abs(tie - rate) <= 1e-15
        order = [p.tolist() for p in simplex_grid(3, 7)]
        assert order.index(px1) < order.index(swapped)

    def test_blind_channel_attains_conditional_capacity(self):
        rate, inp, _ = achievable_rate(noiseless_blind_channel(), 21)
        assert rate == pytest.approx(1.0, abs=1e-12)
        assert inp.px1.tolist() == [0.5, 0.5]

    def test_identical_outputs_zero_for_every_input(self):
        rate, _, _ = achievable_rate(identical_outputs_channel(), 11)
        assert rate == 0.0

    def test_weak_instance_matches_closed_form(self):
        ch = weak_instance()
        closed = weak_regime_rate(ch, 13)
        general, _, _ = achievable_rate(ch, 13)
        assert general == pytest.approx(closed, abs=1e-9)

    def test_desk_scale_guard(self):
        t = np.full((5, 2, 2, 2), 0.25)
        ch = DmcWthi(5, 2, 2, 2, t)
        with pytest.raises(DeskScaleError):
            achievable_rate(ch, 5)

    def test_grid_too_coarse(self):
        with pytest.raises(DomainError):
            achievable_rate(noiseless_blind_channel(), 2)

    def test_enumeration_budget(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the search built a law grid before the budget check")

        ch = family_channel((4, 4, 4, 4), 3, "dense")
        with monkeypatch.context() as mp:
            mp.setattr(dmc, "simplex_grid", no_work)  # the search's first work step
            with pytest.raises(DeskScaleError, match="budget"):
                achievable_rate(ch, 200)
            with pytest.raises(DeskScaleError, match="budget"):
                weak_regime_rate(ch, 200)
        with pytest.raises(DeskScaleError, match="budget"):
            dmc_sato_bound(random_binary_channel(np.random.default_rng(4)), 9, 250)
        # the coarse pass alone is 2**4 * 500**2, at the budget; the witness passes,
        # the incumbent columns, the 8 perturbed couplings and the 1997 x 1997
        # refined surface take it to 10,738,057
        with pytest.raises(DeskScaleError, match="budget"):
            dmc_sato_bound(degraded_instance(), 2, 500)


def gated_channel() -> DmcWthi:
    """y1 = x1 when x2 = 0 and an erasure when x2 = 1; y2 a fair coin.

    The secrecy rate p(x2=0) h(p(x1=0)) rises along each p(x1) row of the
    grid, and the row maximum rises over the first half of the rows, so
    many laws of the grid are running records.
    """
    t = np.zeros((2, 2, 3, 2))
    for x1 in range(2):
        t[x1, 0, x1] = 0.5
        t[x1, 1, 2] = 0.5
    return DmcWthi(2, 2, 3, 2, t)


def leaky_eavesdropper_channel() -> DmcWthi:
    """y1 = BSC(0.2)(x1); y2 = x1 when x2 = 0 and a fair coin when x2 = 1.

    The weak-regime condition holds at every point-mass p(x1) and fails
    once p(x2=0) is large enough, so its first failure in grid order is in
    the second p(x1) row and past the first p(x2).
    """
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        t[x1, 0] = np.outer(bsc(0.2)[x1], np.eye(2)[x1])
        t[x1, 1] = np.outer(bsc(0.2)[x1], [0.5, 0.5])
    return DmcWthi(2, 2, 2, 2, t)


def weak_condition_fails(prof: MutualInfoProfile) -> bool:
    """The weak-regime condition of ``weak_regime_rate`` fails at one law."""
    slack = dmc._REGIME_SLACK
    return (prof.i_x1_y1_given_x2 < prof.i_x1_y2_given_x2 - slack
            or prof.i_x2_y2_given_x1 < prof.i_x2_y1_given_x1 - slack)


def running_records(rates: np.ndarray) -> int:
    """Number of laws whose rate exceeds every earlier rate in grid order."""
    earlier = np.maximum.accumulate(np.concatenate([[-np.inf], rates[:-1]]))
    return int(np.sum(rates > earlier))


def sequential_winner(rates: np.ndarray) -> int:
    """The law a sequential scan keeps when a later law wins only by more than 1e-15."""
    best, winner = -math.inf, None
    for k, rate in enumerate(rates):
        if rate > best + 1e-15:
            best, winner = rate, k
    return winner


def inject_rates(monkeypatch, rates: np.ndarray) -> list:
    """Give grid law k the secrecy rate and I(X1;Y1|X2) ``rates[k]``, in any call order.

    Returns the list of table lengths that ``_breakpoint_search`` scores.
    """
    real_rows, scored = dmc._law_rows, []

    def law_rows(ch, grid):
        start = 0
        for px1s, px2s, table in real_rows(ch, grid):
            table = table.copy()
            table[:, 0] = rates[start : start + len(table)]
            start += len(table)
            yield px1s, px2s, table

    def search_rates(table):  # the rate of a row is its I(X1;Y1|X2), at dummy rate 0
        scored.append(len(table))
        return table[:, 0], np.zeros(len(table)), np.zeros(len(table))

    monkeypatch.setattr(dmc, "_law_rows", law_rows)
    monkeypatch.setattr(dmc, "_breakpoint_search", search_rates)
    return scored


def grid_outcomes(ch: DmcWthi, grid: int) -> list:
    """The four grid searches of ``ch``; a regime mismatch gives its message."""
    out = [search(ch, grid)]
    for fn in (weak_regime_rate, strong_regime_rate, very_strong_eavesdropping):
        try:
            out.append(fn(ch, grid))
        except RegimeMismatchError as exc:
            out.append(str(exc))
    return out


class TestLawBlocks:
    @pytest.mark.parametrize("ch, grid", [
        (gated_channel(), 21),
        (family_channel((3, 3, 3, 2), 4, "dense"), 7),
        (family_channel((4, 3, 2, 4), 5, "sparse"), 5),
        (weak_instance(), 9),
        (strong_instance(), 9),
        (very_strong_instance(), 9),
    ])
    def test_values_do_not_depend_on_the_blocking(self, monkeypatch, ch, grid):
        n1, n2 = len(simplex_grid(ch.nx1, grid)), len(simplex_grid(ch.nx2, grid))
        found = {}
        for rows in (1, 3, n1):
            monkeypatch.setattr(dmc, "_LAW_BLOCK", rows * n2)
            blocks = list(dmc._law_rows(ch, grid))
            assert len(blocks) == math.ceil(n1 / rows)
            assert all(len(px1s) == rows for px1s, _, _ in blocks[:-1])
            table = np.concatenate([table for _, _, table in blocks])
            found[rows] = table, grid_outcomes(ch, grid)
        whole, outcomes = found[n1]
        for rows in (1, 3):
            assert np.array_equal(found[rows][0], whole)
            assert found[rows][1] == outcomes

    def test_rising_rates_make_many_records_in_a_block(self):
        rates = dmc._breakpoint_search(
            np.concatenate([table for _, _, table in dmc._law_rows(gated_channel(), 21)]))[0]
        assert running_records(rates) > 2 * 21
        rate, px1, px2, _ = search(gated_channel(), 21)
        assert (rate, px1, px2) == (1.0, [0.5, 0.5], [1.0, 0.0])

    @pytest.mark.parametrize("rows", [1, 3, 20])
    def test_record_scan_keeps_the_sequential_tie_rule(self, monkeypatch, rows):
        # rates that climb by 0.6e-15 a law in grid order: every law is a
        # running record, but only every other one beats the best by 1e-15
        ch, grid = gated_channel(), 20
        px1s, px2s = simplex_grid(ch.nx1, grid), simplex_grid(ch.nx2, grid)
        climb = 0.6e-15 * np.arange(len(px1s) * len(px2s))
        inject_rates(monkeypatch, climb)
        monkeypatch.setattr(dmc, "_LAW_BLOCK", rows * len(px2s))
        expected = sequential_winner(climb)
        assert expected == len(climb) - 2
        _, inp, _ = achievable_rate(ch, grid)
        assert inp.px1.tolist() == px1s[expected // len(px2s)].tolist()
        assert inp.px2.tolist() == px2s[expected % len(px2s)].tolist()

    @pytest.mark.parametrize("grid", [60, 61])
    @pytest.mark.parametrize("step", [0.0, 1.0])
    def test_margin_keeps_the_first_wins_chain(self, monkeypatch, grid, step):
        # rates climb by 0.6e-15 a law, so a floor without the margin would skip
        # the laws where the sequential first-wins chain starts (and with a rise
        # of 1 bit half way, the floor skips the first half of the grid)
        ch = gated_channel()
        px1s, px2s = simplex_grid(ch.nx1, grid), simplex_grid(ch.nx2, grid)
        n = len(px1s) * len(px2s)
        rates = 0.6e-15 * np.arange(n) + step * (np.arange(n) >= n // 2)
        scored = inject_rates(monkeypatch, rates)
        expected = sequential_winner(rates)
        rate, inp, _ = achievable_rate(ch, grid)
        assert (rate, inp.px1.tolist(), inp.px2.tolist()) == (
            rates[expected], px1s[expected // len(px2s)].tolist(),
            px2s[expected % len(px2s)].tolist())
        assert (sum(scored[1::2]) < n) == (step > 0.0)  # the calls after the probes

    @pytest.mark.parametrize("grid", [5, 7, 21])
    def test_regime_mismatch_names_the_first_failing_law(self, monkeypatch, grid):
        ch = leaky_eavesdropper_channel()
        px1s, px2s = simplex_grid(ch.nx1, grid), simplex_grid(ch.nx2, grid)
        first = next(
            (i, k) for i, k in itertools.product(range(len(px1s)), range(len(px2s)))
            if weak_condition_fails(mi_profile(ch, ProductInput(px1s[i], px2s[k]))))
        assert first[0] >= 1 and first[1] >= 1
        # two rows a block: the failing law is in the second row of its block
        monkeypatch.setattr(dmc, "_LAW_BLOCK", 2 * len(px2s))
        assert first[0] % 2 == 1
        expected = (f"weak-regime condition fails at px1={px1s[first[0]].tolist()}, "
                    f"px2={px2s[first[1]].tolist()}")
        with pytest.raises(RegimeMismatchError, match=f"^{re.escape(expected)}$"):
            weak_regime_rate(ch, grid)


def assert_matches_breakpoint_reference(table: np.ndarray) -> None:
    """The three-candidate search agrees with the nine-candidate reference within
    the scan's 1e-15 tie window: in the rate of every row, and in the dummy and
    redundancy rates of every row where either rate is positive.

    They are not ``==``: where a crossing rounds to within an ulp of a
    threshold and precedes it, the reference keeps the crossing.
    """
    rates, r2s, r1ds = dmc._breakpoint_search(table)
    ref_rates, ref_r2s, ref_r1ds = breakpoint_reference(table)
    assert np.all(np.abs(rates - ref_rates) <= 1e-15)
    positive = np.maximum(rates, ref_rates) > 0.0
    assert np.all(np.abs(r2s - ref_r2s)[positive] <= 1e-15)
    assert np.all(np.abs(r1ds - ref_r1ds)[positive] <= 1e-15)


def assert_picks_a_candidate(table: np.ndarray) -> None:
    """Where the rate is positive, the dummy rate is 0, I(X2;Y1)+ or I(X2;Y2|X1)."""
    rates, r2s, _ = dmc._breakpoint_search(table)
    candidates = np.stack([np.zeros(len(table)), np.maximum(table[:, 2] - table[:, 0], 0.0),
                           table[:, 5]], axis=1)
    near = np.abs(r2s[:, None] - candidates) <= 1e-15
    assert np.all(near.any(axis=1)[rates > 0.0])


class TestBreakpointSearch:
    @given(
        st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
        st.integers(min_value=3, max_value=8),
    )
    # a row where I(X1;Y1) rounded above I(X1;Y1|X2), before the profile table
    # clamped it there, put the reference 1.1e-15 above the kernel
    @example((4, 4, 4, 4), 3260760689, "x2_irrelevant", 6)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_nine_candidate_reference(self, sizes, seed, family, grid):
        # every grid holds the point-mass laws, where thresholds vanish or coincide
        for _, _, table in dmc._law_rows(family_channel(sizes, seed, family), grid):
            assert_matches_breakpoint_reference(table)
            assert_picks_a_candidate(table)

    @pytest.mark.parametrize("make", [
        noiseless_blind_channel, blind_eavesdropper_channel, perfect_eavesdropper_channel,
        identical_outputs_channel, weak_instance, strong_instance, very_strong_instance,
        degraded_instance, trend_channel, xor_receiver_channel, gated_channel,
        leaky_eavesdropper_channel,
    ])
    def test_named_channels_match_the_nine_candidate_reference(self, make):
        for _, _, table in dmc._law_rows(make(), 21):
            assert_matches_breakpoint_reference(table)
            assert_picks_a_candidate(table)


class TestRegimeSpecialCases:
    def test_weak_on_blind_channel(self):
        # with a blind eavesdropper both deltas reduce to the receiver terms
        rate = weak_regime_rate(blind_eavesdropper_channel(0.1), 11)
        general, _, _ = achievable_rate(blind_eavesdropper_channel(0.1), 11)
        assert rate == pytest.approx(general, abs=1e-9)

    def test_weak_rejects_strong_channel(self):
        with pytest.raises(RegimeMismatchError, match="px1"):
            weak_regime_rate(strong_instance(), 7)

    def test_strong_matches_general_optimizer(self):
        ch = strong_instance()
        closed = strong_regime_rate(ch, 13)
        general, _, _ = achievable_rate(ch, 13)
        assert closed > 0.4  # genuinely positive secrecy through interference
        assert closed == pytest.approx(general, abs=1e-9)

    def test_strong_rejects_weak_channel(self):
        with pytest.raises(RegimeMismatchError):
            strong_regime_rate(weak_instance(), 7)

    def test_identical_outputs_are_weak_and_strong_with_zero_rate(self):
        ch = identical_outputs_channel()
        assert weak_regime_rate(ch, 7) == pytest.approx(0.0, abs=1e-12)
        assert strong_regime_rate(ch, 7) == pytest.approx(0.0, abs=1e-12)

    def test_very_strong_predicate(self):
        assert very_strong_eavesdropping(very_strong_instance(), 9)
        assert not very_strong_eavesdropping(noiseless_blind_channel(), 9)
        rate, _, _ = achievable_rate(very_strong_instance(), 9)
        assert rate == 0.0


class TestDmcSatoBound:
    def test_degraded_instance_is_tight(self):
        ch = degraded_instance()
        rate, _, _ = achievable_rate(ch, 21)
        res = dmc_sato_bound(ch, coupling_grid=9, input_grid=21)
        assert res.value - rate <= res.tolerance
        assert res.value >= rate - res.inner_tolerance

    def test_dominates_achievable_rate(self):
        for family in DMC_FAMILIES:
            rng = np.random.default_rng(55)
            for _ in range(5):
                ch = family_channel((2, 2, 2, 2), rng, family)
                rate, _, _ = achievable_rate(ch, 13)
                res = dmc_sato_bound(ch, coupling_grid=7, input_grid=13)
                assert res.value + res.inner_tolerance >= rate - 1e-9, family

    def test_identity_coupling_collapses_identical_outputs(self):
        res = dmc_sato_bound(identical_outputs_channel(), coupling_grid=9, input_grid=11)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_budget_counts_the_witness_passes_before_any_work(self, monkeypatch):
        # at (25, 3) every coupling at every law, 8 perturbed couplings and the 9 x 9
        # surface are 3,515,778 evaluations; the three witness passes (3 * 25^4) and
        # the three incumbent columns (3 * 9) take the worst case to 4,687,680
        class Admitted(Exception):
            pass

        def building(*args):
            raise Admitted

        monkeypatch.setattr(dmc, "_coupling_tensors", building)
        with pytest.raises(DeskScaleError, match="4687680 Sato objective evaluations exceed"):
            dmc_sato_bound(degraded_instance(), 25, 3)
        for grids in ((24, 3), (9, 21), (6, 13), (2, 250)):
            with pytest.raises(Admitted):
                dmc_sato_bound(degraded_instance(), *grids)

    def test_binary_only(self):
        # the law grid and the cell counts take any alphabet; only the guard refuses these
        for sizes in ((2, 2, 3, 2), (3, 2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 3)):
            ch = DmcWthi(*sizes, np.full(sizes, 1.0 / math.prod(sizes[2:])))
            with pytest.raises(DeskScaleError, match="binary alphabets only"):
                dmc_sato_bound(ch)

    @pytest.mark.parametrize("grids", [(3, 5), (4, 7)])
    # None is the degraded instance; on the random channels of these seeds each of
    # the eight perturbed couplings is the unique least one at one of the grids
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 8, 20, 26])
    def test_tolerances_match_the_joint_entropy_reference(self, seed, grids):
        # at the scan's winning coupling: the half-step perturbation of each cell in
        # turn, and the 4x refined law surface, all from sato_inner_reference
        coupling_grid, input_grid = grids
        ch = degraded_instance() if seed is None else random_binary_channel(
            np.random.default_rng(seed))
        res = dmc_sato_bound(ch, coupling_grid, input_grid)
        k, _ = sato_coupling_scan(ch, coupling_grid, input_grid)
        t = np.linspace(0.0, 1.0, coupling_grid)[list(np.unravel_index(k, (coupling_grid,) * 4))]
        value = law_surface(frechet_coupling(ch, t), input_grid).max()
        fine = law_surface(frechet_coupling(ch, t), 4 * (input_grid - 1) + 1)
        half = 0.5 / (coupling_grid - 1)
        perturbed = min(law_surface(frechet_coupling(ch, np.clip(t + shift, 0.0, 1.0)),
                                    input_grid).max()
                        for shift in np.kron(np.eye(4), [[-half], [half]]))
        local_var = max(np.abs(np.diff(fine, axis=a)).max() for a in (0, 1))
        assert res.value == pytest.approx(value, abs=1e-12)
        assert res.coupling_tolerance == pytest.approx(max(0.0, value - perturbed), abs=1e-12)
        assert res.inner_tolerance == pytest.approx(max(0.0, fine.max() - value) + local_var,
                                                    abs=1e-12)

    def test_rate_below_unconstrained_receiver_capacity(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            ch = random_binary_channel(rng)
            rate, _, _ = achievable_rate(ch, 11)
            cap = max(
                mi_profile(ch, ProductInput(px1, px2)).i_x1_y1_given_x2
                for px1 in simplex_grid(2, 11)
                for px2 in simplex_grid(2, 11)
            )
            assert rate <= cap + 1e-9


class TestExtremeEntries:
    # transition entries of 0, 5e-324, 1e-300, 1e-17, 1e-9 and 0.5, so that logs
    # of subnormal and zero probabilities meet the searches and the simulator;
    # a warning would mark a silent nan or inf
    def test_binary_rate_bound_and_simulation_are_finite(self):
        rng = np.random.default_rng(0)
        spec = CodebookSpec(n=6, r1s=1 / 3, r1d_prime=0.0, r1d_dprime=0.0, r2=1 / 6,
                            r2_prime=0.0, r2_dprime=1 / 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(60):
                ch = family_channel((2, 2, 2, 2), rng, "extreme")
                rate, _, _ = achievable_rate(ch, 11)
                sato = dmc_sato_bound(ch, 5, 11)
                sim = simulate(ch, UNIFORM, spec, seed, 50)
                values = [rate, *astuple(sato), sim.p_e, sim.equivocation_ratio, *sim.h_bits]
                assert np.isfinite(values).all(), ch.transition

    def test_ternary_rate_is_finite(self):
        rng = np.random.default_rng(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                ch = family_channel((3, 3, 3, 3), rng, "extreme")
                assert math.isfinite(achievable_rate(ch, 5)[0]), ch.transition


def frechet_coupling(ch: DmcWthi, params: np.ndarray) -> np.ndarray:
    """The binary coupling q[x1][x2][y1][y2] whose q(0,0|x) sits at params[x] of its
    Frechet interval, built from the transition tensor's marginals."""
    m1, m2 = ch.transition[:, :, 0, :].sum(axis=-1), ch.transition[:, :, :, 0].sum(axis=-1)
    lo = np.maximum(0.0, m1 + m2 - 1.0)
    q00 = lo + params.reshape(2, 2) * (np.minimum(m1, m2) - lo)
    return np.stack([q00, m1 - q00, m2 - q00, 1.0 - m1 - m2 + q00], axis=-1).reshape(2, 2, 2, 2)


def law_surface(q: np.ndarray, points: int) -> np.ndarray:
    """``sato_inner_reference`` of the coupling ``q`` at every law of the binary grid, (px1, px2)."""
    laws = simplex_grid(2, points)
    return np.array([[sato_inner_reference(q, a, b) for b in laws] for a in laws])


def assert_sato_search_is_exhaustive(ch: DmcWthi, coupling_grid: int, input_grid: int,
                                     coupling_slice: int | None) -> None:
    """The pruned coupling search gives the exhaustive scan's coupling and value."""
    expected = sato_coupling_scan(ch, coupling_grid, input_grid)
    with pytest.MonkeyPatch.context() as mp:
        if coupling_slice is not None:  # witness and survivor passes cross slice boundaries
            mp.setattr(dmc, "_SATO_CHUNK", 4 * coupling_slice)  # 4 cells a coupling
        laws = dmc._sato_laws(ch, *[simplex_grid(2, input_grid)] * 2)
        table = dmc._coupling_tensors(ch, np.linspace(0.0, 1.0, coupling_grid)[:, None])
        assert dmc._least_coupling(table, *laws) == expected
        assert dmc_sato_bound(ch, coupling_grid, input_grid).value == expected[1]


class TestSatoCouplingSearch:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(DMC_FAMILIES),
        st.sampled_from([(2, 3), (3, 5), (4, 5), (5, 3)]),
        st.sampled_from([None, 7, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_exhaustive_scan(self, seed, family, grids, coupling_slice):
        ch = family_channel((2, 2, 2, 2), seed, family)
        assert_sato_search_is_exhaustive(ch, *grids, coupling_slice)

    @pytest.mark.parametrize("coupling_slice", [None, 7, 2])
    @pytest.mark.parametrize("make", [
        identical_outputs_channel, noiseless_blind_channel, perfect_eavesdropper_channel,
        very_strong_instance, degraded_instance,
    ])
    def test_tie_heavy_channels_match_the_exhaustive_scan(self, make, coupling_slice):
        # most or all couplings tie at the centre law or at the minimum
        for grids in ((3, 5), (4, 7)):
            assert_sato_search_is_exhaustive(make(), *grids, coupling_slice)


unit_with_endpoints = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestSatoObjective:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.tuples(*[unit_with_endpoints] * 4), min_size=1, max_size=6),
        st.lists(st.tuples(unit_with_endpoints, unit_with_endpoints), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_joint_entropy_reference(self, seed, params, ts):
        # Frechet endpoints 0 and 1 put zero cells into q; t = 0 or 1 is a point mass
        ch = random_binary_channel(np.random.default_rng(seed))
        q = dmc._coupling_tensors(ch, np.asarray(params))
        t1, t2 = np.asarray(ts).T
        px1, px2 = np.stack([t1, 1 - t1], axis=-1), np.stack([t2, 1 - t2], axis=-1)
        got = np.concatenate(list(dmc._sato_blocks(q, *dmc._sato_laws(ch, px1, px2))))
        expected = [[sato_inner_reference(qn.reshape(2, 2, 2, 2), a, b) for qn in q]
                    for a in px1 for b in px2]
        assert got == pytest.approx(np.asarray(expected), abs=1e-12)
        # beyond binary alphabets, under the independent coupling p(y1|x) p(y2|x)
        ch = family_channel((3, 2, 2, 3), seed, "sparse")
        q = ch.receiver_marginal()[..., None] * ch.eavesdropper_marginal()[..., None, :]
        px1, px2 = simplex_grid(3, 3), simplex_grid(2, 3)
        got = np.concatenate(list(dmc._sato_blocks(q.reshape(1, 6, 2, 3),
                                                   *dmc._sato_laws(ch, px1, px2))))
        expected = [[sato_inner_reference(q, a, b)] for a in px1 for b in px2]
        assert got == pytest.approx(np.asarray(expected), abs=1e-12)

    def test_law_constant_is_the_eavesdropper_information(self):
        # the chain-rule term I(X1,X2;Y2) is the profile's i_x1x2_y2, and the cell
        # weights of row k are the outer product of the law of row k
        for ch in (random_binary_channel(np.random.default_rng(4)),
                   family_channel((3, 2, 2, 2), 4, "dense"),
                   family_channel((4, 3, 3, 2), 5, "sparse")):
            px1s, px2s = simplex_grid(ch.nx1, 5), simplex_grid(ch.nx2, 5)
            w, i_y2 = dmc._sato_laws(ch, px1s, px2s)
            laws = [(px1s[k // len(px2s)], px2s[k % len(px2s)]) for k in range(len(w))]
            expected = [mi_profile(ch, ProductInput(a, b)).i_x1x2_y2 for a, b in laws]
            assert i_y2 == pytest.approx(expected, abs=1e-15)
            assert all(np.array_equal(row, np.outer(a, b).ravel()) for row, (a, b) in zip(w, laws))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.integers(min_value=0, max_value=49), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_values_do_not_depend_on_the_other_couplings(self, seed, idx):
        # repeated, unordered and single couplings; with 1000 entries a chunk, 50
        # couplings take 5 laws a chunk and fewer couplings take more
        rng = np.random.default_rng(seed)
        ch = random_binary_channel(rng)
        q = dmc._coupling_tensors(ch, rng.random((50, 4)))
        laws = dmc._sato_laws(ch, *[simplex_grid(2, 9)] * 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dmc, "_SATO_CHUNK", 1000)
            whole = np.concatenate(list(dmc._sato_blocks(q, *laws)))
            got = np.concatenate(list(dmc._sato_blocks(q[idx], *laws)))
        assert np.array_equal(got, whole[:, idx])

    def test_values_do_not_depend_on_the_chunking(self, monkeypatch):
        rng = np.random.default_rng(9)
        ch = random_binary_channel(rng)
        q = dmc._coupling_tensors(ch, rng.random((50, 4)))
        w, i_y2 = dmc._sato_laws(ch, *[simplex_grid(2, 7)] * 2)
        blocks = list(dmc._sato_blocks(q, w, i_y2))
        assert len(blocks) == 1
        whole = blocks[0]
        for laws_per_chunk in (1, 5, 13):
            monkeypatch.setattr(dmc, "_SATO_CHUNK", laws_per_chunk * 4 * len(q))
            split = list(dmc._sato_blocks(q, w, i_y2))
            assert len(split) == math.ceil(len(w) / laws_per_chunk)
            assert np.array_equal(np.concatenate(split), whole)
            # the same laws at other offsets inside their chunks
            shifted = np.concatenate(list(dmc._sato_blocks(q, w[3:], i_y2[3:])))
            assert np.array_equal(shifted, whole[3:])


@pytest.mark.parametrize("search, args, message", [
    (simplex_grid, (2, 1), "points_per_coord must be >= 2"),
    (weak_regime_rate, (noiseless_blind_channel(), 1), "grid_per_dim must be >= 2"),
    (very_strong_eavesdropping, (noiseless_blind_channel(), 1), "grid_per_dim must be >= 2"),
    (dmc_sato_bound, (degraded_instance(), 1, 21), "coupling_grid must be >= 2"),
    (dmc_sato_bound, (degraded_instance(), 9, 2), "input_grid must be >= 3"),
], ids=["simplex_grid", "weak", "very_strong", "sato_coupling_grid", "sato_input_grid"])
def test_grid_too_small(search, args, message):
    with pytest.raises(DomainError, match=message):
        search(*args)


class TestSimplexGrid:
    def test_binary_grid_is_uniform_lattice(self):
        pts = simplex_grid(2, 5)
        assert [p[0] for p in pts] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_counts_and_normalization(self):
        pts = simplex_grid(3, 5)
        assert len(pts) == math.comb(4 + 3 - 1, 3 - 1)
        for p in pts:
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_budget(self):
        # C(49, 29) = 2.8e13 points: refused before any combination is built
        with pytest.raises(DeskScaleError, match="simplex points exceed"):
            simplex_grid(30, 21)

    def test_entropy_helper(self):
        assert entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0)
        assert entropy_bits(np.array([1.0, 0.0])) == 0.0
