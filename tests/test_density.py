import io
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebdens.density as density_mod
from chebdens import (
    DEFAULT_S_GRID,
    InconsistencyError,
    abelian_model,
    chebotarev_reference,
    cycle_type_predicate,
    dirichlet_density_estimate,
    intersect_splitting,
    lift_density,
    member_mask,
    natural_density_estimate,
    partial_zeta,
    splitting_field_model,
    upper_density_estimate,
)
from chebdens.density import (
    dirichlet_convergence_rows,
    natural_convergence_rows,
    riemann_zeta,
    write_convergence_csv,
)
from oracles import (
    odd_bytearray_sieve,
    per_cutoff_dirichlet_rows,
    per_cutoff_natural_rows,
    per_cutoff_partial_zeta,
    per_cutoff_ratio_curve,
    slow_fraction_zeta,
)

SMALL_PRIMES = odd_bytearray_sieve(2000)
MOD4 = abelian_model(4, [1])
ALL_PRIMES = abelian_model(1, [1])
X3M2 = splitting_field_model((-2, 0, 0, 1), 6)
MOD4_X3M2 = intersect_splitting([MOD4, X3M2])


class TestPartialZeta:
    def test_exact_examples(self):
        value = partial_zeta(ALL_PRIMES, 2, 10).value
        assert value == Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 25) + Fraction(1, 49)
        assert value == Fraction(18589, 44100)
        assert abs(float(value) - 0.4215193) < 1e-6

    def test_residue_class_example(self):
        # primes 5, 13, 17 are the members below 20
        value = partial_zeta(MOD4, 2, 20).value
        assert value == Fraction(1, 25) + Fraction(1, 169) + Fraction(1, 289)
        assert value == Fraction(60291, 1221025)

    def test_empty_set(self):
        assert partial_zeta([], 2, 100).value == 0
        assert partial_zeta([], 1.5, 100).value == 0.0

    def test_exact_matches_slow_oracle(self, primes_1e4):
        members = [int(p) for p in primes_1e4.tolist() if p % 4 == 1][:200]
        got = partial_zeta(members, 3, 10**4).value
        assert got == slow_fraction_zeta(members, 3)

    @given(st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=41), st.sampled_from([2, 3, 4]))
    @example([], 2)
    @example([7], 3)
    @example([2, 1999], 4)
    @example([3, 5, 7], 2)
    @settings(max_examples=80, deadline=None)
    def test_tree_sum_is_reduced_and_matches_slow_oracle(self, members, s):
        got = partial_zeta(members, s, 2000).value
        want = slow_fraction_zeta(members, s)
        # Fraction == compares the stored pair, so an unreduced sum would fail here.
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert math.gcd(got.numerator, got.denominator) == 1

    def test_float_mode_matches_fsum(self, primes_1e4):
        got = partial_zeta(MOD4, 1.5, 10**4).value
        expected = math.fsum(p**-1.5 for p in primes_1e4.tolist() if p % 4 == 1)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_s_domain(self):
        with pytest.raises(ValueError):
            partial_zeta(ALL_PRIMES, 1.0, 100)
        with pytest.raises(ValueError):
            partial_zeta(ALL_PRIMES, 0.5, 100)

    def test_fraction_exponents_choose_the_right_mode(self):
        exact = partial_zeta(ALL_PRIMES, Fraction(2), 10).value
        assert isinstance(exact, Fraction) and exact == Fraction(18589, 44100)
        approx = partial_zeta(ALL_PRIMES, Fraction(3, 2), 10).value
        assert isinstance(approx, float)

    def test_subadditivity_exact(self, primes_1e4):
        a = [int(p) for p in primes_1e4.tolist() if p % 4 == 1][:120]
        b = [int(p) for p in primes_1e4.tolist() if p % 3 == 1][:120]
        union = sorted(set(a) | set(b))
        for s in (2, 3):
            lhs = partial_zeta(union, s, 10**4).value
            rhs = partial_zeta(a, s, 10**4).value + partial_zeta(b, s, 10**4).value
            assert lhs <= rhs

    def test_monotone_in_membership(self, primes_1e4):
        small = [int(p) for p in primes_1e4[:50].tolist()]
        large = [int(p) for p in primes_1e4[:100].tolist()]
        assert partial_zeta(small, 2, 10**4).value <= partial_zeta(large, 2, 10**4).value

    def test_monotone_in_cutoff(self):
        assert partial_zeta(ALL_PRIMES, 2, 100).value <= partial_zeta(ALL_PRIMES, 2, 1000).value

    @given(st.sampled_from([MOD4, X3M2, MOD4_X3M2]), st.sampled_from([2, 3, Fraction(3)]),
           st.lists(st.integers(2, 5 * 10**4), min_size=1, max_size=4))
    @example(MOD4, 3, [5 * 10**4, 10**4, 3 * 10**4, 5 * 10**4])
    @example(X3M2, Fraction(3), [2, 7, 31, 30])
    @example(MOD4_X3M2, 2, [10**4, 10**4 + 1, 5 * 10**4])
    @settings(max_examples=25, deadline=None)
    def test_prefix_reuse_matches_slow_oracle_and_fresh_memo(self, subject, s, cutoffs):
        # the memo persists across calls and examples, so each call may extend any earlier prefix
        for cutoff in cutoffs:
            got = partial_zeta(subject, s, cutoff).value
            with mock.patch.object(density_mod, "_xi_memo", {}):
                fresh = partial_zeta(subject, s, cutoff).value
            want = per_cutoff_partial_zeta(subject, s, cutoff)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert (fresh.numerator, fresh.denominator) == (want.numerator, want.denominator)

    def test_prefix_memo_holds_models_only_and_stays_under_its_cap(self, primes_1e4):
        want, mask = partial_zeta(MOD4, 2, 10**4).value, member_mask(MOD4, primes_1e4)
        with mock.patch.object(density_mod, "_xi_memo", {}):
            for subject in ([int(p) for p in primes_1e4[mask].tolist()], mask, lambda p: p % 4 == 1):
                assert partial_zeta(subject, 2, 10**4).value == want
            assert density_mod._xi_memo == {}
        # 20 000 bits hold the sums of a few hundred members at a time
        cap = 20_000
        with mock.patch.object(density_mod, "_xi_memo", {}), \
                mock.patch.object(density_mod, "_XI_MEMO_BITS", cap):
            for subject, s, cutoff in [(MOD4, 2, 3000), (X3M2, 3, 10**4), (MOD4, 2, 5000),
                                       (MOD4, 3, 10**4), (MOD4, 2, 2000), (MOD4_X3M2, 2, 10**4)]:
                got = partial_zeta(subject, s, cutoff).value
                assert got == per_cutoff_partial_zeta(subject, s, cutoff)
                held = [pair for sums in density_mod._xi_memo.values() for pair in sums.values()]
                assert sum(n.bit_length() + d.bit_length() for n, d in held) <= cap
                if (subject, s) == (MOD4, 3):  # too large to keep, so it evicts nothing
                    assert list(density_mod._xi_memo) == [(MOD4, 2)]
            assert list(density_mod._xi_memo) == [(MOD4_X3M2, 2)]


class TestMemberMask:
    def test_accepts_models_masks_callables_and_sets(self, primes_1e4):
        from_model = member_mask(MOD4, primes_1e4)
        from_callable = member_mask(lambda p: p % 4 == 1, primes_1e4)
        from_set = member_mask(
            [int(p) for p in primes_1e4.tolist() if p % 4 == 1], primes_1e4
        )
        assert (from_model == from_callable).all()
        assert (from_model == from_set).all()
        assert (member_mask(from_model, primes_1e4) == from_model).all()

    def test_shape_mismatch_rejected(self, primes_1e4):
        with pytest.raises(ValueError):
            member_mask(np.zeros(3, dtype=bool), primes_1e4)

    def test_members_beyond_int64_are_dropped(self, primes_1e4):
        # no int64 prime array holds them, so they cannot change a mask
        wide = {3, 13, 2**70, -(2**70), 2**63}
        assert (member_mask(wide, primes_1e4) == member_mask({3, 13}, primes_1e4)).all()
        assert natural_density_estimate({3, 2**70}, 100) == natural_density_estimate({3}, 100)


class TestRiemannZeta:
    def test_against_mpmath(self):
        for s in (1.01, 1.05, 1.2, 1.5, 2.0, 3.0):
            assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-11)

    def test_euler_value(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)


class TestNaturalDensity:
    def test_residue_class_example(self):
        est = natural_density_estimate(MOD4, 101)
        assert (est.members, est.primes) == (11, 25)
        assert est.value == pytest.approx(0.44)
        assert est.exact == Fraction(11, 25)

    def test_all_primes_is_one(self):
        for cutoff in (3, 100, 10**4):
            assert natural_density_estimate(ALL_PRIMES, cutoff).value == 1.0

    def test_cubic_splitting_near_one_sixth(self):
        est = natural_density_estimate(X3M2, 10**6)
        assert abs(est.value - 1 / 6) < 0.01

    def test_undefined_below_first_prime(self):
        with pytest.raises(ValueError):
            natural_density_estimate(ALL_PRIMES, 2)

    def test_complement_sums_to_one_exactly(self, primes_1e4):
        inside = natural_density_estimate(MOD4, 10**4)
        mask = member_mask(MOD4, primes_1e4)
        outside = natural_density_estimate(~mask, 10**4)
        assert inside.exact + outside.exact == 1

    def test_monotone_in_membership(self, primes_1e4):
        sub = natural_density_estimate(MOD4, 10**4)
        odd = natural_density_estimate(lambda p: p % 2 == 1, 10**4)
        assert sub.value <= odd.value

    def test_gap_to_reference_shrinks_with_cutoff(self):
        gaps = [
            abs(natural_density_estimate(MOD4, 10**k).value - 0.5) for k in (4, 5, 6)
        ]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.005


class TestDirichletEstimates:
    def test_ratios_match_independent_computation(self, primes_1e5):
        est = dirichlet_density_estimate(MOD4, cutoff=10**5)
        members = [p for p in primes_1e5.tolist() if p % 4 == 1]
        for s, ratio in zip(est.s_grid, est.ratios):
            xi = math.fsum(p**-s for p in members)
            assert ratio == pytest.approx(xi / math.log(1 / (s - 1)), rel=1e-9)
        assert est.value == est.ratios[-1]
        assert est.s_grid == tuple(sorted(DEFAULT_S_GRID, reverse=True))

    def test_empty_set_is_zero_at_every_s(self):
        est = dirichlet_density_estimate([], cutoff=10**4)
        assert est.value == 0.0
        assert all(r == 0.0 for r in est.ratios)

    def test_truncation_pushes_ratios_below_the_limit(self):
        # at desk-scale cutoffs the raw ratio at s near 1 undershoots 1/2;
        # the coverage diagnostic makes the truncation loss visible
        est = dirichlet_density_estimate(MOD4, s_grid=(1.1, 1.05, 1.01), cutoff=10**6)
        assert 0.0 < est.value < 0.5
        assert est.coverage[0] > est.coverage[-1]
        assert all(0 < c < 1 for c in est.coverage)

    def test_ratio_grows_toward_limit_with_cutoff(self):
        grid = (1.2,)
        small = dirichlet_density_estimate(ALL_PRIMES, s_grid=grid, cutoff=10**4)
        big = dirichlet_density_estimate(ALL_PRIMES, s_grid=grid, cutoff=10**6)
        assert small.value < big.value
        assert small.coverage[0] < big.coverage[0]

    def test_all_primes_near_one_at_moderate_s(self):
        est = dirichlet_density_estimate(ALL_PRIMES, s_grid=(1.2,), cutoff=10**6)
        assert abs(est.raw_value - 1.0) < 0.1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_density_estimate(MOD4, s_grid=(), cutoff=10**4)

    def test_value_clamped_but_raw_preserved(self):
        est = dirichlet_density_estimate(ALL_PRIMES, s_grid=(1.5,), cutoff=10**6)
        assert est.raw_value > 1.0  # small-prime mass dominates at s far from 1
        assert est.value == 1.0


class TestUpperDensity:
    def test_upper_agrees_within_tail_spread(self):
        upper = upper_density_estimate(MOD4, cutoff=10**5)
        plain = dirichlet_density_estimate(MOD4, cutoff=10**5)
        tail = plain.ratios[-((len(plain.ratios) + 1) // 2):]
        spread = max(tail) - min(tail)
        assert abs(upper.value - plain.value) <= spread + 1e-15
        assert upper.value == max(tail)

    def test_empty_set(self):
        assert upper_density_estimate([], cutoff=10**4).value == 0.0

    def test_union_of_residue_classes_exceeds_each(self, primes_1e5):
        odd = upper_density_estimate(lambda p: p % 2 == 1, cutoff=10**5)
        ones = upper_density_estimate(MOD4, cutoff=10**5)
        assert odd.value > ones.value

    def test_union_of_classes_climbs_toward_one_with_cutoff(self):
        # union of both odd residue classes mod 4 = all odd primes, density 1;
        # larger cutoffs capture more of it
        from chebdens import residue_class_predicate

        pred = residue_class_predicate(MOD4, [1, 3])
        small = upper_density_estimate(pred, cutoff=10**4)
        large = upper_density_estimate(pred, cutoff=10**6)
        assert small.value < large.value < 1.0


class TestChebotarevReference:
    def test_examples(self):
        assert chebotarev_reference(MOD4) == Fraction(1, 2)
        assert chebotarev_reference(X3M2) == Fraction(1, 6)
        assert chebotarev_reference(ALL_PRIMES) == 1
        assert chebotarev_reference(abelian_model(8, [1, 3])) == Fraction(1, 2)


class TestLiftDensity:
    def test_examples(self):
        assert lift_density(Fraction(1, 10), 3) == Fraction(3, 10)
        assert lift_density(Fraction(1, 3), 1) == Fraction(1, 3)
        with pytest.raises(InconsistencyError):
            lift_density(Fraction(1, 2), 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            lift_density(Fraction(3, 2), 1)
        with pytest.raises(ValueError):
            lift_density(Fraction(1, 2), 0)


class TestConvergenceTables:
    def test_natural_rows_trend_to_reference(self):
        rows = natural_convergence_rows(MOD4, [10**4, 10**5, 10**6], reference=Fraction(1, 2))
        assert [row["cutoff"] for row in rows] == [10**4, 10**5, 10**6]
        gaps = [abs(row["estimate"] - row["reference"]) for row in rows]
        assert gaps[-1] < gaps[0]

    def test_dirichlet_rows_and_csv(self):
        rows = dirichlet_convergence_rows(MOD4, [10**4], s_grid=(1.2, 1.1))
        assert [row["s"] for row in rows] == [1.2, 1.1]
        buffer = io.StringIO()
        write_convergence_csv(rows, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "cutoff,s,xi,ratio"
        assert len(lines) == 3


# Subjects of every kind member_mask accepts, for the differential tests
# against the one-sieve-per-cutoff oracle.
_SUBJECTS = {
    "abelian": MOD4,
    "cubic": X3M2,
    "callable": lambda p: p % 3 == 1,
    "set": [p for p in odd_bytearray_sieve(40_000) if p % 4 == 3],
    "cycle-type": cycle_type_predicate(X3M2, [1, 2]),
}
_CUTOFF_LISTS = {
    "ascending": [10**3, 10**4, 10**5],
    "unsorted-duplicates": [10**5, 10**3, 10**5, 17, 3],
    "one": [50_000],
}


class TestOnePassTables:
    """Every table sieves and classifies once, at its largest cutoff, and
    matches a fresh sieve and classification at each cutoff exactly."""

    @pytest.mark.parametrize("cutoffs", _CUTOFF_LISTS.values(), ids=_CUTOFF_LISTS)
    @pytest.mark.parametrize("subject", _SUBJECTS.values(), ids=_SUBJECTS)
    def test_rows_equal_per_cutoff_oracle(self, subject, cutoffs):
        ref = Fraction(1, 3)
        assert natural_convergence_rows(subject, cutoffs, ref) == \
            per_cutoff_natural_rows(subject, cutoffs, ref)
        grid = (1.01, 1.5, 1.1, 1.5)
        assert dirichlet_convergence_rows(subject, cutoffs, grid, ref) == \
            per_cutoff_dirichlet_rows(subject, cutoffs, grid, ref)

    @pytest.mark.parametrize("subject", _SUBJECTS.values(), ids=_SUBJECTS)
    def test_estimates_equal_per_cutoff_oracle(self, subject):
        cutoff = 30_000
        (row,) = per_cutoff_natural_rows(subject, [cutoff])
        est = natural_density_estimate(subject, cutoff)
        assert (est.cutoff, est.members, est.primes, est.value, est.raw_value) == \
            (row["cutoff"], row["members"], row["primes"], row["estimate"], row["estimate"])
        ratios, coverage = per_cutoff_ratio_curve(subject, DEFAULT_S_GRID, cutoff)
        for est in (dirichlet_density_estimate(subject, cutoff=cutoff),
                    upper_density_estimate(subject, cutoff=cutoff)):
            assert (est.ratios, est.coverage) == (ratios, coverage)
        for s in (2, Fraction(3), 1.5):
            assert partial_zeta(subject, s, cutoff).value == per_cutoff_partial_zeta(subject, s, cutoff)

    def test_cubic_table_to_ten_to_the_six(self):
        cutoffs = [10**6, 10**4, 10**5, 10**6]
        assert natural_convergence_rows(X3M2, cutoffs) == per_cutoff_natural_rows(X3M2, cutoffs)
        assert dirichlet_convergence_rows(X3M2, cutoffs) == \
            per_cutoff_dirichlet_rows(X3M2, cutoffs, DEFAULT_S_GRID)

    def test_no_cutoffs_give_no_rows(self):
        assert natural_convergence_rows(MOD4, []) == []
        assert dirichlet_convergence_rows(MOD4, []) == []

    @pytest.mark.parametrize("cutoffs", [[2, 10**4], [10**4, 100, 2], [10**3, 0]])
    def test_cutoff_without_primes_raises_like_the_oracle(self, cutoffs):
        with pytest.raises(ValueError) as want:
            per_cutoff_natural_rows(MOD4, cutoffs)
        with pytest.raises(ValueError) as got:
            natural_convergence_rows(MOD4, cutoffs)
        assert str(got.value) == str(want.value)
        assert dirichlet_convergence_rows(MOD4, cutoffs) == \
            per_cutoff_dirichlet_rows(MOD4, cutoffs, DEFAULT_S_GRID)

    @pytest.mark.parametrize("cutoffs", [[10**4, 10**5], [10**5, 10**4, 10**5]])
    def test_incomplete_bad_primes_raise_like_the_oracle(self, cutoffs):
        # 90001 is prime and divides the discriminant of x^2 - 90001
        model = splitting_field_model((-90001, 0, 1), 2, bad_primes=[2])
        for table, oracle in ((natural_convergence_rows, per_cutoff_natural_rows),
                              (dirichlet_convergence_rows, per_cutoff_dirichlet_rows)):
            args = () if table is natural_convergence_rows else (DEFAULT_S_GRID,)
            with pytest.raises(InconsistencyError) as want:
                oracle(model, cutoffs, *args)
            with pytest.raises(InconsistencyError) as got:
                table(model, cutoffs, *args)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("table", [natural_convergence_rows, dirichlet_convergence_rows])
    def test_one_sieve_and_one_classification(self, monkeypatch, table):
        calls = {"primes_upto": [], "member_mask": 0}
        primes_upto, member_mask_ = density_mod.primes_upto, density_mod.member_mask

        def spy_primes(hi):
            calls["primes_upto"].append(hi)
            return primes_upto(hi)

        def spy_mask(subject, primes):
            calls["member_mask"] += 1
            return member_mask_(subject, primes)

        monkeypatch.setattr(density_mod, "primes_upto", spy_primes)
        monkeypatch.setattr(density_mod, "member_mask", spy_mask)
        rows = table(X3M2, [10**3, 10**5, 10**4, 10**2])
        assert calls == {"primes_upto": [10**5], "member_mask": 1}
        assert {row["cutoff"] for row in rows} == {10**2, 10**3, 10**4, 10**5}

    def test_boolean_mask_of_the_largest_cutoff_serves_every_cutoff(self, primes_1e4):
        # one classification at the largest cutoff; a per-cutoff pass rejected
        # this mask at 10^3 for its shape
        mask = member_mask(MOD4, primes_1e4)
        cutoffs = [10**3, 10**4]
        assert natural_convergence_rows(mask, cutoffs) == natural_convergence_rows(MOD4, cutoffs)
        assert dirichlet_convergence_rows(mask, cutoffs) == dirichlet_convergence_rows(MOD4, cutoffs)
        with pytest.raises(ValueError, match="shape"):
            per_cutoff_natural_rows(mask, cutoffs)
        with pytest.raises(ValueError, match="shape"):
            natural_convergence_rows(mask, [10**3, 10**5])

    def test_callable_subject_is_called_once_per_prime(self, primes_1e4):
        seen = []

        def subject(p):
            seen.append(p)
            return p % 4 == 1

        natural_convergence_rows(subject, [10**2, 10**3, 10**4])
        assert seen == primes_1e4.tolist()
