import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdens import (
    ContainmentError,
    InconsistencyError,
    TowerSpec,
    as_density,
    calculus,
    compositum_degree,
    disjoint_union_density,
    inclusion_exclusion_density,
    intersection_lower_bound,
    pigeonhole_threshold,
    selection_lower_bound,
    tower_theta,
    truncated_inclusion_exclusion_check,
    union_upper_bound,
)
from oracles import slow_fraction_zeta

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestAsDensity:
    def test_accepts_rationals_and_strings(self):
        assert as_density("3/8") == Fraction(3, 8)
        assert as_density(1) == 1

    def test_rejects_floats_and_out_of_range(self):
        with pytest.raises(TypeError):
            as_density(0.5)
        with pytest.raises(ValueError):
            as_density(Fraction(9, 8))


class TestUnionUpperBound:
    def test_examples(self):
        assert union_upper_bound(Fraction(1, 3), Fraction(1, 4)) == Fraction(7, 12)
        assert union_upper_bound(0, Fraction(2, 7)) == Fraction(2, 7)
        assert union_upper_bound(Fraction(3, 4), Fraction(3, 4)) == 1

    @given(fractions_01, fractions_01)
    def test_commutative_and_clamped(self, a, b):
        assert union_upper_bound(a, b) == union_upper_bound(b, a) == min(a + b, 1)


class TestPigeonhole:
    def test_examples(self):
        assert pigeonhole_threshold(Fraction(1, 2), 5) == Fraction(1, 10)
        assert pigeonhole_threshold(Fraction(2, 3), 1) == Fraction(2, 3)
        assert pigeonhole_threshold(1, 4) == Fraction(1, 4)

    def test_degenerate_epsilon(self):
        with pytest.raises(ValueError):
            pigeonhole_threshold(0, 3)


class TestIntersectionLowerBound:
    def test_examples(self):
        assert intersection_lower_bound(Fraction(1, 2), Fraction(7, 10), 1) == Fraction(1, 5)
        dc = Fraction(2, 3)
        assert intersection_lower_bound(dc, dc, dc) == dc
        assert intersection_lower_bound(Fraction(1, 4), Fraction(1, 4), 1) == 0

    def test_containment_enforced(self):
        with pytest.raises(ContainmentError):
            intersection_lower_bound(Fraction(3, 4), Fraction(1, 4), Fraction(1, 2))


class TestSelectionLowerBound:
    def test_example_with_tower_union_value(self):
        out = selection_lower_bound(Fraction(1, 2), Fraction(7, 8), 1, 3)
        assert (out.theta, out.bound, out.vacuous) == (Fraction(3, 8), Fraction(1, 8), False)

    def test_full_sets(self):
        dc = Fraction(5, 7)
        out = selection_lower_bound(dc, dc, dc, 4)
        assert (out.theta, out.bound) == (dc, dc / 4)

    def test_vacuous_reported_not_clamped(self):
        out = selection_lower_bound(Fraction(1, 10), Fraction(1, 10), 1, 2)
        assert out.theta == Fraction(-4, 5)
        assert out.bound == 0
        assert out.vacuous


class TestInclusionExclusion:
    def test_two_independent_quadratics(self):
        result = inclusion_exclusion_density(
            {(1,): Fraction(1, 2), (2,): Fraction(1, 2), (1, 2): Fraction(1, 4)}
        )
        assert result == Fraction(3, 4)

    def test_singleton(self):
        assert inclusion_exclusion_density({(1,): Fraction(2, 5)}) == Fraction(2, 5)

    def test_tower_instance_r3(self):
        table = {}
        for size in range(1, 4):
            for combo in combinations((1, 2, 3), size):
                table[combo] = Fraction(1, 2**size)
        assert inclusion_exclusion_density(table) == Fraction(7, 8)

    def test_missing_subset_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            inclusion_exclusion_density({(1,): Fraction(1, 2), (2,): Fraction(1, 2)})

    def test_monotonicity_enforced(self):
        with pytest.raises(InconsistencyError):
            inclusion_exclusion_density(
                {(1,): Fraction(1, 4), (2,): Fraction(1, 2), (1, 2): Fraction(1, 3)}
            )

    def test_int_keys_allowed(self):
        assert inclusion_exclusion_density({1: Fraction(1, 3)}) == Fraction(1, 3)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_atom_measure_oracle(self, r, data):
        # build a genuine measure on the 2^r membership atoms, then compare
        # the alternating sum against the directly computed union mass
        atoms = {}
        remaining = Fraction(1)
        for pattern in range(2**r):
            weight = remaining * Fraction(data.draw(st.integers(0, 32)), 32)
            atoms[pattern] = weight
            remaining -= weight
        table = {}
        for size in range(1, r + 1):
            for combo in combinations(range(1, r + 1), size):
                mass = sum(
                    (w for pattern, w in atoms.items()
                     if all(pattern >> (i - 1) & 1 for i in combo)),
                    Fraction(0),
                )
                table[combo] = mass
        union_mass = sum(
            (w for pattern, w in atoms.items() if pattern != 0), Fraction(0)
        )
        assert inclusion_exclusion_density(table) == union_mass


class TestTruncatedInclusionExclusion:
    def test_examples(self):
        equal, residual = truncated_inclusion_exclusion_check([[2, 3, 5], [3, 5, 7]], 2)
        assert equal and residual == 0
        equal, residual = truncated_inclusion_exclusion_check([[2, 3]], 3)
        assert equal and residual == 0

    def test_randomized_families_are_exact(self, primes_1e4):
        rng = random.Random(12345)
        pool = [int(p) for p in primes_1e4[primes_1e4 < 1000].tolist()]
        for _ in range(25):
            r = rng.randint(1, 4)
            sets = [rng.sample(pool, rng.randint(0, 60)) for _ in range(r)]
            equal, residual = truncated_inclusion_exclusion_check(sets, rng.choice((2, 3)))
            assert equal and residual == 0

    @pytest.mark.parametrize(
        "sets", [[[4, 6, 9], [6, 10]], [[4, 8, 16], [6, 12], [9, 27, 81]], [[6, 10, 15], [10, 15, 21]]]
    )
    @pytest.mark.parametrize("s", [2, 3])
    def test_composite_and_shared_factor_members(self, sets, s):
        equal, residual = truncated_inclusion_exclusion_check(sets, s)
        assert equal and residual == 0
        assert math.gcd(residual.numerator, residual.denominator) == 1

    @pytest.mark.parametrize("members", [[], [4], [4, 6], [4, 6, 9], [6, 10, 15, 21, 35], [2, 4, 8]])
    def test_tree_sum_of_any_denominators(self, members):
        n, d = calculus._reciprocal_sum([p**2 for p in members])
        got = Fraction(n, d)
        assert got == sum((Fraction(1, p**2) for p in members), Fraction(0))
        assert math.gcd(got.numerator, got.denominator) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            truncated_inclusion_exclusion_check([], 2)
        with pytest.raises(ValueError):
            truncated_inclusion_exclusion_check([[2, 3]], 1)
        with pytest.raises(ValueError):
            truncated_inclusion_exclusion_check([[1, 2]], 2)

    @pytest.mark.parametrize(
        "sets, s, what",
        [([[2, 3]], 2.9, "s"), ([[2, 3]], Fraction(5, 2), "s"), ([[2, 3.5]], 2, "set members"),
         ([[2, 3], [Fraction(7, 2)]], 3, "set members")],
    )
    def test_non_integral_values_are_refused_not_truncated(self, sets, s, what):
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            truncated_inclusion_exclusion_check(sets, s)

    def test_integral_values_of_other_types_are_accepted(self):
        want = truncated_inclusion_exclusion_check([[2, 3], [3, 5]], 3)
        assert truncated_inclusion_exclusion_check([[2.0, 3], [np.int64(3), Fraction(5)]], 3.0) == want

    @pytest.mark.parametrize(
        "sets",
        [[[4, 6, 9, 12], [6, 12, 18], [9, 12, 27]], [[10, 15, 21], [15, 21, 35, 6], [6, 10]],
         [[8, 16], [16, 32, 64], [8, 64], [12, 16, 24]]],
    )
    @pytest.mark.parametrize("s", [2, 3])
    def test_composite_members_against_term_by_term_fractions(self, sets, s):
        lhs = slow_fraction_zeta(set().union(*map(set, sets)), s)
        rhs = Fraction(0)
        for size in range(1, len(sets) + 1):
            for combo in combinations(sets, size):
                rhs += (-1) ** (size - 1) * slow_fraction_zeta(set.intersection(*map(set, combo)), s)
        assert truncated_inclusion_exclusion_check(sets, s) == (lhs == rhs, lhs - rhs)

    @pytest.mark.parametrize("target, sign", [(frozenset({6, 12}), -1), (frozenset({12}), 1)])
    def test_perturbed_intersection_gives_exactly_its_residual(self, monkeypatch, target, sign):
        # pairs meet in {6,12}, {9,12}, {12,18} (sign -1) and all three in {12} (sign +1),
        # so each target is the member set of exactly one term
        sets = [[4, 6, 9, 12], [6, 12, 18], [9, 12, 18, 27]]
        s = 2
        wanted = [p**s for p in sorted(target)]
        honest = calculus._reciprocal_sum

        def perturbed(denominators):
            n, d = honest(denominators)
            return (n + 1, d) if list(denominators) == wanted else (n, d)

        monkeypatch.setattr(calculus, "_reciprocal_sum", perturbed)
        equal, residual = truncated_inclusion_exclusion_check(sets, s)
        # the right side grows by sign / d for that one intersection, d = prod p^s
        assert not equal
        assert residual == Fraction(-sign, math.prod(wanted))
        assert math.gcd(residual.numerator, residual.denominator) == 1


class TestTowerFormulas:
    def test_union_density_examples(self):
        assert disjoint_union_density(TowerSpec(1, 2, 3)) == Fraction(7, 8)
        assert disjoint_union_density(TowerSpec(3, 5, 1)) == Fraction(1, 15)
        assert disjoint_union_density(TowerSpec(2, 3, 2)) == Fraction(5, 18)

    def test_union_density_equals_inclusion_exclusion_on_model_densities(self):
        for m in range(1, 6):
            for t in range(2, 11):
                for r in range(1, 9):
                    table = {}
                    for size in range(1, r + 1):
                        for combo in combinations(range(1, r + 1), size):
                            table[combo] = Fraction(1, m * t**size)
                    assert inclusion_exclusion_density(table) == disjoint_union_density(
                        TowerSpec(m, t, r)
                    )

    def test_union_density_increasing_in_r_bounded_by_ambient(self):
        previous = Fraction(0)
        for r in range(1, 30):
            value = disjoint_union_density(TowerSpec(2, 3, r))
            assert previous < value < Fraction(1, 2)
            previous = value
        assert disjoint_union_density(TowerSpec(2, 3, 1)) == Fraction(1, 6)

    def test_theta_examples(self):
        out = tower_theta(Fraction(1, 2), TowerSpec(1, 2, 3))
        assert (out.theta, out.bound, out.vacuous) == (Fraction(3, 8), Fraction(1, 8), False)
        assert tower_theta(0, TowerSpec(1, 2, 3)).vacuous

    def test_theta_at_full_overlap_equals_union_density(self):
        for m in (1, 2, 3):
            for t in (2, 5):
                for r in (1, 4, 9):
                    spec = TowerSpec(m, t, r)
                    assert tower_theta(Fraction(1, m), spec).theta == disjoint_union_density(spec)

    def test_theta_overlap_cannot_exceed_ambient(self):
        with pytest.raises(InconsistencyError):
            tower_theta(Fraction(2, 3), TowerSpec(2, 2, 1))

    def test_large_r_limit_positive(self):
        out = tower_theta(Fraction(1, 3), TowerSpec(3, 2, 64))
        assert not out.vacuous
        assert Fraction(1, 3) - out.theta == Fraction(1, 3 * 2**64)

    def test_compositum_degree(self):
        assert compositum_degree(TowerSpec(2, 6, 3), 3) == 432
        assert compositum_degree(TowerSpec(4, 7, 2), 1) == 28
        assert compositum_degree(TowerSpec(1, 2, 3), 3) == 8
        with pytest.raises(ValueError):
            compositum_degree(TowerSpec(1, 2, 3), 4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TowerSpec(0, 2, 1)
        with pytest.raises(ValueError):
            TowerSpec(1, 1, 1)
        with pytest.raises(ValueError):
            TowerSpec(1, 2, 0)


def _assert_same_reduced_pair(got: Fraction, want: Fraction) -> None:
    # Fraction == compares the stored pair, so an unreduced result would fail here.
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert math.gcd(got.numerator, got.denominator) == 1


def _check_reduced_tower_formulas(m: int, t: int, r: int) -> None:
    spec = TowerSpec(m, t, r)
    _assert_same_reduced_pair(
        disjoint_union_density(spec), Fraction(t**r - (t - 1) ** r, m * t**r)
    )
    # At overlap 0, theta is minus the subtrahend exactly as the helper built it.
    for overlap in (Fraction(0), Fraction(1, 2 * m), Fraction(1, m)):
        _assert_same_reduced_pair(
            tower_theta(overlap, spec).theta, overlap - Fraction((t - 1) ** r, m * t**r)
        )


class TestReducedConstructions:
    """The lowest-terms constructions against the normalising Fraction(n, d)."""

    @pytest.mark.parametrize(
        "m, t, r",
        [(5, 6, 1), (5, 6, 7), (25, 6, 2), (25, 6, 9), (10, 6, 3), (4, 3, 2), (4, 3, 5)],
    )
    def test_theta_where_the_subtrahend_shares_a_factor_with_m(self, m, t, r):
        assert math.gcd((t - 1) ** r, m) > 1
        _check_reduced_tower_formulas(m, t, r)

    @pytest.mark.parametrize("m, t, r", [(3, 2, 2), (11, 6, 2), (19, 3, 3), (35, 6, 3)])
    def test_union_where_the_numerator_shares_a_factor_with_m(self, m, t, r):
        assert math.gcd(t**r - (t - 1) ** r, m) > 1
        _check_reduced_tower_formulas(m, t, r)

    @given(st.integers(1, 720), st.integers(2, 40), st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_matches_normalising_construction(self, m, t, r):
        _check_reduced_tower_formulas(m, t, r)

    @pytest.mark.parametrize("t", [2**9, 48, 1152, 23040, 51840, 2835])
    @pytest.mark.parametrize("m, r", [(1, 1), (6, 7), (35, 40), (210, 301)])
    def test_weyl_orders_with_large_two_parts(self, t, m, r):
        # 2^9, |W(B3)|, |W(F4)|, |W(D6)|, |W(E6)|, and the odd 2835 = 3^4 * 5 * 7
        assert calculus._tower_power(t, r) == t**r
        _check_reduced_tower_formulas(m, t, r)


@pytest.mark.skipif(
    calculus._COPRIME_BRANCH == "Fraction",
    reason="this interpreter's fractions module has neither Fraction._from_coprime_ints "
    "nor the _normalize keyword, so every Fraction is normalised",
)
@pytest.mark.parametrize("branch", [calculus._COPRIME_BRANCH])
def test_coprime_fraction_skips_the_gcd(branch):
    # An unreduced pair stays unreduced only if the constructor really skips the gcd;
    # the parameter id names the branch this interpreter took.
    got = calculus._coprime_fraction(2, 4)
    assert (got.numerator, got.denominator) == (2, 4), branch
