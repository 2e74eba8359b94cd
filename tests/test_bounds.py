import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdens import (
    FactoredBound,
    HypothesisFailureError,
    InconsistencyError,
    ResourceLimitError,
    constants_for_group,
    csp_bound_pipeline,
    factorial_bound,
    idele_index_bound,
    index_divisor_bound,
    minimal_tower_count,
    report_to_dict,
)
from chebdens import bounds
from chebdens.bounds import DEFAULT_R_CAP, _condition, decimal_digits, decimal_str
from oracles import tower_condition_mpmath, tower_counts_by_linear_search

positive_small_fractions = st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64)


class TestMinimalTowerCount:
    def test_examples(self):
        assert minimal_tower_count(1, 2, Fraction(1, 2)) == 3
        assert minimal_tower_count(1, 2, Fraction(1)) == 2
        assert minimal_tower_count(2, 6, Fraction(1, 10)) == 13

    def test_large_weyl_order(self):
        # t = |W(E6)|; certified exactly despite the scale
        r = minimal_tower_count(1, 51840, Fraction(1, 2))
        assert r == 71865
        assert _condition(1, 51840, r, Fraction(1, 2))
        assert not _condition(1, 51840, r - 1, Fraction(1, 2))

    def test_errors(self):
        with pytest.raises(HypothesisFailureError, match="Spl\\(M/K\\)\\) > 0"):
            minimal_tower_count(1, 2, Fraction(0))
        with pytest.raises(InconsistencyError):
            minimal_tower_count(2, 2, Fraction(3, 4))
        with pytest.raises(ResourceLimitError):
            minimal_tower_count(1, 696729600, Fraction(1, 2), r_cap=1000)

    @given(
        m=st.integers(1, 4),
        t=st.integers(2, 40),
        k=st.integers(1, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_minimality_certificate(self, m, t, k):
        omega = Fraction(1, m * k)
        r = minimal_tower_count(m, t, omega)
        assert _condition(m, t, r, omega)
        assert r == 1 or not _condition(m, t, r - 1, omega)


def _cap_message(r_cap: int, t: int) -> str:
    return (
        f"minimal r exceeds the certification cap {r_cap} for t = {t}; "
        "raise r_cap to spend the extra exact-arithmetic effort"
    )


# every irreducible type of rank <= 4
RANK4_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
               "C2", "C3", "C4", "D4", "F4", "G2")


class TestTowerCountOracle:
    """minimal_tower_count against an exact linear search from r = 1."""

    @pytest.mark.parametrize(
        "label", [*RANK4_TYPES, pytest.param("E6", marks=pytest.mark.slow)]
    )
    def test_matches_linear_search(self, label):
        t = constants_for_group(label).t
        grid = [(m, Fraction(1, m * k)) for m in range(1, 5) for k in range(1, 21)]
        expected = tower_counts_by_linear_search(t, grid, DEFAULT_R_CAP)
        for (m, omega), r in zip(grid, expected):
            if r is None:
                with pytest.raises(ResourceLimitError) as info:
                    minimal_tower_count(m, t, omega)
                assert str(info.value) == _cap_message(DEFAULT_R_CAP, t)
                continue
            assert minimal_tower_count(m, t, omega) == r
            assert minimal_tower_count(m, t, omega, r_cap=r) == r
            with pytest.raises(ResourceLimitError) as info:
                minimal_tower_count(m, t, omega, r_cap=r - 1)
            assert str(info.value) == _cap_message(r - 1, t)

    @pytest.mark.parametrize("label", ["E7", "E8"])
    def test_default_refusal_message(self, label, monkeypatch):
        t = constants_for_group(label).t
        exact_checks = []

        def spy(m, t, r, omega):
            exact_checks.append(r)
            return _condition(m, t, r, omega)

        monkeypatch.setattr(bounds, "_condition", spy)
        for m in range(1, 5):
            for k in range(1, 21):
                with pytest.raises(ResourceLimitError) as info:
                    minimal_tower_count(m, t, Fraction(1, m * k))
                assert str(info.value) == _cap_message(DEFAULT_R_CAP, t)
        # the fixed-point enclosure refuses; no exact power is built
        assert exact_checks == []

    def test_power_bounds_are_a_tight_enclosure(self):
        # t = 2 and 4 have an exact base, so only the products are rounded
        bits = bounds._FIXED_BITS
        for t in (2, 3, 4, 6, 1152, 51840, 2903040, 696729600):
            for r in (0, 1, 2, 3, 17, 100, 1000, 4097):
                num, den = (t - 1) ** r << bits, t**r
                floor, ceil = num // den, -(-num // den)
                lo, hi = bounds._power_bounds(t, r, bits)
                # the base's rounding error grows about r-fold, each product adds one unit
                margin = 2 * r + 2 * r.bit_length() + 2
                assert lo <= floor <= lo + margin
                assert hi - margin <= ceil <= hi

    @pytest.mark.parametrize("fixed_bits", [1, 4])
    def test_exact_fallback_when_the_enclosure_is_loose(self, fixed_bits, monkeypatch):
        exact_checks = []

        def spy(m, t, r, omega):
            exact_checks.append(r)
            return _condition(m, t, r, omega)

        monkeypatch.setattr(bounds, "_condition", spy)
        monkeypatch.setattr(bounds, "_FIXED_BITS", fixed_bits)
        grid = [(m, Fraction(1, m * k)) for m in range(1, 5) for k in range(1, 21)]
        for label in RANK4_TYPES:
            t = constants_for_group(label).t
            # caps near the answer keep the exact powers small; every r is found below 10^5
            for (m, omega), r in zip(grid, tower_counts_by_linear_search(t, grid, DEFAULT_R_CAP)):
                assert minimal_tower_count(m, t, omega, r_cap=2 * r) == r
                with pytest.raises(ResourceLimitError) as info:
                    minimal_tower_count(m, t, omega, r_cap=r - 1)
                assert str(info.value) == _cap_message(r - 1, t)
        assert exact_checks
        # (1/2)^2 = 1/4 and (2/3)^2 = 4/9 equal omega/2 at r = 2, so r = 3;
        # only the second enclosure straddles the threshold and needs exact powers
        exact_checks.clear()
        assert minimal_tower_count(1, 2, Fraction(1, 2)) == 3
        assert minimal_tower_count(1, 3, Fraction(8, 9)) == 3
        assert 2 in exact_checks

    @pytest.mark.parametrize(
        ("label", "m", "omega", "expected"),
        [
            ("E7", 1, Fraction(1, 2), 4_024_468),
            ("E7", 1, Fraction(1, 3), 5_201_549),
            ("E7", 2, Fraction(1, 5), 4_672_262),
            ("E8", 1, Fraction(1, 2), 965_872_316),
            ("E8", 1, Fraction(1, 3), 1_248_371_858),
            ("E8", 2, Fraction(1, 5), 1_121_343_033),
        ],
    )
    def test_certified_beyond_the_default_cap(self, label, m, omega, expected):
        t = constants_for_group(label).t
        start = time.perf_counter()
        r = minimal_tower_count(m, t, omega, r_cap=10**10)
        elapsed = time.perf_counter() - start
        assert r == expected
        assert tower_condition_mpmath(m, t, r, omega)
        assert not tower_condition_mpmath(m, t, r - 1, omega)
        assert elapsed < 0.05

    def test_tiny_omega_with_a_large_cap(self):
        # omega/2 and the bisection's powers lie far below 2^-_FIXED_BITS; the
        # enclosure still decides them, where 3^(10^7) would take seconds
        omega = Fraction(1, 10**60)
        start = time.perf_counter()
        r = minimal_tower_count(1, 3, omega, r_cap=10**7)
        elapsed = time.perf_counter() - start
        assert _condition(1, 3, r, omega) and not _condition(1, 3, r - 1, omega)
        assert elapsed < 0.05

    def test_caps_below_two(self):
        # r >= 2 always (omega <= 1/m), so a cap below 2 refuses
        for r_cap in (-5, 0, 1):
            with pytest.raises(ResourceLimitError) as info:
                minimal_tower_count(1, 2, Fraction(1, 2), r_cap=r_cap)
            assert str(info.value) == _cap_message(r_cap, 2)


class TestDecimalStr:
    """decimal_str against str() with the digit limit lifted."""

    @pytest.fixture(autouse=True)
    def _no_digit_limit(self):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            yield
            return
        old = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)

    def test_matches_str(self):
        rng = random.Random(7)
        values = [0, 1, -1, 9, 10, 10**600, 2**2000, 2**2001 - 1]
        for digits in (4290, 4299, 4300, 4301, 4310):
            values.append(rng.randrange(10 ** (digits - 1), 10**digits))
            values.append(10**digits - 1)
            values.append(10 ** (digits - 1))
        values.append(rng.randrange(10**99_999, 10**100_000))
        for value in values:
            assert decimal_str(value) == str(value)
            assert decimal_str(-value) == str(-value)

    def test_million_digits(self):
        # str() of a 10^6-digit int takes about 20 s here, so the reference is
        # a random 997-digit block repeated 1003 times, whose value is the
        # block times (10^(997*1003) - 1) / (10^997 - 1)
        rng = random.Random(11)
        block = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=996))
        value = int(block) * (10 ** (997 * 1003) - 1) // (10**997 - 1)
        assert decimal_str(value) == block * 1003
        assert decimal_str(10**999_999) == "1" + "0" * 999_999


class TestDecimalDigits:
    """decimal_digits against the length of decimal_str, which shares none of its arithmetic."""

    @staticmethod
    def _edges(k: int, bits: int) -> list[int]:
        return [10**k - 1, 10**k, 10**k + 1, 2**bits - 1, 2**bits]

    def test_zero_and_negative(self):
        assert decimal_digits(0) == 1
        with pytest.raises(ValueError):
            decimal_digits(-1)

    def test_every_small_power_edge(self):
        for k in range(0, 1500):
            for n in self._edges(k, k + 1):
                if n > 0:
                    assert decimal_digits(n) == len(decimal_str(n)), n

    def test_every_power_of_two_below_2_to_30000(self):
        # 2^L - 1 and 2^L have 1 + max{k : 10^k <= 2^L} digits; the powers of 10 walk up
        # beside them, so every L where (L - 1) * log10(2) is close to an integer is met
        k, ten_k = 0, 1
        for bits in range(1, 30_000):
            n = 1 << bits
            while ten_k * 10 <= n:
                k, ten_k = k + 1, ten_k * 10
            assert decimal_digits(n) == decimal_digits(n - 1) == k + 1, bits

    def test_power_edges_up_to_300k_digits(self):
        # a doubling ladder of k from 1501 to 3 * 10^5 digits
        for k in [1501 * 2**i for i in range(8)] + [300_000]:
            for n in self._edges(k, round(k * 3.3219280948873622)):
                assert decimal_digits(n) == len(decimal_str(n)), (k, n.bit_length())

    def test_random_sizes(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.getrandbits(rng.randint(1, 200_000 if rng.random() < 0.1 else 4000))
            assert decimal_digits(n) == len(decimal_str(n))


class TestFactorialBound:
    def test_examples(self):
        assert factorial_bound(Fraction(1)) == 2
        assert factorial_bound(Fraction(3, 10)) == 24
        assert factorial_bound(Fraction(6, 25)) == 120

    def test_domain(self):
        with pytest.raises(ValueError):
            factorial_bound(Fraction(0))
        with pytest.raises(ValueError):
            factorial_bound(Fraction(3, 2))

    @given(
        d1=positive_small_fractions,
        d2=positive_small_fractions,
    )
    @settings(max_examples=120, deadline=None)
    def test_monotone_divisibility(self, d1, d2):
        if d2 < d1:
            d1, d2 = d2, d1
        small, large = factorial_bound(d2), factorial_bound(d1)
        assert large % small == 0
        assert small <= large


class TestIndexDivisorBound:
    def test_examples(self):
        assert index_divisor_bound(Fraction(1, 2), 1) == 6
        assert index_divisor_bound(Fraction(1, 2), 2) == 36
        assert index_divisor_bound(Fraction(3, 10), 3, rho=5) == 24**3 * 5 == 69120

    def test_factored_form_beyond_digit_limit(self):
        result = index_divisor_bound(Fraction(1, 400), 4, materialize_limit=100)
        assert isinstance(result, FactoredBound)
        assert result.factorial_of == 401 and result.power == 4 and result.times == 1
        small = index_divisor_bound(Fraction(1, 400), 4)
        assert small == result.value()

    def test_digit_count_estimate_matches_exact(self):
        for k, power, times in [(13, 1, 1), (21, 5, 6), (50, 2, 123456)]:
            fb = FactoredBound(k, power, times)
            assert fb.digit_count_estimate() == len(str(fb.value()))

    def test_super_decreasing_grid(self):
        deltas = [Fraction(k, 20) for k in range(1, 21)]
        for d in range(1, 6):
            values = {delta: index_divisor_bound(delta, d, rho=6) for delta in deltas}
            for d1 in deltas:
                for d2 in deltas:
                    if d1 <= d2:
                        assert values[d1] % values[d2] == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            index_divisor_bound(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            index_divisor_bound(Fraction(1, 2), 1, rho=0)


class TestIdeleIndexBound:
    def test_examples(self):
        assert idele_index_bound(Fraction(3, 10)) == 3
        assert idele_index_bound(Fraction(1)) == 1
        assert idele_index_bound(Fraction(1, 6)) == 6

    def test_domain(self):
        with pytest.raises(ValueError):
            idele_index_bound(Fraction(0))


class TestPipeline:
    def test_a1_half(self):
        report = csp_bound_pipeline("A1", 1, Fraction(1, 2))
        assert (report.d, report.t, report.c) == (1, 2, 2)
        assert report.r == 3
        assert report.theta == Fraction(3, 8)
        assert report.delta == Fraction(1, 12)
        assert report.nu_arg == 13
        assert report.n_exact == 6227020800
        assert report.valuation_budget == 6
        assert report.idele_index == 12

    def test_a1_full(self):
        report = csp_bound_pipeline("A1", 1, Fraction(1))
        assert report.r == 2
        assert report.theta == Fraction(3, 4)
        assert report.delta == Fraction(1, 4)
        assert report.n_exact == 120
        assert report.valuation_budget == 4

    def test_theta_exceeds_half_omega_and_minimality(self):
        for label in RANK4_TYPES:
            for m in range(1, 5):
                for k in range(1, 21):
                    omega = Fraction(1, m * k)
                    report = csp_bound_pipeline(label, m, omega, materialize_limit=0)
                    assert report.theta > omega / 2
                    assert report.delta == omega / (2 * report.r)
                    assert _condition(m, report.t, report.r, omega)
                    assert report.r == 1 or not _condition(m, report.t, report.r - 1, omega)

    def test_omega_above_ambient_rejected(self):
        with pytest.raises(InconsistencyError):
            csp_bound_pipeline("A1", 2, Fraction(3, 4))

    def test_omega_zero_rejected(self):
        with pytest.raises(HypothesisFailureError):
            csp_bound_pipeline("A1", 1, Fraction(0))

    def test_materialized_matches_factored_form(self):
        report = csp_bound_pipeline("A2", 1, Fraction(1, 3), rho=7)
        recomputed = math.factorial(report.n_factored.factorial_of) ** report.d * 7
        assert report.n_exact == recomputed == report.n_factored.value()
        assert report.n_digits == len(str(recomputed))

    def test_unmaterialized_report(self):
        report = csp_bound_pipeline("A1", 1, Fraction(1, 500), materialize_limit=10)
        assert report.n_exact is None
        assert report.n_digits > 10
        assert report.n_factored.power == 1

    def test_report_serialization(self):
        payload = report_to_dict(csp_bound_pipeline("A1", 1, Fraction(1, 2)))
        assert payload["omega"] == "1/2"
        assert payload["theta"] == "3/8"
        assert payload["delta"] == "1/12"
        assert payload["n_exact"] == "6227020800"
        assert payload["n_factored"] == {
            "factored": {"factorial_of": 13, "power": 1, "times": 1}
        }

    def test_e6_pipeline_runs_at_scale(self):
        report = csp_bound_pipeline("E6", 1, Fraction(1, 2), materialize_limit=10)
        assert report.t == 51840
        assert report.r == 71865
        assert report.delta == Fraction(1, 4 * 71865)
        assert report.nu_arg == 4 * 71865 + 1
        assert report.n_exact is None
