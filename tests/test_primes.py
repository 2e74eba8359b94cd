from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebdens.primes as primes_mod
from chebdens import PrimeRange, ResourceLimitError, is_prime, prime_count, sieve_primes
from oracles import odd_bytearray_sieve, trial_division_is_prime


def test_small_range_matches_trial_division():
    assert sieve_primes(PrimeRange(2, 11)).tolist() == [2, 3, 5, 7]
    expected = [n for n in range(2, 2000) if trial_division_is_prime(n)]
    assert sieve_primes(PrimeRange(2, 2000)).tolist() == expected


def test_empty_and_degenerate_ranges():
    assert sieve_primes(PrimeRange(2, 2)).tolist() == []
    assert sieve_primes(PrimeRange(7, 5)).tolist() == []
    assert prime_count(PrimeRange(2, 3)) == 1


def test_range_not_anchored_at_two():
    assert sieve_primes(PrimeRange(10, 30)).tolist() == [11, 13, 17, 19, 23, 29]
    assert sieve_primes(PrimeRange(23, 24)).tolist() == [23]


def test_counts_against_second_sieve():
    assert prime_count(PrimeRange(2, 101)) == 25
    assert prime_count(PrimeRange(2, 10**6)) == len(odd_bytearray_sieve(10**6)) == 78498


@pytest.mark.slow
def test_count_at_1e7_against_second_sieve():
    assert prime_count(PrimeRange(2, 10**7)) == len(odd_bytearray_sieve(10**7)) == 664579


def test_lo_below_two_rejected():
    with pytest.raises(ValueError):
        PrimeRange(1, 10)


def test_hard_cap():
    with pytest.raises(ResourceLimitError):
        sieve_primes(PrimeRange(2, 2**41))
    # overridable by the explicit flag
    assert sieve_primes(PrimeRange(2**41, 2**41 + 20), hard_cap=2**42).size >= 0


@given(
    lo=st.integers(2, 5000),
    span1=st.integers(0, 3000),
    span2=st.integers(0, 3000),
    seg=st.integers(1, 512),
)
@settings(max_examples=60, deadline=None)
def test_segmentation_transparency(lo, span1, span2, seg):
    mid = lo + span1
    hi = mid + span2
    whole = sieve_primes(PrimeRange(lo, hi))
    with mock.patch.object(primes_mod, "SEGMENT_SIZE", seg):
        left = sieve_primes(PrimeRange(lo, mid))
        right = sieve_primes(PrimeRange(mid, hi))
        count = prime_count(PrimeRange(lo, hi))
    assert np.concatenate([left, right]).tolist() == whole.tolist()
    assert count == whole.size


def test_emitted_primes_pass_witness_check(primes_1e5):
    sample = primes_1e5[:: max(1, len(primes_1e5) // 500)]
    assert all(is_prime(int(p)) for p in sample)
    assert all(trial_division_is_prime(int(p)) for p in sample[:50])


def test_is_prime_agrees_with_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_is_prime(n)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    with pytest.raises(ResourceLimitError):
        is_prime(10**25)


def test_output_sorted_strictly_increasing(primes_1e5):
    assert (np.diff(primes_1e5) > 0).all()


@pytest.mark.parametrize("seg", [7, 64])
def test_base_primes_from_the_segmented_sieve(seg, monkeypatch):
    # hi at, just below and just above p^2, where p itself must be a base prime
    # exactly when p^2 < hi; segments this short make the base sieves segmented too
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", seg)
    his = [2, 3, 4, 5] + [p * p + d for p in (2, 3, 5, 7, 11, 13, 31, 97) for d in (-1, 0, 1)]
    for hi in his:
        assert sieve_primes(PrimeRange(2, hi)).tolist() == [n for n in range(2, hi) if is_prime(n)]
        lo = max(2, hi - 30)
        assert sieve_primes(PrimeRange(lo, hi)).tolist() == [n for n in range(lo, hi) if is_prime(n)]


def test_base_prime_recursion_depth_at_the_cap(monkeypatch):
    # each level sieves [2, isqrt(hi - 1) + 1); below 2^40 that is six calls
    his = []
    sieve = primes_mod.sieve_primes
    monkeypatch.setattr(primes_mod, "sieve_primes",
                        lambda rng, hard_cap: his.append(rng.hi) or sieve(rng, hard_cap))
    top = PrimeRange(2**40 - 100, 2**40)
    got = np.concatenate(list(primes_mod.iter_prime_segments(top))).tolist()
    assert got == [n for n in range(top.lo, top.hi) if is_prime(n)]
    assert his == [2**20, 2**10, 2**5, 6, 3, 2]
