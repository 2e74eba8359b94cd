import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # each level sieves [2, 2^bits) with bits = isqrt(hi - 1).bit_length(); below 2^40
    # that is six calls when no bound is cached yet, and none once all are
    primes_mod._base_primes.cache_clear()
    his = []
    sieve = primes_mod.sieve_primes
    monkeypatch.setattr(primes_mod, "sieve_primes",
                        lambda rng, hard_cap: his.append(rng.hi) or sieve(rng, hard_cap))
    top = PrimeRange(2**40 - 100, 2**40)
    got = np.concatenate(list(primes_mod.iter_prime_segments(top))).tolist()
    assert got == [n for n in range(top.lo, top.hi) if is_prime(n)]
    assert his == [2**20, 2**10, 2**5, 8, 4, 2]
    his.clear()
    assert np.concatenate(list(primes_mod.iter_prime_segments(top))).tolist() == got
    assert his == []


def test_base_primes_are_shared_and_read_only():
    first = primes_mod._base_primes(12, primes_mod.HARD_CAP)
    assert primes_mod._base_primes(12, primes_mod.HARD_CAP) is first
    assert not first.flags.writeable
    assert first.tolist() == [n for n in range(2, 4096) if is_prime(n)]


# windows near 2^26, 10^9, 2^34 and 2^40 - 10^4, where narrow segments strike
# most base primes by scatter; the examples put p^2 of a prime p (8191, 31607,
# 131071, 1048573) on the last segment's end or on end - 1, and at a segment of
# 2^21 a window is one segment whose primes above width / 128 are scattered
_ANCHORS = (2**26, 10**9, 2**34, 2**40 - 10**4)


@given(
    lo=st.sampled_from(_ANCHORS).flatmap(lambda a: st.integers(a - 10**5, min(a + 10**5, 2**40 - 1))),
    width=st.integers(1, 3 * 10**4),
    seg=st.sampled_from([7, 64, 1000, 2**21]),
)
@example(lo=8191**2 - 3000, width=3000, seg=2**21)
@example(lo=8191**2 - 2999, width=3000, seg=1000)
@example(lo=31607**2 - 2000, width=2001, seg=64)
@example(lo=131071**2 - 700, width=700, seg=7)
@example(lo=131071**2 - 699, width=700, seg=2**21)
@example(lo=1048573**2 - 500, width=501, seg=7)
@example(lo=2**40 - 3 * 10**4, width=3 * 10**4, seg=1000)
@settings(max_examples=40, deadline=None)
def test_narrow_windows_match_miller_rabin(lo, width, seg):
    hi = min(lo + min(width, 300 * seg), 2**40)  # at most 300 segments per window
    with mock.patch.object(primes_mod, "SEGMENT_SIZE", seg):
        got = sieve_primes(PrimeRange(lo, hi)).tolist()
    assert got == [n for n in range(lo, hi) if is_prime(n)]


def test_scatter_passes_stay_within_the_chunk(monkeypatch):
    # a full segment below 2^40 strikes ~80 000 sparse base primes by scatter, in
    # passes whose index arrays hold at most _SCATTER_CHUNK entries, and finds
    # the primes the slice loop alone finds
    sizes = []
    repeat = np.repeat
    monkeypatch.setattr(np, "repeat", lambda a, n: sizes.append(int(np.sum(n))) or repeat(a, n))
    top = PrimeRange(2**40 - 2**21, 2**40)
    got = sieve_primes(top)
    monkeypatch.undo()
    assert len(sizes) > 4 and max(sizes) <= primes_mod._SCATTER_CHUNK
    with mock.patch.object(primes_mod, "_SCATTER_MIN", 2**40):
        assert sieve_primes(top).tolist() == got.tolist()


def _checked_segments(rng):
    """The yields of ``iter_prime_segments(rng)``, each checked to be a non-empty,
    strictly increasing int64 array, concatenated as a list."""
    segments = list(primes_mod.iter_prime_segments(rng))
    for seg in segments:
        assert seg.dtype == np.int64 and seg.ndim == 1 and seg.size > 0
        assert (np.diff(seg) > 0).all()
    return np.concatenate(segments).tolist() if segments else []


_ODD_BASE = (3, 5, 7, 11, 13, 31, 97)


@st.composite
def _odd_edge_ranges(draw):
    # lo even or odd, on p^2 or p^2 + 1; hi - 1 anywhere or on an odd multiple of p
    p = draw(st.sampled_from(_ODD_BASE))
    lo = draw(st.one_of(st.integers(2, 3000), st.sampled_from([p * p, p * p + 1])))
    j = draw(st.integers(lo // (2 * p) + 1, lo // (2 * p) + 20))
    hi = draw(st.one_of(st.integers(lo - 2, lo + 400), st.just(p * (2 * j + 1) + 1)))
    return lo, hi


@given(bounds=_odd_edge_ranges(), seg=st.sampled_from([1, 2, 3, 7, 64, 4097]))
@example(bounds=(2, 3), seg=1)
@example(bounds=(2, 4), seg=2)
@example(bounds=(3, 4), seg=1)
@example(bounds=(2, 10), seg=3)  # 9 = 3^2 is the last number of the range
@example(bounds=(9, 26), seg=7)  # lo = 3^2, end - 1 = 5^2
@example(bounds=(26, 50), seg=2)  # lo = 5^2 + 1, end - 1 = 7^2
@example(bounds=(121, 170), seg=4097)  # lo = 11^2, end - 1 = 13^2
@example(bounds=(2, 2), seg=1)
@settings(max_examples=80, deadline=None)
def test_odd_only_segments_match_trial_division(bounds, seg):
    # a segment one number wide at an even number holds no odd number at all,
    # and one holding nothing but composites yields nothing
    lo, hi = bounds
    with mock.patch.object(primes_mod, "SEGMENT_SIZE", seg):
        got = _checked_segments(PrimeRange(lo, hi))
    assert got == [n for n in range(lo, hi) if trial_division_is_prime(n)]


def test_full_segments_are_increasing_int64():
    # one segment, then three from an even lo, the last of them one number wide
    assert _checked_segments(PrimeRange(2, 10**6)) == odd_bytearray_sieve(10**6)
    hi = 10**6 + 2**22 + 1
    assert _checked_segments(PrimeRange(10**6, hi)) == [p for p in odd_bytearray_sieve(hi) if p >= 10**6]


@pytest.mark.parametrize("seg", [4097, 4096])
def test_count_to_1e6_with_odd_and_even_segments(seg, monkeypatch):
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", seg)
    assert prime_count(PrimeRange(2, 10**6)) == len(odd_bytearray_sieve(10**6)) == 78498


def test_full_segment_near_1e9_takes_slices_and_scatter(monkeypatch):
    # at 2^21 numbers the odd base primes up to 2^21 / 128 = 16384 are struck by
    # slices and the 1504 above it, up to sqrt(10^9 + 2^21), by one scatter
    rng = PrimeRange(10**9, 10**9 + 2**21)
    scattered = []
    scatter = primes_mod._scatter
    monkeypatch.setattr(primes_mod, "_scatter",
                        lambda mask, olo, ps: scattered.append(ps.tolist()) or scatter(mask, olo, ps))
    got = _checked_segments(rng)
    assert len(scattered) == 1
    odd_base = [p for p in range(3, math.isqrt(rng.hi - 1) + 1) if is_prime(p)]
    sliced = odd_base[: len(odd_base) - len(scattered[0])]
    assert scattered[0] == odd_base[len(sliced):] and len(scattered[0]) == 1504
    assert sliced[-1] <= 2**21 // primes_mod._SPARSE_MULTIPLES < scattered[0][0]
    monkeypatch.setattr(primes_mod, "_SCATTER_MIN", 2**40)  # every base prime by slice
    assert got == sieve_primes(rng).tolist() and len(scattered) == 1
    sample = got[::500]
    assert all(is_prime(p) for p in sample) and len(got) == len(set(got))
