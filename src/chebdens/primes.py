"""Enumeration of rational primes with a segmented sieve of Eratosthenes.

All ranges are half-open ``[lo, hi)`` and all outputs are strictly
increasing.  The sieve is segmented so that memory stays proportional to
``SEGMENT_SIZE`` regardless of ``hi``, and segments are merged in ascending
order, so the output is identical however the segments are scheduled.  A
segment's mask holds its odd numbers only, one byte each: 1 MB of mask per
2^21 numbers, and the prime 2 is added where the range holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError

#: Refuse to sieve past this bound unless the caller overrides ``hard_cap``.
HARD_CAP = 2**40

#: Segment length in numbers (odd and even alike), read at each sieve call;
#: a full pass to 10^7 takes well under a second.
SEGMENT_SIZE = 1 << 21

# Witnesses making Miller-Rabin deterministic below ~3.3e24 (far beyond HARD_CAP).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class PrimeRange:
    """Half-open prime search range ``[lo, hi)``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 2:
            raise ValueError(f"lo must be >= 2, got {self.lo}")

    def is_empty(self) -> bool:
        return self.hi <= self.lo


def iter_prime_segments(rng: PrimeRange, hard_cap: int = HARD_CAP) -> Iterator[np.ndarray]:
    """Yield the primes of ``rng`` one ascending segment at a time.

    The range is cut into segments of ``SEGMENT_SIZE`` numbers, and each
    segment [lo, end) is sieved in a mask of its odd numbers only: entry k
    stands for (lo | 1) + 2k, so 2^21 numbers take 1 MB of mask, and the
    prime 2 is added when the segment holds it.  A segment one number wide
    at an even number has no odd number and an empty mask.  The odd base
    primes below sqrt(end) strike the mask.  They come from
    ``_base_primes``, which sieves [2, 2^bits) once per process for
    bits = isqrt(hi - 1).bit_length() and keeps the read-only result:
    below ``HARD_CAP`` that is at most 20 arrays, 1.4 MB in all, and the
    recursion behind a bound is at most six sieves deep.  A base prime
    p <= width / ``_SPARSE_MULTIPLES`` (about 64 odd multiples or more in
    the segment) strikes its odd multiples with one slice of stride p; the
    sparser ones are struck together by ``_scatter``, unless fewer than
    ``_SCATTER_MIN`` of them are live, where the slice loop is cheaper.  A
    full ``SEGMENT_SIZE`` segment below 10^7 has no sparse prime.
    Every yield is a non-empty strictly increasing int64 array, and
    concatenating the yields equals a single-shot sieve of the whole range.

    The range is checked when the generator is made, not when it is first
    read: a bad ``hi`` raises ``ResourceLimitError`` here.
    """
    if rng.hi > hard_cap:
        raise ResourceLimitError(
            f"hi={rng.hi} exceeds the configured cap {hard_cap}; "
            "pass hard_cap explicitly to allow larger ranges"
        )
    return _segments(rng, hard_cap)


def _segments(rng: PrimeRange, hard_cap: int) -> Iterator[np.ndarray]:
    """The generator behind ``iter_prime_segments``, for a range already checked."""
    if rng.is_empty():
        return
    base = _base_primes(math.isqrt(rng.hi - 1).bit_length(), hard_cap)
    lo = rng.lo
    while lo < rng.hi:
        end = min(lo + SEGMENT_SIZE, rng.hi)
        olo = lo | 1  # olo <= end, as lo < end
        mask = np.ones((end - olo + 1) // 2, dtype=bool)
        # base[0] is 2 whenever base is non-empty, so the slice keeps the odd base primes
        live = base[1 : np.searchsorted(base, math.isqrt(end - 1), side="right")]
        dense = np.searchsorted(live, (end - lo) // _SPARSE_MULTIPLES, side="right")
        if live.size - dense < _SCATTER_MIN:
            dense = live.size
        for p in live[:dense].tolist():
            # p is odd, so (q | 1) * p is its first odd multiple from olo on, and p^2 is odd
            start = max(p * p, (-(-olo // p) | 1) * p)
            if start < end:
                mask[(start - olo) >> 1 :: p] = False
        if dense < live.size:
            _scatter(mask, olo, live[dense:])
        seg = np.flatnonzero(mask).astype(np.int64, copy=False)
        seg *= 2
        seg += olo
        if lo <= 2 < end:
            seg = np.concatenate((np.array([2], dtype=np.int64), seg))
        if seg.size:
            yield seg
        lo = end


#: A base prime up to segment width / _SPARSE_MULTIPLES gets its own slice.
_SPARSE_MULTIPLES = 128
#: Fewer live sparse primes than this take the slice loop instead of ``_scatter``.
_SCATTER_MIN = 64
#: Most multiples one ``_scatter`` pass indexes, so its two int64 temporaries hold 1 MB each.
_SCATTER_CHUNK = 1 << 17


def _scatter(mask: np.ndarray, olo: int, ps: np.ndarray) -> None:
    """Strike from ``mask``, which stands for the odd numbers olo, olo + 2, ...,
    the odd multiples of each odd p in ``ps`` from max(p^2, olo) on, with one
    fancy-index store per pass.

    An odd multiple s of p sits at (s - olo) / 2, and the next one, s + 2p,
    p entries later.  A pass takes the next primes whose multiples add up to
    at most ``_SCATTER_CHUNK`` (a prime with more gets a pass of its own), so
    its index temporaries stay bounded however many primes are sparse: a
    full segment near 2^40 strikes about 0.18 * 2^21 multiples in three
    passes.
    """
    first = (np.maximum(ps * ps, (-(-olo // ps) | 1) * ps) - olo) >> 1
    counts = np.maximum(0, (mask.size - first + ps - 1) // ps)
    ends = np.cumsum(counts)
    cut = 0
    while cut < ps.size:
        done = int(ends[cut - 1]) if cut else 0
        stop = max(cut + 1, int(np.searchsorted(ends, done + _SCATTER_CHUNK, side="right")))
        p, n = ps[cut:stop], counts[cut:stop]
        runs = ends[cut:stop] - n - done  # where each prime's run starts in the pass
        # the k-th index of the pass, in the run of p, is first + (k - run) * p
        idx = np.arange(int(ends[stop - 1]) - done, dtype=np.int64)
        idx *= np.repeat(p, n)
        idx += np.repeat(first[cut:stop] - runs * p, n)
        mask[idx] = False
        cut = stop


@lru_cache(maxsize=None)
def _base_primes(bits: int, hard_cap: int) -> np.ndarray:
    """The primes below 2^bits, sieved once per bound, read-only (shared, do not mutate)."""
    arr = sieve_primes(PrimeRange(2, 1 << bits), hard_cap)
    arr.setflags(write=False)
    return arr


def sieve_primes(rng: PrimeRange, hard_cap: int = HARD_CAP) -> np.ndarray:
    """All primes in ``[rng.lo, rng.hi)`` in increasing order.

    An empty range (``hi <= lo``) yields an empty array rather than an error.
    """
    segments = list(iter_prime_segments(rng, hard_cap=hard_cap))
    if not segments:
        return np.empty(0, dtype=np.int64)
    return segments[0] if len(segments) == 1 else np.concatenate(segments)


def prime_count(rng: PrimeRange, hard_cap: int = HARD_CAP) -> int:
    """Number of primes in ``[rng.lo, rng.hi)``; equals len(sieve_primes(rng))."""
    return sum(seg.size for seg in iter_prime_segments(rng, hard_cap=hard_cap))


@lru_cache(maxsize=1)
def primes_upto(hi: int) -> np.ndarray:
    """Cached primes below ``hi`` as a read-only array (shared, do not mutate)."""
    arr = sieve_primes(PrimeRange(2, hi))
    arr.setflags(write=False)
    return arr


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check.

    The fixed witness set is proven exhaustive for n < 3.3e24; larger inputs
    are rejected rather than answered probabilistically.
    """
    if n >= _MR_LIMIT:
        raise ResourceLimitError(f"deterministic witness set only covers n < {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
