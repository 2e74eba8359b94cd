"""Independent arithmetic that the benchmark checks chebdens outputs against.

Nothing here calls into chebdens.  Splitting is decided by classical
criteria (residue classes, Euler's criterion, cubic and quartic residue
tests) evaluated with NumPy modular exponentiation, by a root count
deg gcd(x^p - x, f) computed with plain Python lists, and by
Stickelberger's theorem, which fixes the parity of the number of factors
of f mod p from the Legendre symbol of the discriminant.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

#: pi(10^k), the prime counting function at powers of ten.
PRIME_PI = {10**2: 25, 10**3: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498, 10**7: 664579}

#: (Weyl group order w, number of conjugacy classes c) by type label.
WEYL_TABLE = {
    "A1": (2, 2), "A2": (6, 3), "A3": (24, 5), "A4": (120, 7), "A5": (720, 11),
    "A6": (5040, 15), "A7": (40320, 22),
    "B2": (8, 5), "B3": (48, 10), "B4": (384, 20), "B5": (3840, 36),
    "C3": (48, 10), "C4": (384, 20),
    "D4": (192, 13), "D5": (1920, 18), "D6": (23040, 37),
    "G2": (12, 6), "F4": (1152, 25),
    "E6": (51840, 25), "E7": (2903040, 60), "E8": (696729600, 112),
}

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime witnesses (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) from an odd-only sieve of the window."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    start = lo | 1  # first odd number >= lo
    flags = np.ones(max(0, (hi - start + 1) // 2), dtype=bool)  # flags[i] <-> start + 2i
    for q in np.flatnonzero(small).tolist():
        if q == 2:
            continue
        first = max(q * q, (start + q - 1) // q * q)
        if first % 2 == 0:
            first += q
        if first < hi:
            flags[(first - start) // 2 :: q] = False
    odd = start + 2 * np.flatnonzero(flags).astype(np.int64)
    odd = odd[odd > 1]
    if lo <= 2 < hi:
        return np.concatenate([np.array([2], dtype=np.int64), odd])
    return odd


def powmod(base: int, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod mod for moduli below 2^31 (products fit int64)."""
    mod = np.asarray(mod, dtype=np.int64)
    if mod.size and int(mod.max()) >= 1 << 31:
        raise ValueError("powmod needs moduli below 2^31")
    b = np.asarray(base, dtype=np.int64) % mod
    e = np.array(exp, dtype=np.int64, copy=True)
    result = np.ones_like(mod)
    while e.any():
        odd = (e & 1).astype(bool)
        result = np.where(odd, result * b % mod, result)
        b = b * b % mod
        e >>= 1
    return result


def splits_x2_plus_1(p: np.ndarray) -> np.ndarray:
    return p % 4 == 1


def splits_x2_minus(q: int, p: np.ndarray) -> np.ndarray:
    """x^2 - q splits mod odd p not dividing q iff q is a square (Euler)."""
    return powmod(q, (p - 1) // 2, p) == 1


def splits_x3_minus_2(p: np.ndarray) -> np.ndarray:
    """x^3 - 2 splits mod p > 3 iff p = 1 mod 3 and 2 is a cube mod p."""
    return (p % 3 == 1) & (powmod(2, (p - 1) // 3, p) == 1)


def splits_x4_plus_2(p: np.ndarray) -> np.ndarray:
    """x^4 + 2 splits mod odd p iff p = 1 mod 4 and -2 is a fourth power mod p."""
    return (p % 4 == 1) & (powmod(-2, (p - 1) // 4, p) == 1)


# ---------------------------------------------------------------------------
# GF(p)[x] with coefficient lists, lowest degree first

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polyrem(a: list[int], f: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    inv = pow(f[-1], -1, p)
    df = len(f) - 1
    while len(_trim(a)) - 1 >= df:
        shift = len(a) - 1 - df
        q = a[-1] * inv % p
        for i, c in enumerate(f):
            a[shift + i] = (a[shift + i] - q * c) % p
    return a


def _polymulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _polyrem(out, f, p)


def root_count(poly: tuple[int, ...], p: int) -> int:
    """Number of distinct roots of f mod p, as deg gcd(x^p - x, f)."""
    f = _trim([c % p for c in poly])
    result, base, e = [1], _polyrem([0, 1], f, p), p
    while e:
        if e & 1:
            result = _polymulmod(result, base, f, p)
        base = _polymulmod(base, base, f, p)
        e >>= 1
    g = result + [0] * max(0, 2 - len(result))
    g[1] -= 1
    a, b = f, _trim([c % p for c in g])
    while b:
        a, b = b, _trim(_polyrem(a, b, p))
    return len(a) - 1


def kronecker(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p not dividing d."""
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1


def factor_parity_ok(disc: int, degree: int, p: int, factors: int) -> bool:
    """Stickelberger: (disc/p) = (-1)^(deg f - number of factors of f mod p)."""
    return kronecker(disc, p) == (-1) ** (degree - factors)


# ---------------------------------------------------------------------------
# exact constants

def tower_condition(m: int, t: int, r: int, omega: Fraction) -> bool:
    """(1/m) * (1 - 1/t)^r < omega/2, in exact rationals."""
    return Fraction(1, m) * Fraction(t - 1, t) ** r < omega / 2


def tower_condition_log(m: int, t: int, r: int, omega: Fraction) -> bool:
    """The same condition decided in 60-digit logarithms, for r too large to expand."""
    with localcontext() as ctx:
        ctx.prec = 60
        lhs = Decimal(r) * (Decimal(t - 1) / Decimal(t)).ln() - Decimal(m).ln()
        rhs = (Decimal(omega.numerator) / Decimal(2 * omega.denominator)).ln()
        return lhs < rhs


def is_minimal_tower_count(m: int, t: int, r: int, omega: Fraction) -> bool:
    """r >= 1 satisfies the tower condition and r - 1 does not (or r = 1)."""
    cond = tower_condition if r <= 200_000 else tower_condition_log
    return r >= 1 and cond(m, t, r, omega) and (r == 1 or not cond(m, t, r - 1, omega))


def partial_zeta_naive(members: list[int], s: int) -> Fraction:
    """Sum of 1/p^s over the members, added one term at a time."""
    total = Fraction(0)
    for p in members:
        total += Fraction(1, p**s)
    return total
