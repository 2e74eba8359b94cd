"""Splitting behaviour of rational primes in computably described Galois extensions.

Two model variants are supported:

* ``AbelianModel(modulus, residues)`` -- the subfield of the ``modulus``-th
  cyclotomic field fixed by the residue subgroup ``H``; a prime splits
  completely iff ``p mod modulus`` lies in ``H``.
* ``SplittingFieldModel(poly, galois_order, bad_primes)`` -- the splitting
  field of a monic squarefree integer polynomial ``f``; a prime splits
  completely iff ``f mod p`` factors into distinct linear factors, detected
  by the shortcut ``x^p == x (mod f, p)``.

Ramified primes (divisors of the discriminant, resp. of the modulus) are
excluded from every prime set rather than classified; they form a finite set
and never affect a density.  Polynomials are stored as coefficient tuples
with the constant term first.

Cycle types are the computable shadow of Frobenius conjugacy classes: the
multiset of factor degrees of f mod p.  Distinct classes can share a cycle
type (any two classes of equal element order do in the abelian case), so
cycle-type predicates describe unions of classes; abelian models therefore
take residue sets, which pin classes down exactly, and no finer resolution
is exposed for splitting-field models.

Two engines compute the same answers.  Single primes (``splits_completely``,
``frobenius_cycle_type``, ``in_progression``) use dense Python-int
arithmetic: square-and-multiply for x^p and distinct-degree factorization
for cycle types, exact at any size of p.  Prime arrays (``split_mask`` and
the cycle-type branch of ``SplittingPredicate.mask``) go through one batched
GF(p)[x] engine, one column per prime in blocks of ``_BLOCK`` primes: a
left-to-right ladder computes x^p mod (f, p), except when f is x^n - a,
read from its coefficients (as are x^2 + 1, x^3 - 2, x^4 + 2):
then x^n = a in GF(p)[x]/(f) makes x^p the monomial a^(p // n) x^(p mod n),
and only the power of a takes a ladder, which ``split_mask`` runs on the
primes p = 1 (mod n) alone, since no other unramified prime splits x^n - a
completely.  ``split_mask`` runs no ladder for a quadratic f of small
discriminant D: whether an odd prime p not dividing D splits f is the
symbol (D/p), which by quadratic reciprocity depends on p mod 4|D| alone,
so one table of those classes per model decides every prime.  Cycle types
come from traces:
with Q Berlekamp's matrix of the Frobenius map on GF(p)[x]/(f), tr(Q^d)
mod p is the number R(d) = sum_{k | d} k c_k of roots of f in
GF(p^d) whenever p > deg f, and Moebius inversion gives the counts c_k of
degree-k factors.  A prime p <= deg f (at most 2, 3, 5 and 7 for
deg f <= 8) goes through the single-prime distinct-degree factorization
instead.  A block runs in int64 when its largest prime is at most
``_batch_limit(deg f)``; a block with a prime too large for int64 sums runs
the same functions on an ``object`` array of Python ints.  Apart from the
excluded primes, which masks mark False, an array path raises at its first
failing prime the error that the single-prime function raises there
(``splits_completely`` for ``split_mask``, ``frobenius_cycle_type`` for
cycle types): same type, same message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (InconsistencyError, InvariantViolationError, ModelFormatError,
                     RamifiedPrimeError, ResourceLimitError)
from .primes import is_prime

_BLOCK = 8192  # primes per batched block, so the work rows stay in cache
# largest |disc f| of a quadratic f whose split masks read a symbol table of
# 4|disc f| classes; it keeps building the table below what the ladder spends
# on one block of _BLOCK primes
_SYMBOL_LIMIT = 100_000
_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1


# ---------------------------------------------------------------------------
# dense GF(p) polynomial helpers (leading coefficient first)

def _trim(f: list[int]) -> list[int]:
    i = 0
    while i < len(f) and f[i] == 0:
        i += 1
    return f[i:]


def _monic(f: list[int], p: int) -> list[int]:
    if not f or f[0] == 1:
        return f
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in f]


def _rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo a monic g, coefficients mod p."""
    f = [c % p for c in f]
    dg = len(g) - 1
    while len(f) > dg:
        lead = f[0]
        if lead:
            for i in range(1, dg + 1):
                f[i] = (f[i] - lead * g[i]) % p
        f.pop(0)
    return _trim(f)


def _divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a monic g over GF(p)."""
    f = [c % p for c in f]
    dg = len(g) - 1
    q: list[int] = []
    while len(f) > dg:
        lead = f[0]
        q.append(lead)
        if lead:
            for i in range(1, dg + 1):
                f[i] = (f[i] - lead * g[i]) % p
        f.pop(0)
    return _trim(q), _trim(f)


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd of f and g over GF(p)."""
    f, g = _monic(_trim(f), p), _monic(_trim(g), p)
    while g:
        f, g = g, _monic(_rem(f, g, p), p)
    return f


def _mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """(a * b) mod (f, p) for monic f; operands already reduced mod f."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _rem(prod, f, p)


def _pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod (f, p) by square-and-multiply."""
    result = [1]
    b = _rem(base, f, p)
    while e:
        if e & 1:
            result = _mulmod(result, b, f, p)
        e >>= 1
        if e:
            b = _mulmod(b, b, f, p)
    return result


def _desc_mod_p(poly_ascending: Sequence[int], p: int) -> list[int]:
    return _trim([c % p for c in reversed(poly_ascending)])


# ---------------------------------------------------------------------------
# exact integer discriminant via Sylvester resultant (Bareiss determinant)

def _det_bareiss(m: list[list[int]]) -> int:
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]


def _resultant(f_desc: list[int], g_desc: list[int]) -> int:
    df, dg = len(f_desc) - 1, len(g_desc) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        rows.append([0] * i + list(f_desc) + [0] * (size - i - df - 1))
    for i in range(df):
        rows.append([0] * i + list(g_desc) + [0] * (size - i - dg - 1))
    return _det_bareiss(rows)


def poly_discriminant(poly: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial (constant term first).

    >>> poly_discriminant((1, 0, 1))    # x^2 + 1
    -4
    >>> poly_discriminant((-2, 0, 0, 1))  # x^3 - 2
    -108
    """
    f = _trim([int(c) for c in reversed(poly)])
    n = len(f) - 1
    if n < 1:
        raise ValueError("polynomial must have degree >= 1")
    if f[0] != 1:
        raise ValueError("polynomial must be monic")
    if n == 1:
        return 1
    fp = [c * (n - i) for i, c in enumerate(f[:-1])]
    res = _resultant(f, _trim(fp))
    return (-1) ** (n * (n - 1) // 2) * res


# ---------------------------------------------------------------------------
# small-integer factorization (for discriminants and moduli)

def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ResourceLimitError(f"failed to factor {n}; supply bad_primes explicitly")


def prime_factors(n: int) -> frozenset[int]:
    """Set of prime divisors of |n| (n != 0)."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: set[int] = set()
    for p in (2, 3, 5):
        while n % p == 0:
            out.add(p)
            n //= p
    d = 7
    while d * d <= n and d < 100_000:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.add(m)
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return frozenset(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    val = n
    for p in prime_factors(n) if n > 1 else ():
        val = val // p * (p - 1)
    return val


# ---------------------------------------------------------------------------
# extension models

@dataclass(frozen=True)
class AbelianModel:
    """Fixed field of the residue subgroup ``residues`` inside Q(zeta_modulus)."""

    modulus: int
    residues: frozenset[int]

    @property
    def degree(self) -> int:
        return euler_phi(self.modulus) // len(self.residues)

    @property
    def bad_primes(self) -> frozenset[int]:
        return prime_factors(self.modulus) if self.modulus > 1 else frozenset()


@dataclass(frozen=True)
class SplittingFieldModel:
    """Splitting field of a monic squarefree integer polynomial."""

    poly: tuple[int, ...]  # constant term first
    galois_order: int
    bad_primes: frozenset[int]

    @property
    def poly_degree(self) -> int:
        return len(self.poly) - 1

    @property
    def degree(self) -> int:
        return self.galois_order

    @cached_property
    def discriminant(self) -> int:
        return poly_discriminant(self.poly)

    @cached_property
    def _symbol_table(self) -> np.ndarray | None:
        """``_quadratic_symbols`` of a quadratic f with |disc f| <= ``_SYMBOL_LIMIT``, else None."""
        if self.poly_degree != 2 or abs(self.discriminant) > _SYMBOL_LIMIT:
            return None
        return _quadratic_symbols(self.poly, self.discriminant)


GaloisExtensionModel = Union[AbelianModel, SplittingFieldModel]


def abelian_model(modulus: int, residues: Iterable[int]) -> AbelianModel:
    """Validated abelian extension model; ``residues`` must form a unit subgroup."""
    m = int(modulus)
    if m < 1:
        raise ModelFormatError("modulus must be a positive integer")
    res = frozenset(int(r) % m for r in residues)
    if m == 1:
        res = frozenset({0})
        return AbelianModel(1, res)
    if not res:
        raise ModelFormatError("residues must be nonempty")
    for r in res:
        if math.gcd(r, m) != 1:
            raise ModelFormatError(f"residue {r} is not a unit mod {m}")
    if 1 % m not in res:
        raise ModelFormatError("residues must contain 1")
    for a in res:
        for b in res:
            if (a * b) % m not in res:
                raise ModelFormatError(f"residues are not closed: {a}*{b} escapes mod {m}")
    if euler_phi(m) % len(res) != 0:
        raise ModelFormatError("residue set size does not divide the unit group order")
    return AbelianModel(m, res)


def splitting_field_model(
    poly: Sequence[int],
    galois_order: int,
    bad_primes: Iterable[int] | None = None,
) -> SplittingFieldModel:
    """Validated splitting-field model for a monic squarefree polynomial.

    ``galois_order`` is the caller-supplied degree of the splitting field; it
    is only checked opportunistically (observed Frobenius orders must divide
    it).  ``bad_primes`` defaults to the prime divisors of the discriminant.
    """
    coefs = [int(c) for c in poly]
    while coefs and coefs[-1] == 0:
        coefs.pop()
    if len(coefs) < 2:
        raise ModelFormatError("poly must have degree >= 1")
    if coefs[-1] != 1:
        raise ModelFormatError("poly must be monic (leading coefficient 1)")
    deg = len(coefs) - 1
    disc = poly_discriminant(coefs)
    if disc == 0:
        raise ModelFormatError("poly is not squarefree (discriminant is 0)")
    n = int(galois_order)
    if n < 1 or n % deg != 0:
        raise ModelFormatError(f"galois_order must be a positive multiple of deg f = {deg}")
    if bad_primes is None:
        bad = prime_factors(disc)
    else:
        bad = frozenset(int(p) for p in bad_primes)
    model = SplittingFieldModel(tuple(coefs), n, bad)
    model.__dict__["discriminant"] = disc  # fills the cached_property, so it is not computed again
    return model


# ---------------------------------------------------------------------------
# Frobenius cycle types

@dataclass(frozen=True)
class FrobeniusCycleType:
    """Multiset of residue-field degrees of the factors of f mod p."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive integers")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))

    @property
    def element_order(self) -> int:
        return reduce(math.lcm, self.degrees, 1)

    def __str__(self) -> str:
        return "{" + ",".join(str(d) for d in self.degrees) + "}"


def _require_unramified(model: GaloisExtensionModel, p: int) -> None:
    """Raise if p is excluded from the model or ramified in it."""
    if isinstance(model, AbelianModel):
        if model.modulus > 1 and model.modulus % p == 0:
            raise RamifiedPrimeError(f"p={p} divides the modulus {model.modulus}")
        return
    if p in model.bad_primes:
        raise RamifiedPrimeError(f"p={p} is in the model's excluded prime set")
    # for monic f, f mod p is squarefree exactly when p does not divide disc f
    if model.discriminant % p == 0:
        raise InconsistencyError(
            f"f mod {p} is not squarefree; the excluded prime set of the model is incomplete"
        )


def splits_completely(model: GaloisExtensionModel, p: int) -> bool:
    """Whether the unramified prime p splits completely in the modeled field."""
    _require_unramified(model, p)
    if isinstance(model, AbelianModel):
        return p % model.modulus in model.residues
    f = _desc_mod_p(model.poly, p)
    if len(f) - 1 <= 1:
        return True
    # f | x^p - x  <=>  x^p == x mod (f, p), valid since f mod p is squarefree
    xp = _pow_mod([1, 0], p, f, p)
    return xp == [1, 0]


def _factor_degrees(poly: Sequence[int], p: int) -> list[int]:
    """Degrees of the irreducible factors of f mod p by distinct-degree factorization.

    Exact for f squarefree mod p; the caller checks that p is unramified.
    """
    work = _desc_mod_p(poly, p)
    degrees: list[int] = []
    g = _rem([1, 0], work, p)  # x mod work
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            degrees.append(len(work) - 1)
            break
        g = _pow_mod(g, p, work, p)
        diff = [0] * (2 - len(g)) + g  # g - x, padded to degree >= 1
        diff[-2] = (diff[-2] - 1) % p
        h = _gcd(work, _trim(diff), p)
        if len(h) - 1 > 0:
            degrees.extend([d] * ((len(h) - 1) // d))
            work, rem = _divmod(work, h, p)
            if rem:  # h divides work by construction
                raise InvariantViolationError(f"gcd factor of f mod {p} left remainder {rem}")
            g = _rem(g, work, p)
    return degrees


def frobenius_cycle_type(model: SplittingFieldModel, p: int) -> FrobeniusCycleType:
    """Distinct-degree factorization shape of f mod p at an unramified prime."""
    if not isinstance(model, SplittingFieldModel):
        raise TypeError("cycle types are defined for splitting-field models only")
    _require_unramified(model, p)
    ct = FrobeniusCycleType(tuple(_factor_degrees(model.poly, p)))
    deg = model.poly_degree
    if sum(ct.degrees) != deg:
        raise InconsistencyError(f"cycle type {ct} does not sum to deg f = {deg}")
    if model.galois_order % ct.element_order != 0:
        raise InconsistencyError(
            f"observed Frobenius order {ct.element_order} at p={p} does not divide "
            f"galois_order={model.galois_order}; the supplied order is wrong"
        )
    return ct


# ---------------------------------------------------------------------------
# predicates

@dataclass(frozen=True)
class SplittingPredicate:
    """Membership test for a set of primes defined by splitting behaviour.

    ``target`` selects the mode: ``None`` tests complete splitting in every
    model (the splitting set of the compositum); a ``FrobeniusCycleType``
    tests for that factorization shape (single splitting-field model); a
    ``frozenset`` of residues tests the Frobenius residue class (single
    abelian model, residue set must be a union of cosets of the model's
    subgroup).
    """

    models: tuple[GaloisExtensionModel, ...]
    target: FrobeniusCycleType | frozenset[int] | None = None

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("predicate needs at least one model")
        if isinstance(self.target, FrobeniusCycleType):
            if len(self.models) != 1 or not isinstance(self.models[0], SplittingFieldModel):
                raise ValueError("cycle-type predicates take exactly one splitting-field model")
            if sum(self.target.degrees) != self.models[0].poly_degree:
                raise ValueError("target cycle type must sum to deg f")
        elif isinstance(self.target, frozenset):
            if len(self.models) != 1 or not isinstance(self.models[0], AbelianModel):
                raise ValueError("residue-class predicates take exactly one abelian model")
            model = self.models[0]
            m = model.modulus
            tgt = self.target
            for t in tgt:
                if math.gcd(t % m, m) != 1 and m > 1:
                    raise ValueError(f"target residue {t} is not a unit mod {m}")
                for h in model.residues:
                    if (t * h) % m not in tgt:
                        raise ValueError("target residues must be a union of cosets of the subgroup")

    @property
    def bad_primes(self) -> frozenset[int]:
        out: set[int] = set()
        for model in self.models:
            out |= model.bad_primes
        return frozenset(out)

    def __call__(self, p: int) -> bool:
        return in_progression(self, p)

    def mask(self, primes: np.ndarray) -> np.ndarray:
        """Vectorized membership over an array of primes; excluded primes give False."""
        primes = np.asarray(primes, dtype=np.int64)
        if self.target is None:
            out = np.ones(primes.shape, dtype=bool)
            for model in self.models:
                out &= split_mask(model, primes)
            return out
        if isinstance(self.target, frozenset):
            model = self.models[0]
            out = np.isin(primes % model.modulus, sorted(self.target))
            return out & ~_bad_mask(self.bad_primes, primes)
        keep = ~_bad_mask(self.bad_primes, primes)
        hits = [np.array([s == self.target for s in shapes], dtype=bool)[index]
                for _, index, shapes in _cycle_types(self.models[0], primes[keep])]
        out = np.zeros(primes.shape, dtype=bool)
        out[keep] = np.concatenate(hits or [np.zeros(0, dtype=bool)])
        return out


def intersect_splitting(models: Sequence[GaloisExtensionModel]) -> SplittingPredicate:
    """Predicate for simultaneous complete splitting (the compositum's splitting set)."""
    if not models:
        raise ValueError("need at least one model")
    return SplittingPredicate(tuple(models), None)


def cycle_type_predicate(
    model: SplittingFieldModel, degrees: Iterable[int]
) -> SplittingPredicate:
    """Predicate selecting primes whose Frobenius cycle type equals ``degrees``."""
    return SplittingPredicate((model,), FrobeniusCycleType(tuple(degrees)))


def residue_class_predicate(model: AbelianModel, residues: Iterable[int]) -> SplittingPredicate:
    """Predicate selecting primes whose residue mod the conductor lies in ``residues``."""
    m = model.modulus
    return SplittingPredicate((model,), frozenset(int(r) % m for r in residues))


def in_progression(pred: SplittingPredicate, p: int) -> bool:
    """Scalar membership of p in the generalized progression defined by ``pred``."""
    if pred.target is None:
        return all(splits_completely(model, p) for model in pred.models)
    if isinstance(pred.target, frozenset):
        model = pred.models[0]
        _require_unramified(model, p)
        return p % model.modulus in pred.target
    return frobenius_cycle_type(pred.models[0], p) == pred.target


# ---------------------------------------------------------------------------
# batched GF(p)[x] engine: arrays of shape (n, B), row i the coefficient of
# x^i, column b a residue mod the prime p[b]

def _bad_mask(bad: frozenset[int], primes: np.ndarray) -> np.ndarray:
    if not bad:
        return np.zeros(primes.shape, dtype=bool)
    return np.isin(primes, np.array(sorted(bad), dtype=np.int64))


def _mod_int(value: int, mod: np.ndarray) -> np.ndarray:
    """``value mod mod`` entrywise for a Python int of any size, in the dtype of ``mod``.

    Horner over 31-bit limbs keeps every intermediate below 2^63 for int64
    entries up to 2^32; ``object`` entries may be of any size.
    """
    n = abs(int(value))
    r = np.zeros(mod.shape, dtype=mod.dtype)
    for shift in range(n.bit_length() // _LIMB_BITS * _LIMB_BITS, -1, -_LIMB_BITS):
        r = ((r << _LIMB_BITS) + ((n >> shift) & _LIMB_MASK)) % mod
    return (-r) % mod if value < 0 else r


def _batch_limit(n: int) -> int:
    """Largest prime the engine takes in int64 for a degree-n polynomial.

    The largest sum the engine accumulates before a ``% p`` is n products of
    two residues, at most n*(p-1)^2, which must not exceed 2^63 - 1.  The
    limit is below 2^32 for every n, as ``_mod_int`` needs.  The ladder of a
    binomial x^n - a reduces once per step, after c^2 * a, a product of up
    to |a|*(p-1)^2 with a the signed residue; where that can pass 2^63 in an
    int64 block, the step also reduces c^2 first, so no product passes
    (p-1)^2.
    """
    return 1 + math.isqrt(((1 << 63) - 1) // n)


def _blocks(primes: np.ndarray, n: int):
    """Yield (offset, block) over consecutive blocks of ``_BLOCK`` primes.

    A block stays int64 when its largest prime is at most ``_batch_limit(n)``
    and becomes an ``object`` array of Python ints otherwise.
    """
    limit = _batch_limit(n)
    for start in range(0, primes.size, _BLOCK):
        block = primes[start:start + _BLOCK]
        yield start, block if int(block.max()) <= limit else block.astype(object)


def _times_x(a: np.ndarray, xn: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * a mod (f, p): a shift plus one reduction by ``xn`` = x^n mod (f, p)."""
    out = np.empty_like(a)
    out[0] = 0
    out[1:] = a[:-1]
    out += a[-1] * xn
    out %= p
    return out


def _reduction_rows(poly: Sequence[int], p: np.ndarray) -> np.ndarray:
    """x^(n+k) mod (f, p) for k = 0..n-2, shape (n-1, n, B); needs deg f = n >= 2."""
    n = len(poly) - 1
    red = np.empty((n - 1, n, p.size), dtype=p.dtype)
    red[0] = [_mod_int(-c, p) for c in poly[:-1]]
    for k in range(1, n - 1):
        red[k] = _times_x(red[k - 1], red[0], p)
    return red


def _block_mulmod(a: np.ndarray, b: np.ndarray, red: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod (f, p); each coefficient sums its (at most n) products before one ``% p``."""
    n = a.shape[0]
    conv = np.zeros((2 * n - 1, p.size), dtype=p.dtype)
    for i in range(n):
        conv[i:i + n] += a[i] * b
    conv %= p
    out = conv[:n]
    for k in range(n - 1):
        out += conv[n + k] * red[k]
    out %= p
    return out


def _x_pow_p(poly: Sequence[int], p: np.ndarray, red: np.ndarray | None = None) -> np.ndarray:
    """x^p mod (f, p) by a left-to-right ladder: square at every bit of p, times x where it is set.

    When f is x^n - a, read from its coefficients, x^n = a in
    GF(p)[x]/(f), squarefree or not, so x^p is the monomial
    a^(p // n) x^(p % n), and only the power of a needs a ladder.  Its
    steps multiply c^2 by a where the bit is set and by 1 elsewhere; with a
    taken as its signed residue, small when the coefficient is, one ``% p``
    ends each step (see ``_batch_limit`` for the bound).  For p = 1 (mod n)
    the monomial is a^((p - 1) / n) x, which is x exactly when a is an n-th
    power residue mod p.  Any other f reads the reduction rows ``red`` of
    the columns of ``p``, built here when not given.
    """
    n = len(poly) - 1
    r = np.zeros((n, p.size), dtype=p.dtype)
    if not any(poly[1:-1]):
        a = _mod_int(-poly[0], p)
        a = np.where(2 * a > p, a - p, a)
        wide = p.dtype != object and int(abs(a).max()) * (int(p.max()) - 1) ** 2 >= 1 << 63
        e, am1 = p // n, a - 1
        c, m = np.ones_like(p), np.empty_like(p)
        for bit in range(int(e.max()).bit_length() - 1, -1, -1):
            np.right_shift(e, bit, out=m)
            m &= 1
            m *= am1
            m += 1  # a where the bit is set, 1 elsewhere
            c *= c
            if wide:
                c %= p
            c *= m
            c %= p
        r[(p % n).astype(np.intp), np.arange(p.size)] = c
        return r
    if red is None:
        red = _reduction_rows(poly, p)
    r[0] = 1
    for bit in range(int(p.max()).bit_length() - 1, -1, -1):
        r = _block_mulmod(r, r, red, p)
        r = np.where(((p >> bit) & 1).astype(bool), _times_x(r, red[0], p), r)
    return r


def _quadratic_symbols(poly: Sequence[int], disc: int) -> np.ndarray:
    """The symbol (D/p) for f = x^2 + bx + c, D = b^2 - 4c, indexed by p mod 4|D| (int8).

    An odd prime p that does not divide D splits f completely exactly when
    D is a square mod p, (D/p) = 1, and by quadratic reciprocity (Ireland &
    Rosen, ch. 5) that depends on p mod 4|D| alone.  Write D = s 2^k m with
    s = +-1 and m odd and positive; then (D/p) = (s/p) (2/p)^k (m/p) and
    (m/p) = (-1)^((m-1)/2 (p-1)/2) (p/m), so (D/p) = -1 exactly when an odd
    number of these factors is -1:

    * (s/p) times the reciprocity sign, where p = 3 (mod 4) and s m = 3 (mod 4);
    * (2/p), for odd k alone, where p = 3 or 5 (mod 8);
    * (p/q) for each prime q dividing m to an odd power, where p is no square mod q.

    A class r holds a prime dividing D exactly when gcd(r, D) > 1; its
    entry is 0.  Class 2 holds p = 2 alone, outside reciprocity: for odd D
    its entry is +1 or -1 as x^2 == x mod (f, 2) or not, the test of
    ``splits_completely``.  The other classes hold no prime.
    """
    size = 4 * abs(disc)
    k = (size & -size).bit_length() - 3
    m = abs(disc) >> k
    # each pattern has a period dividing size, so rows of that period line it up
    flip = np.zeros(size, dtype=bool)
    if (m if disc > 0 else -m) % 4 == 3:
        flip.reshape(-1, 4)[:, 3] ^= True
    if k % 2:
        flip.reshape(-1, 8)[:, [3, 5]] ^= True
    factors = prime_factors(disc)
    for q in factors - {2}:
        e, rest = 0, m
        while rest % q == 0:
            e, rest = e + 1, rest // q
        if e % 2:
            nonresidue = np.ones(q, dtype=bool)
            nonresidue[np.arange(q) ** 2 % q] = False
            flip.reshape(-1, q)[...] ^= nonresidue
    table = 1 - 2 * flip.view(np.int8)
    for q in factors:
        table.reshape(-1, q)[:, 0] = 0
    if not k:
        table[2] = 1 if _pow_mod([1, 0], 2, _desc_mod_p(poly, 2), 2) == [1, 0] else -1
    return table


def split_mask(model: GaloisExtensionModel, primes: np.ndarray) -> np.ndarray:
    """Complete-splitting mask over an array of primes; excluded primes give False.

    When f is x^n - a, read from its coefficients, an unramified p splits
    completely only if p = 1 (mod n): the ratios of n distinct roots of
    x^n - a in GF(p) are n distinct n-th roots of unity, so n | p - 1.  Then
    it splits exactly when a^((p - 1) / n) = 1, the n-th power residue
    criterion (Ireland & Rosen, Prop. 4.2.1).  Only those columns run the
    ladder; the others are False without arithmetic.  The check for a
    missing ramified prime runs on the whole block first.

    A quadratic f with |disc f| <= ``_SYMBOL_LIMIT`` runs no ladder: its
    model builds, on the first mask, the table of (D/p) over the classes
    mod 4|D| (``_quadratic_symbols``, by quadratic reciprocity), and each
    call reads the symbols with one ``%`` and a gather per block of
    ``_BLOCK`` primes, in int64 at any size of p.  Symbol 0 marks the
    primes dividing D, where a prime missing from ``bad_primes`` raises as
    on the ladder route, at the first such prime of the array; p = 2,
    outside reciprocity, reads the class 2 entry, which holds the
    ``splits_completely`` test there.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if isinstance(model, AbelianModel):
        m = model.modulus
        mask = np.isin(primes % m, sorted(model.residues))
        return mask & ~_bad_mask(model.bad_primes, primes)
    mask = ~_bad_mask(model.bad_primes, primes)
    table = model._symbol_table
    if table is not None:
        for start in range(0, primes.size, _BLOCK):
            part, p = mask[start:start + _BLOCK], primes[start:start + _BLOCK]
            symbol = table[p % table.size]
            missed = part & (symbol == 0)
            if missed.any():
                _require_unramified(model, int(p[missed.argmax()]))  # raises InconsistencyError
            part &= symbol == 1
        return mask
    n = model.poly_degree
    binomial = not any(model.poly[1:-1])
    for start, p in _blocks(primes, n):
        part = mask[start:start + _BLOCK]
        missed = part & (_mod_int(model.discriminant, p) == 0)
        if missed.any():
            _require_unramified(model, int(p[missed.argmax()]))  # raises InconsistencyError
        if n == 1:
            continue
        if binomial:
            part &= p % n == 1
        if part.any():
            xp = _x_pow_p(model.poly, p[part])
            # f | x^p - x, valid since f mod p is squarefree
            part[part] = (xp[1] == 1) & ~np.delete(xp, 1, axis=0).any(axis=0)
    return mask


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-column product of (n, n) matrices mod p, shape (n, n, B)."""
    out = np.zeros_like(a)
    for j in range(a.shape[1]):
        out += a[:, j, None] * b[j]
    out %= p
    return out


def _block_cycle_counts(model: SplittingFieldModel, p: np.ndarray) -> tuple[np.ndarray, int]:
    """Counts c_k (shape (n, B)) of one block and the index of its first failing column.

    R(d) = sum_{k | d} k c_k, the number of roots of f in GF(p^d), is
    tr(Q^d) mod p: on a factor GF(p^k) of GF(p)[x]/(f) the Frobenius permutes
    a normal basis cyclically, so Q^d has trace k if k | d and 0 otherwise.
    For p > n that residue is R(d) itself, and k c_k = R(k) minus the terms
    j c_j of the proper divisors j of k (Moebius inversion).  A column with
    p <= n takes its degrees from ``_factor_degrees`` instead.

    A column fails where ``frobenius_cycle_type`` would raise or where its
    counts are no cycle type; the index is B if no column fails.
    """
    n = model.poly_degree
    q = np.zeros((n, n, p.size), dtype=p.dtype)  # row i: x^(ip) mod (f, p)
    q[0, 0] = 1
    if n > 1:
        # Q rows 2..n-1 read the reduction rows, so only n > 2 builds them here
        red = _reduction_rows(model.poly, p) if n > 2 else None
        q[1] = _x_pow_p(model.poly, p, red)
        for i in range(2, n):
            q[i] = _block_mulmod(q[i - 1], q[1], red, p)
    roots = np.empty((n, p.size), dtype=np.int64)
    power = q
    for d in range(n):
        if d:
            power = _matmul_mod(power, q, p)
        roots[d] = np.trace(power) % p
    ramified = _bad_mask(model.bad_primes, p) | (_mod_int(model.discriminant, p) == 0)
    for j in np.flatnonzero((p <= n) & ~ramified):  # there tr(Q^d) mod p loses R(d)
        degrees = _factor_degrees(model.poly, int(p[j]))
        roots[:, j] = [sum(k for k in degrees if d % k == 0) for d in range(1, n + 1)]
    kc = roots.copy()  # row k-1 becomes k c_k
    for k in range(2, n + 1):
        kc[k - 1] -= kc[[j - 1 for j in range(1, k) if k % j == 0]].sum(axis=0)
    weights = np.arange(1, n + 1)[:, None]
    counts = kc // weights
    # every cycle type has R(d) <= n; a larger residue is checked by itself,
    # since it could wrap the int64 sums
    broken = ((roots > n) | (kc % weights != 0) | (kc < 0)).any(axis=0) | (kc.sum(axis=0) != n)
    # the Frobenius order, the lcm of the factor degrees, divides galois_order
    # exactly when every factor degree does
    misfit = [model.galois_order % k != 0 for k in range(1, n + 1)]
    fail = ramified | broken | (counts[misfit] > 0).any(axis=0)
    return counts, int(fail.argmax()) if fail.any() else p.size


def _cycle_types(model: SplittingFieldModel, primes: np.ndarray):
    """Frobenius cycle types of f mod p over an array of primes, a block at a time.

    Yields ``(block, index, shapes)`` for consecutive blocks of the array:
    ``shapes`` are the block's distinct ``FrobeniusCycleType``s and block[i]
    has the cycle type ``shapes[index[i]]``.  At the first prime where a
    check fails, the primes before it are yielded and then
    ``frobenius_cycle_type`` raises its own error at that prime; should it
    return instead, the engine disagrees with it, an invariant violation.
    """
    primes = np.asarray(primes, dtype=np.int64)
    n = model.poly_degree
    for start, p in _blocks(primes, n):
        counts, j = _block_cycle_counts(model, p)
        # every c_k of a cycle type is at most n, so the digits c_k in base n + 1 name it
        keys = (n + 1) ** np.arange(n) @ counts[:, :j]
        _, first, index = np.unique(keys, return_index=True, return_inverse=True)
        shapes = [FrobeniusCycleType(tuple(k for k, c in enumerate(col, 1) for _ in range(c)))
                  for col in counts[:, first].T.tolist()]
        yield primes[start:start + j], index, shapes
        if j < p.size:
            prime = int(p[j])
            truth = frobenius_cycle_type(model, prime)
            raise InvariantViolationError(
                f"the batched engine gives counts {counts[:, j].tolist()} at p={prime}, "
                f"not the cycle type {truth}"
            )


def ramified_primes_in(
    subject: GaloisExtensionModel | SplittingPredicate, lo: int, hi: int
) -> list[int]:
    """Excluded (ramified/bad) primes of the model(s) that fall in [lo, hi)."""
    return sorted(p for p in subject.bad_primes if lo <= p < hi)


# ---------------------------------------------------------------------------
# model description files (JSON)

def model_from_dict(data: dict) -> GaloisExtensionModel:
    """Build a model from its JSON-compatible description."""
    if not isinstance(data, dict):
        raise ModelFormatError("model description must be an object")
    variant = data.get("variant")
    if variant == "abelian":
        for field in ("modulus", "residues"):
            if field not in data:
                raise ModelFormatError(f"abelian model requires field '{field}'")
        return abelian_model(data["modulus"], data["residues"])
    if variant == "splitting_field":
        for field in ("poly", "galois_order"):
            if field not in data:
                raise ModelFormatError(f"splitting_field model requires field '{field}'")
        return splitting_field_model(
            data["poly"], data["galois_order"], data.get("bad_primes")
        )
    raise ModelFormatError(
        f"unknown variant {variant!r}: expected 'abelian' or 'splitting_field'"
    )


def model_to_dict(model: GaloisExtensionModel) -> dict:
    if isinstance(model, AbelianModel):
        return {
            "variant": "abelian",
            "modulus": model.modulus,
            "residues": sorted(model.residues),
        }
    return {
        "variant": "splitting_field",
        "poly": list(model.poly),
        "galois_order": model.galois_order,
        "bad_primes": sorted(model.bad_primes),
    }


def load_model(path: str) -> GaloisExtensionModel:
    """Read a model description file, reporting parse diagnostics on failure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    try:
        return model_from_dict(data)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
