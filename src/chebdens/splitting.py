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

# Vectorized modular arithmetic keeps products of two residues inside int64.
_VECTOR_PRIME_LIMIT = 1 << 26
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
    f, g = _trim(f[:]), _trim(g[:])
    while g:
        f, g = g, _rem(_monic(f, p), _monic(g, p), p)
        g = _monic(g, p)
        f = _monic(f, p)
    return _monic(f, p)


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
    return SplittingFieldModel(tuple(coefs), n, bad)


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
    if isinstance(model, AbelianModel):
        if model.modulus > 1 and model.modulus % p == 0:
            raise RamifiedPrimeError(f"p={p} divides the modulus {model.modulus}")
    else:
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


def frobenius_cycle_type(model: SplittingFieldModel, p: int) -> FrobeniusCycleType:
    """Distinct-degree factorization shape of f mod p at an unramified prime."""
    if not isinstance(model, SplittingFieldModel):
        raise TypeError("cycle types are defined for splitting-field models only")
    _require_unramified(model, p)
    f = _desc_mod_p(model.poly, p)
    deg = len(f) - 1
    degrees: list[int] = []
    work = f
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
    ct = FrobeniusCycleType(tuple(degrees))
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
        model = self.models[0]
        out = np.zeros(primes.shape, dtype=bool)
        bad = self.bad_primes
        for i, p in enumerate(primes.tolist()):
            if p in bad:
                continue
            out[i] = frobenius_cycle_type(model, p) == self.target
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
# vectorized complete-splitting masks

def _bad_mask(bad: frozenset[int], primes: np.ndarray) -> np.ndarray:
    if not bad:
        return np.zeros(primes.shape, dtype=bool)
    return np.isin(primes, np.array(sorted(bad), dtype=np.int64))


def _mod_int(value: int, mod: np.ndarray) -> np.ndarray:
    """``value mod mod`` entrywise for a Python int of any size; mod entries <= 2^32.

    Horner over 31-bit limbs keeps every intermediate below 2^63.
    """
    n = abs(int(value))
    r = np.zeros(mod.shape, dtype=np.int64)
    for shift in range(n.bit_length() // _LIMB_BITS * _LIMB_BITS, -1, -_LIMB_BITS):
        r = ((r << _LIMB_BITS) + ((n >> shift) & _LIMB_MASK)) % mod
    return (-r) % mod if value < 0 else r


def _poly_mulmod_vec(
    a: np.ndarray, b: np.ndarray, fred: np.ndarray, mod: np.ndarray
) -> np.ndarray:
    """Columnwise (a*b) mod (f, p): a, b, fred are (deg, N), mod is (N,)."""
    n = a.shape[0]
    conv = [np.zeros(mod.shape, dtype=np.int64) for _ in range(2 * n - 1)]
    for i in range(n):
        ai = a[i]
        for j in range(n):
            conv[i + j] = (conv[i + j] + ai * b[j]) % mod
    for k in range(2 * n - 2, n - 1, -1):
        top = conv[k]
        for i in range(n):
            conv[k - n + i] = (conv[k - n + i] - top * fred[i]) % mod
    return np.stack(conv[:n])


def _splits_mask_vec(poly: Sequence[int], primes: np.ndarray) -> np.ndarray:
    """x^p == x mod (f, p) for every column prime at once (int64-safe range)."""
    n = len(poly) - 1
    npr = primes.shape[0]
    if n <= 1 or npr == 0:
        return np.ones(npr, dtype=bool)
    mod = primes.astype(np.int64)
    fred = np.empty((n, npr), dtype=np.int64)
    for i in range(n):
        fred[i] = _mod_int(poly[i], mod)
    res = np.zeros((n, npr), dtype=np.int64)
    res[0] = 1
    base = np.zeros((n, npr), dtype=np.int64)
    base[1] = 1
    exp = mod.copy()
    maxbits = int(mod.max()).bit_length()
    for bit in range(maxbits):
        odd = (exp & 1).astype(bool)
        if odd.any():
            res[:, odd] = _poly_mulmod_vec(res[:, odd], base[:, odd], fred[:, odd], mod[odd])
        exp >>= 1
        if not exp.any():
            break
        base = _poly_mulmod_vec(base, base, fred, mod)
    ok = res[1] == 1
    for i in range(n):
        if i != 1:
            ok &= res[i] == 0
    return ok


def split_mask(model: GaloisExtensionModel, primes: np.ndarray) -> np.ndarray:
    """Complete-splitting mask over an array of primes; excluded primes give False."""
    primes = np.asarray(primes, dtype=np.int64)
    if isinstance(model, AbelianModel):
        m = model.modulus
        mask = np.isin(primes % m, sorted(model.residues))
        return mask & ~_bad_mask(model.bad_primes, primes)
    bad = _bad_mask(model.bad_primes, primes)
    small = primes < _VECTOR_PRIME_LIMIT
    mask = np.zeros(primes.shape, dtype=bool)
    if small.any():
        low = primes[small]
        missed = (_mod_int(model.discriminant, low) == 0) & ~bad[small]
        if missed.any():
            _require_unramified(model, int(low[missed][0]))  # raises InconsistencyError
        mask[small] = _splits_mask_vec(model.poly, low)
    if (~small).any():
        for idx in np.flatnonzero(~small):
            p = int(primes[idx])
            if p not in model.bad_primes:
                mask[idx] = splits_completely(model, p)
    return mask & ~bad


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
