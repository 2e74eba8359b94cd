"""Exact-rational calculus for densities of prime sets.

Every operation here manipulates exact rationals in [0, 1]; no floating
point enters this module.  Floats from the empirical estimators must be
converted explicitly (natural estimates expose an exact member/total
fraction for this purpose).

The tower operations model a degree-m Galois base extension M with r
further extensions of degree t over M that are linearly disjoint over M, so
a compositum of any ell of them has degree m * t^ell and its
complete-splitting set has density 1 / (m * t^ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import ContainmentError, InconsistencyError


def _pick_coprime_constructor():
    """The fastest way this interpreter offers to build a Fraction from a
    pair already in lowest terms, and the name of that branch."""
    if hasattr(Fraction, "_from_coprime_ints"):  # CPython 3.12+
        return "_from_coprime_ints", Fraction._from_coprime_ints
    try:  # CPython 3.10/3.11
        Fraction(1, 1, _normalize=False)
    except TypeError:
        return "Fraction", Fraction
    return "_normalize=False", lambda n, d: Fraction(n, d, _normalize=False)


_COPRIME_BRANCH, _coprime_constructor = _pick_coprime_constructor()


def _coprime_fraction(n: int, d: int) -> Fraction:
    """Fraction n/d without the gcd that normalisation would spend.

    The caller guarantees gcd(n, d) == 1 and d > 0, so n/d is already in
    lowest terms; every call site states the reason.  This is the only place
    in the package that builds a Fraction without normalising it.
    """
    return _coprime_constructor(n, d)


def _reciprocal_sum(denominators: Sequence[int]) -> tuple[int, int]:
    """(N, D) with N/D = sum of 1/d over ``denominators``, by a product tree.

    Pairs merge as N = N_L*D_R + N_R*D_L, D = D_L*D_R, so operand sizes stay
    balanced and no gcd is taken (Bernstein, "Fast multiplication and its
    applications", 2008).  D is the product of all denominators; when they
    are pairwise coprime the pair is in lowest terms, since N is congruent
    to the product of the other denominators modulo each one.
    """
    items = [(1, d) for d in denominators] or [(0, 1)]
    while len(items) > 1:
        merged = [(nl * dr + nr * dl, dl * dr) for (nl, dl), (nr, dr) in zip(items[::2], items[1::2])]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def as_density(value) -> Fraction:
    """Coerce to an exact density in [0, 1]; floats are refused on purpose."""
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted here; convert explicitly (e.g. via the "
            "exact member/total fraction of a natural estimate)"
        )
    d = Fraction(value)
    if not 0 <= d <= 1:
        raise ValueError(f"density must lie in [0, 1], got {d}")
    return d


@dataclass(frozen=True)
class TowerSpec:
    """Degrees of a linearly disjoint tower: [M:K] = m, [P_i:M] = t, i <= r."""

    m: int
    t: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.t < 2:
            raise ValueError("t must be >= 2")
        if self.r < 1:
            raise ValueError("r must be >= 1")


@dataclass(frozen=True)
class ThetaBound:
    """A selection margin theta and the guaranteed per-index lower bound.

    ``vacuous`` marks theta <= 0: the bound then carries no information and
    callers must enlarge their configuration until theta is positive.
    """

    theta: Fraction
    bound: Fraction
    vacuous: bool


def union_upper_bound(da, db) -> Fraction:
    """Upper density of a union is at most the sum, clamped at 1."""
    return min(as_density(da) + as_density(db), Fraction(1))


def pigeonhole_threshold(epsilon, r: int) -> Fraction:
    """If a union of r sets has upper density >= epsilon, some member has >= epsilon/r."""
    eps = as_density(epsilon)
    if eps == 0:
        raise ValueError("epsilon must be positive for the pigeonhole bound")
    r = int(r)
    if r < 1:
        raise ValueError("r must be a positive integer")
    return eps / r


def intersection_lower_bound(da, db, dc) -> Fraction:
    """Lower bound d(A) + d(B) - d(C) for sets A, B contained in C."""
    da, db, dc = as_density(da), as_density(db), as_density(dc)
    if da > dc or db > dc:
        raise ContainmentError(
            f"constituents must fit inside the ambient set: {da}, {db} vs {dc}"
        )
    return max(da + db - dc, Fraction(0))


def selection_lower_bound(da0, dunion, dc, r: int) -> ThetaBound:
    """Margin theta = d(A0) + d(A1 u ... u Ar) - d(C) and the bound theta/r.

    Some index i (not identified) has d(A0 n Ai) at least theta/r when theta
    is positive; a nonpositive theta is reported as-is and flagged vacuous.
    """
    da0, dunion, dc = as_density(da0), as_density(dunion), as_density(dc)
    if da0 > dc or dunion > dc:
        raise ContainmentError(
            f"constituents must fit inside the ambient set: {da0}, {dunion} vs {dc}"
        )
    r = int(r)
    if r < 1:
        raise ValueError("r must be a positive integer")
    theta = da0 + dunion - dc
    return ThetaBound(theta, max(theta, Fraction(0)) / r, theta <= 0)


def _normalize_subset_key(key) -> frozenset[int]:
    if isinstance(key, int):
        return frozenset({key})
    return frozenset(int(i) for i in key)


def inclusion_exclusion_density(
    intersection_densities: Mapping[object, object],
) -> Fraction:
    """Alternating-sign union density from all nonempty intersection densities.

    Keys are nonempty subsets of {1, ..., r} (any iterable of indices, or a
    bare int for singletons); all 2^r - 1 subsets must be present, and the
    assignment must be monotone (larger subsets cannot have larger density).
    """
    table = {_normalize_subset_key(k): as_density(v) for k, v in intersection_densities.items()}
    indices = sorted(set().union(*table.keys())) if table else []
    if not indices:
        raise ValueError("at least one subset density is required")
    r = len(indices)
    if indices != list(range(1, r + 1)):
        raise ValueError(f"indices must be exactly 1..r, got {indices}")
    for size in range(1, r + 1):
        for combo in combinations(indices, size):
            if frozenset(combo) not in table:
                raise ValueError(f"missing density for subset {set(combo)}")
    for subset, value in table.items():
        for i in subset:
            smaller = subset - {i}
            if smaller and table[smaller] < value:
                raise InconsistencyError(
                    f"monotonicity violated: d({set(subset)}) = {value} exceeds "
                    f"d({set(smaller)}) = {table[smaller]}"
                )
    total = Fraction(0)
    for subset, value in table.items():
        total += value if len(subset) % 2 else -value
    return total


def truncated_inclusion_exclusion_check(
    sets: Sequence[Iterable[int]], s: int
) -> tuple[bool, Fraction]:
    """Exact check of the inclusion-exclusion identity for truncated zeta sums.

    Both sides of ``xi_{A1 u ... u Ar}(s) = sum (-1)^(l-1) xi_{intersections}(s)``
    are evaluated with rational arithmetic; returns (equal, lhs - rhs).  The
    identity is pure set algebra, so the residual is 0 for every input.
    """
    s = int(s)
    if s < 2:
        raise ValueError("s must be an integer >= 2 for the exact check")
    families = [frozenset(int(p) for p in member_set) for member_set in sets]
    if not families:
        raise ValueError("need at least one set")
    for fam in families:
        if any(p < 2 for p in fam):
            raise ValueError("set members must be integers >= 2")

    def xi(members: frozenset[int]) -> Fraction:
        return Fraction(*_reciprocal_sum([p**s for p in sorted(members)]))

    union: frozenset[int] = frozenset().union(*families)
    lhs = xi(union)
    rhs = Fraction(0)
    r = len(families)
    for size in range(1, r + 1):
        sign = 1 if size % 2 else -1
        for combo in combinations(range(r), size):
            inter = families[combo[0]]
            for idx in combo[1:]:
                inter = inter & families[idx]
            rhs += sign * xi(inter)
    residual = lhs - rhs
    return residual == 0, residual


def _over_tower_degree(n: int, spec: TowerSpec) -> Fraction:
    """n / (m * t^r) in lowest terms, for n prime to t.

    The only common factor is then g = gcd(n, m); dividing it out avoids the
    gcd of two integers of about r * log2(t) bits that Fraction(n, m * t^r)
    would take.
    """
    g = math.gcd(n, spec.m)
    return _coprime_fraction(n // g, spec.m // g * spec.t**spec.r)


def disjoint_union_density(spec: TowerSpec) -> Fraction:
    """Density of the union of the r complete-splitting sets: (1 - (1 - 1/t)^r) / m.

    The numerator t^r - (t-1)^r is prime to t because (t-1)^r is, so the
    result is built in lowest terms by ``_over_tower_degree``.
    """
    t, r = spec.t, spec.r
    return _over_tower_degree(t**r - (t - 1) ** r, spec)


def tower_theta(d_overlap, spec: TowerSpec) -> ThetaBound:
    """Selection margin for a set S against the tower's splitting sets.

    Given d(S n Spl(M/K)) = d_overlap, theta = d_overlap - (1 - 1/t)^r / m;
    when positive, some tower extension P_i has upper density of
    S n Spl(P_i/K) at least theta/r.

    The subtrahend (t-1)^r / (m * t^r) is built in lowest terms by
    ``_over_tower_degree``, since gcd(t-1, t) = 1.
    """
    d_overlap = as_density(d_overlap)
    ambient = Fraction(1, spec.m)
    if d_overlap > ambient:
        raise InconsistencyError(
            f"d(S n Spl(M/K)) = {d_overlap} exceeds d(Spl(M/K)) = {ambient}"
        )
    theta = d_overlap - _over_tower_degree((spec.t - 1) ** spec.r, spec)
    return ThetaBound(theta, max(theta, Fraction(0)) / spec.r, theta <= 0)


def compositum_degree(spec: TowerSpec, ell: int) -> int:
    """Degree m * t^ell of a compositum of ell of the tower extensions."""
    ell = int(ell)
    if not 1 <= ell <= spec.r:
        raise ValueError(f"ell must lie in [1, {spec.r}], got {ell}")
    return spec.m * spec.t**ell
