"""Irreducible root systems and their Weyl group constants (rank, order, classes).

Each system is realized with exact integer coordinates in a standard ambient
lattice; systems whose textbook realization uses half-integers (E and F
families) are scaled by 2, which changes nothing about the Weyl group.  The
full root set is generated as the closure of the simple roots under the
simple reflections, which act as permutations of the root list.

Group orders come from the product of the invariant degrees d_i, and root
counts from 2 * sum(d_i - 1), which checks the generated roots.  Class counts:

* A_n: partitions of n+1 (cycle types of the symmetric group S_{n+1});
* B_n, C_n: pairs of partitions (a, b) with |a| + |b| = n (signed cycle
  types);
* D_n: pairs (a, b) with |a| + |b| = n and b having an even number of
  parts, counting pairs with b empty and a consisting of even parts twice
  (such classes split in the index-2 subgroup);
* exceptional types: fixed table (G2: 6, F4: 25, E6: 25, E7: 60, E8: 112).

A brute-force enumeration oracle (BFS closure of the simple reflections on
the images of the simple roots, orbit partition under conjugation by index
gathers in its Cayley table) cross-checks every table entry small enough to
enumerate; the cap keeps E7/E8 out of its reach by default, and a memory
budget keeps E8 out at any cap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolationError, ResourceLimitError

#: Largest group order the enumeration oracle will attempt by default.
DEFAULT_ENUMERATION_CAP = 10**6

_EXCEPTIONAL_CLASS_COUNTS = {("G", 2): 6, ("F", 4): 25, ("E", 6): 25, ("E", 7): 60, ("E", 8): 112}
_EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


@dataclass(frozen=True)
class RootSystemType:
    """An irreducible type: family letter plus rank, validated as a pair."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam, n = self.family, self.rank
        valid = (
            (fam == "A" and n >= 1)
            or (fam in ("B", "C") and n >= 2)
            or (fam == "D" and n >= 4)
            or (fam, n) in _EXCEPTIONAL_DEGREES
        )
        if not valid:
            raise ValueError(f"invalid irreducible type {fam}{n}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_type(text: str | RootSystemType) -> RootSystemType:
    """Parse labels like 'A1', 'D4', 'E8' (case-insensitive)."""
    if isinstance(text, RootSystemType):
        return text
    match = re.fullmatch(r"([A-Ga-g])\s*_?\s*(\d+)", text.strip())
    if not match:
        raise ValueError(f"cannot parse root-system type {text!r}")
    return RootSystemType(match.group(1).upper(), int(match.group(2)))


@dataclass(frozen=True)
class RootSystemData:
    """A realized root system with its Weyl constants."""

    type: RootSystemType
    roots: tuple[tuple[int, ...], ...]
    simple_roots: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    w: int
    c: int

    @property
    def d(self) -> int:
        return self.type.rank


class GroupConstants(NamedTuple):
    d: int
    w: int
    c: int
    t: int


# ---------------------------------------------------------------------------
# combinatorics for class counts

@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Number of partitions of n (p(0) = 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def _partitions_with_exact_parts(n: int) -> list[list[int]]:
    """counts[k][j] = partitions of k into exactly j parts, for k <= n."""
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    counts[0][0] = 1
    # recurrence: partitions of k into exactly j parts = (with a part 1) + (all parts >= 2)
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            counts[k][j] = counts[k - 1][j - 1] + (counts[k - j][j] if k - j >= 0 else 0)
    return counts


def class_count(rst_type: RootSystemType) -> int:
    """Number of conjugacy classes of the Weyl group of the given type."""
    fam, n = rst_type.family, rst_type.rank
    if fam == "A":
        return partition_count(n + 1)
    if fam in ("B", "C"):
        return sum(partition_count(k) * partition_count(n - k) for k in range(n + 1))
    if fam == "D":
        exact = _partitions_with_exact_parts(n)
        total = 0
        for k in range(n + 1):
            for j in range(0, k + 1, 2):
                total += exact[k][j] * partition_count(n - k)
        split_extra = partition_count(n // 2) if n % 2 == 0 else 0
        return total + split_extra
    return _EXCEPTIONAL_CLASS_COUNTS[(fam, n)]


def invariant_degrees(rst_type: RootSystemType) -> tuple[int, ...]:
    """Degrees of the basic invariants; their product is the group order."""
    fam, n = rst_type.family, rst_type.rank
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    return _EXCEPTIONAL_DEGREES[(fam, n)]


def weyl_order(rst_type: RootSystemType) -> int:
    return math.prod(invariant_degrees(rst_type))


def expected_root_count(rst_type: RootSystemType) -> int:
    """2 * sum(d_i - 1): twice the number of positive roots, read off the degrees."""
    return 2 * sum(deg - 1 for deg in invariant_degrees(rst_type))


# ---------------------------------------------------------------------------
# realization

def _simple_root_vectors(rst_type: RootSystemType) -> list[tuple[int, ...]]:
    fam, n = rst_type.family, rst_type.rank
    if fam in ("A", "B", "C", "D"):
        # the chain e_i - e_{i+1}, then B, C and D close it with one more root
        dim = n + 1 if fam == "A" else n
        alphas = []
        for i in range(dim - 1):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            alphas.append(v)
        if fam != "A":
            last = [0] * dim
            if fam == "B":
                last[n - 1] = 1
            elif fam == "C":
                last[n - 1] = 2
            else:
                last[n - 2] = last[n - 1] = 1
            alphas.append(last)
    elif fam == "G":
        alphas = [[1, -1, 0], [-2, 1, 1]]
    elif fam == "F":
        # standard realization scaled by 2
        alphas = [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    else:  # E6/E7/E8: leading part of the E8 simple roots, scaled by 2
        alphas = [[1, -1, -1, -1, -1, -1, -1, 1], [2, 2, 0, 0, 0, 0, 0, 0]]
        for i in range(1, n - 1):
            v = [0] * 8
            v[i - 1], v[i] = -2, 2
            alphas.append(v)
    return [tuple(a) for a in alphas]


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _reflect(x: tuple[int, ...], alpha: tuple[int, ...], alpha_norm: int) -> tuple[int, ...]:
    q, rem = divmod(2 * _dot(x, alpha), alpha_norm)
    if rem:
        raise ArithmeticError(f"non-integral Cartan pairing for {x} against {alpha}")
    return tuple(xi - q * ai for xi, ai in zip(x, alpha))


def build_root_system(rst_type: RootSystemType | str) -> RootSystemData:
    """Realize the root system and collect its Weyl constants.

    Roots are the closure of the simple roots under the simple reflections,
    frozen in lexicographic order for determinism.
    """
    rst_type = parse_type(rst_type)
    alphas = _simple_root_vectors(rst_type)
    norms = [_dot(a, a) for a in alphas]
    roots: set[tuple[int, ...]] = set(alphas)
    frontier = list(alphas)
    while frontier:
        fresh = []
        for x in frontier:
            for alpha, norm in zip(alphas, norms):
                y = _reflect(x, alpha, norm)
                if y not in roots:
                    roots.add(y)
                    fresh.append(y)
        frontier = fresh
    ordered = tuple(sorted(roots))
    expected = expected_root_count(rst_type)
    if len(ordered) != expected:
        raise InvariantViolationError(f"{rst_type}: generated {len(ordered)} roots, expected {expected}")
    return RootSystemData(
        type=rst_type,
        roots=ordered,
        simple_roots=tuple(alphas),
        degrees=invariant_degrees(rst_type),
        w=weyl_order(rst_type),
        c=class_count(rst_type),
    )


def constants_for_group(rst_type: RootSystemType | str) -> GroupConstants:
    """(rank d, Weyl order w, class count c, splitting degree t = w)."""
    rst_type = parse_type(rst_type)
    w = weyl_order(rst_type)
    return GroupConstants(d=rst_type.rank, w=w, c=class_count(rst_type), t=w)


# ---------------------------------------------------------------------------
# enumeration oracle

def _as_data(system: RootSystemData | RootSystemType | str) -> RootSystemData:
    if isinstance(system, RootSystemData):
        return system
    return build_root_system(system)


def simple_reflection_perms(data: RootSystemData) -> list[tuple[int, ...]]:
    """The simple reflections as permutations of the root list."""
    index = {root: i for i, root in enumerate(data.roots)}
    perms = []
    for alpha in data.simple_roots:
        norm = _dot(alpha, alpha)
        perms.append(tuple(index[_reflect(r, alpha, norm)] for r in data.roots))
    return perms


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a C-contiguous array: the bytes of the row.

    Keys of at most 8 bytes (rank at most 8 with uint8 entries) are packed
    into uint64, which numpy sorts several times faster; wider keys, such
    as A9's 9 bytes, are ``np.void`` views.  Only equality of keys is used,
    not their order.
    """
    width = rows.shape[1] * rows.itemsize
    if width <= 8:
        packed = np.zeros((rows.shape[0], 8), dtype=np.uint8)
        packed[:, :width] = rows.view(np.uint8)
        return packed.view(np.uint64).ravel()
    return rows.view(np.dtype((np.void, width))).ravel()


#: Largest estimated size in bytes of the persistent arrays of one enumeration
#: (the per-level and per-gather temporaries are not counted).
_TABLE_BUDGET = 2**30


class _CayleyTables(NamedTuple):
    """The BFS of the simple reflections, kept as index tables.

    Element 0 is the identity, and level k (indices ``starts[k]`` to
    ``starts[k + 1]``) holds the elements of length k.  ``left[i, v]`` is
    the index of s_i·v, and every v > 0 is s_j·u for j = ``gen[v]`` and
    u = ``parent[v]``, an element of the level before.
    """

    perms: np.ndarray
    left: np.ndarray
    parent: np.ndarray
    gen: np.ndarray
    starts: list[int]


def _cayley_tables(data: RootSystemData, cap: int) -> _CayleyTables:
    """BFS closure of the simple reflections by left multiplication.

    A Weyl element is the linear map fixed by its images of the simple
    roots, its key, and the key of s_i·v is ``perms[i][key(v)]``, so only
    the keys of the current level are kept.  Every s_i is an involution
    that changes the length by exactly one, so a new element u = s_i·v
    sets both ``left[i, v]`` and ``left[i, u]``.  Once a level is built,
    the entries of ``left`` still unset on it are exactly the products
    that lie in the next level.

    Raises ResourceLimitError, before any allocation, when the group order
    exceeds ``cap`` or the estimated persistent tables exceed
    ``_TABLE_BUDGET``.  The estimate leaves out the temporaries of one BFS
    level or one gather (candidate keys, ``np.unique``'s int64 arrays, intp
    index arrays), so the peak can pass the budget by those.  Raises
    InvariantViolationError, before any write past the tables, when the
    closure does not have exactly ``data.w`` elements.
    """
    w, rank = data.w, data.d
    if w > cap:
        raise ResourceLimitError(
            f"{data.type}: group order {w} exceeds the enumeration cap {cap}; "
            "use the table constants from constants_for_group"
        )
    # int32 left, parent and conjugates, uint8 gen, and five int32 arrays
    # at the peak of _orbit_count
    need = w * (4 * rank + 29)
    if need > _TABLE_BUDGET:
        raise ResourceLimitError(
            f"{data.type}: enumerating {w} elements needs about {need} bytes, "
            f"over the budget of {_TABLE_BUDGET}; use the table constants from constants_for_group"
        )
    # the budget refuses every type with over 255 roots, so root indices fit in uint8
    perms = np.array(simple_reflection_perms(data), dtype=np.uint8)
    left = np.full((rank, w), -1, dtype=np.int32)
    parent = np.zeros(w, dtype=np.int32)
    gen = np.zeros(w, dtype=np.uint8)
    keys = np.array([[data.roots.index(alpha) for alpha in data.simple_roots]], dtype=np.uint8)
    starts = [0, 1]
    while keys.shape[0]:
        lo, hi = starts[-2], starts[-1]
        gi, offset = np.nonzero(left[:, lo:hi] < 0)
        # gi is sorted, so each generator's candidates are one run
        runs = np.split(offset, np.searchsorted(gi, np.arange(1, rank)))
        candidates = np.concatenate([p.take(keys[o], axis=0) for p, o in zip(perms, runs)])
        _, first, inverse = np.unique(
            _row_keys(candidates), return_index=True, return_inverse=True
        )
        end = hi + first.shape[0]
        if end > w:
            raise InvariantViolationError(
                f"{data.type}: enumerated at least {end} elements, expected w = {w}"
            )
        src, dst = offset + lo, inverse + hi
        left[gi, src] = dst
        left[gi, dst] = src
        parent[hi:end] = src[first]
        gen[hi:end] = gi[first]
        keys = candidates[first]
        starts.append(end)
    starts.pop()  # the empty level past the longest element
    if starts[-1] != w:
        raise InvariantViolationError(
            f"{data.type}: enumerated {starts[-1]} elements, expected w = {w}"
        )
    return _CayleyTables(perms, left, parent, gen, starts)


def _table_conjugates(tables: _CayleyTables):
    """For each generator s_i in turn, the index of s_i·v·s_i for every element v.

    Right multiplication comes level by level from the left table: for
    v = s_j·u, v·s_i = s_j·(u·s_i), starting from the identity times s_i.
    Every generator's conjugates are yielded in the same int32 array, which
    is overwritten when the next generator is asked for: a yielded array is
    valid only until the next iteration, so ``list()`` or a buffering
    ``zip`` of this generator sees the last generator's conjugates n times.
    One array at a time is what keeps E7 under its memory bound.
    """
    _, left, parent, gen, starts = tables
    levels = list(zip(starts, starts[1:]))
    right = np.empty(starts[-1], dtype=np.int32)
    for i in range(left.shape[0]):
        right[0] = left[i, 0]
        for lo, hi in levels[1:]:
            right[lo:hi] = left[gen[lo:hi], right[parent[lo:hi]]]
        # then s_i·(v·s_i), a level at a time: a gather converts its whole
        # index array to intp
        for lo, hi in levels:
            right[lo:hi] = left[i, right[lo:hi]]
        yield right


def _orbit_count(size: int, targets) -> int:
    """Number of connected components of the maps v -> target[v] on range(size).

    ``targets`` yields one index array per map; each is used up before the
    next is asked for, so a generator may refill one array (see
    ``_table_conjugates``).  The components are kept
    as a forest in which every index points at the least index of its
    component: each map's edges hook the larger of two differing roots
    under the smaller one, and pointer jumping flattens the forest again.
    """
    parent = np.arange(size, dtype=np.int32)
    for target in targets:
        while True:
            there = parent[target]
            differ = parent != there
            if not differ.any():
                break
            here, there = parent[differ], there[differ]
            larger = np.maximum(here, there)
            np.minimum.at(parent, larger, np.minimum(here, there, out=here))
            del here, there, larger  # E7's peak is here: free before the next gather
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
    return int(np.count_nonzero(parent == np.arange(size, dtype=np.int32)))


def enumerated_constants(
    system: RootSystemData | RootSystemType | str, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, int]:
    """(group order, class count) measured by brute force, for cross-checking.

    The BFS runs on keys, the images of the simple roots, and keeps the
    Cayley table of left multiplication by each simple reflection; the
    conjugates s_i·v·s_i are then index gathers in that table.  E7 is in
    reach with ``cap`` at least its order 2 903 040; E8 exceeds the memory
    budget at any cap.  Raises ResourceLimitError past ``cap`` or the
    budget.
    """
    data = _as_data(system)
    tables = _cayley_tables(data, cap)
    return data.w, _orbit_count(data.w, _table_conjugates(tables))
