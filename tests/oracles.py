"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: primality by
trial division, a second (odd-only, bytearray) sieve, quadratic splitting by
Euler's criterion, cubic splitting by the cubic-residue test, binomial
splitting by the n-th power residue criterion, cycle types by
root counting, partitions by explicit recursive enumeration, tower counts by
an exact linear search (and by 80-digit mpmath past exact powers), Weyl
groups by a dict-keyed BFS and orbit loop, ``spl``/``frob`` output by one
dict per scan record, and density tables by a fresh sieve and classification
at every cutoff.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np

from chebdens import (
    ResourceLimitError, build_root_system, calculus, cli, density, simple_reflection_perms, splitting,
)
from chebdens.errors import ModelFormatError
from chebdens.primes import PrimeRange, sieve_primes


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def odd_bytearray_sieve(limit: int) -> list[int]:
    """Primes below limit via an odd-only bytearray sieve (second opinion)."""
    if limit <= 2:
        return []
    size = (limit - 1) // 2  # odd numbers 3, 5, ..., below limit
    flags = bytearray([1]) * size
    for i in range(size):
        if flags[i]:
            p = 2 * i + 3
            if p * p >= limit:
                break
            start = (p * p - 3) // 2
            flags[start::p] = bytearray(len(range(start, size, p)))
    return [2] + [2 * i + 3 for i in range(size) if flags[i]]


def legendre_splits(d: int, p: int) -> bool:
    """x^2 - d splits completely mod p, by Euler's criterion (p odd, p does not divide d)."""
    return pow(d % p, (p - 1) // 2, p) == 1


def cubic_two_splits(p: int) -> bool:
    """x^3 - 2 splits completely mod p (p > 3): p = 1 mod 3 and 2 a cubic residue."""
    if p % 3 != 1:
        return False
    return pow(2, (p - 1) // 3, p) == 1


def binomial_splits(a: int, n: int, p: int) -> bool:
    """x^n - a splits completely mod p, for p not dividing n*a: p = 1 mod n and a an n-th power residue."""
    return p % n == 1 and pow(a, (p - 1) // n, p) == 1


def root_count(poly_ascending, p: int) -> int:
    """Number of roots of the polynomial mod p by exhaustive evaluation."""
    count = 0
    for x in range(p):
        acc = 0
        for c in reversed(poly_ascending):
            acc = (acc * x + c) % p
        if acc == 0:
            count += 1
    return count


def cycle_type_low_degree(poly_ascending, p: int) -> tuple[int, ...]:
    """Cycle type for deg <= 3 squarefree polynomials from the root count alone."""
    deg = len(poly_ascending) - 1
    roots = root_count(poly_ascending, p)
    if deg == 1:
        return (1,)
    if deg == 2:
        return (1, 1) if roots == 2 else (2,)
    if deg == 3:
        return {3: (1, 1, 1), 1: (1, 2), 0: (3,)}[roots]
    raise ValueError("only deg <= 3 supported")


def _poly_mod_eval_divides(f, g, p: int) -> bool:
    """Whether g divides f over GF(p), by naive long division (descending lists)."""
    f = [c % p for c in f]
    dg = len(g) - 1
    ginv = pow(g[0], -1, p)
    while len(f) > dg:
        lead = f[0] * ginv % p
        for i in range(dg + 1):
            f[i] = (f[i] - lead * g[i]) % p
        f.pop(0)
    return all(c % p == 0 for c in f)


def brute_force_factor_degrees(poly_ascending, p: int) -> tuple[int, ...]:
    """Factor degrees of a squarefree monic polynomial mod p, by trial division.

    Tries every monic polynomial of each degree in turn; exponential in the
    degree, usable only for small p and small degree, which is the point:
    it shares nothing with the library's distinct-degree factorization.
    """
    from itertools import product as iproduct

    f = [c % p for c in reversed(poly_ascending)]
    while f and f[0] == 0:
        f.pop(0)
    degrees = []
    d = 1
    while len(f) - 1 > 0:
        if len(f) - 1 < 2 * d:
            degrees.append(len(f) - 1)
            break
        found = True
        while found and len(f) - 1 >= d:
            found = False
            for tail in iproduct(range(p), repeat=d):
                g = [1, *tail]
                if _poly_mod_eval_divides(f, g, p):
                    # keep only irreducible divisors: g of degree d with no
                    # divisor of smaller degree already stripped from f
                    if d == 1 or not any(
                        _poly_mod_eval_divides(g, [1, *small], p)
                        for dd in range(1, d)
                        for small in iproduct(range(p), repeat=dd)
                    ):
                        degrees.append(d)
                        q = []
                        work = f[:]
                        dg = len(g) - 1
                        while len(work) > dg:
                            lead = work[0]
                            q.append(lead)
                            for i in range(1, dg + 1):
                                work[i] = (work[i] - lead * g[i]) % p
                            work.pop(0)
                        f = q
                        while f and f[0] == 0:
                            f.pop(0)
                        found = True
                        break
        d += 1
    return tuple(sorted(degrees))


def partitions_by_enumeration(n: int, max_part: int | None = None) -> int:
    """p(n) by explicit recursion over the largest part."""
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    return sum(
        partitions_by_enumeration(n - part, part) for part in range(min(n, max_part), 0, -1)
    )


def slow_fraction_zeta(members, s: int) -> Fraction:
    """Left-to-right exact sum of p^-s, the simplest possible ordering."""
    total = Fraction(0)
    for p in sorted(members):
        total += Fraction(1, p**s)
    return total


def tower_counts_by_linear_search(t: int, queries, r_cap: int) -> list:
    """For each (m, omega): the least r in 1..r_cap with (1/m)(1 - 1/t)^r < omega/2.

    None where no r up to r_cap qualifies.  One exact pass r = 1, 2, ...
    over the integers (t-1)^r and t^r serves all queries on the same t; no
    logarithm seeds it and no power is rounded.  Queries are tried in order
    of decreasing omega*m, so each step tests one query that stays pending.
    Each test 2*b*num < a*m*den (omega = a/b) first compares the top 64
    bits of num and den, which decides it unless the two sides are within
    the truncation error of each other; then it multiplies out exactly.
    """
    answers = [None] * len(queries)
    pending = sorted(range(len(queries)), key=lambda i: -queries[i][1] * queries[i][0])
    num, den = 1, 1
    for r in range(1, r_cap + 1):
        num *= t - 1
        den *= t
        shift = max(den.bit_length() - 64, 0)
        num_top, den_top = num >> shift, den >> shift
        while pending:
            m, omega = queries[pending[0]]
            lhs, rhs = 2 * omega.denominator, omega.numerator * m
            # num < (num_top + 1) * 2^shift and likewise for den
            if lhs * num_top >= rhs * (den_top + 1):
                break
            if lhs * (num_top + 1) > rhs * den_top and lhs * num >= rhs * den:
                break
            answers[pending.pop(0)] = r
        if not pending:
            break
    return answers


def tower_condition_mpmath(m: int, t: int, r: int, omega: Fraction) -> bool:
    """(1/m)(1 - 1/t)^r < omega/2 in 80-digit mpmath floats, for r far past exact powers.

    Raises when the two sides agree to within 10^-60 relative, where the
    floating comparison could not decide.
    """
    with mpmath.workdps(80):
        lhs = mpmath.exp(r * mpmath.log1p(-mpmath.mpf(1) / t)) / m
        rhs = mpmath.mpf(omega.numerator) / (2 * omega.denominator)
        if abs(lhs - rhs) <= rhs * mpmath.mpf(10) ** -60:
            raise ValueError(f"80-digit comparison undecided at r = {r}")
        return bool(lhs < rhs)


# ---------------------------------------------------------------------------
# Weyl enumeration by a dict-keyed BFS and orbit loop (one Python dict lookup
# per element and generator), kept as the reference for the array-keyed code

def _dict_bfs_arrays(data, cap: int):
    """BFS closure of the simple reflections under composition.

    Returns (elements array of shape (w, nroots), index dict keyed by row
    bytes, generator arrays).  Deterministic: candidates of each level are
    deduplicated in sorted order.
    """
    if data.w > cap:
        raise ResourceLimitError(
            f"{data.type}: group order {data.w} exceeds the enumeration cap {cap}; "
            "use the table constants from constants_for_group"
        )
    nroots = len(data.roots)
    dtype = np.uint8 if nroots <= 255 else np.uint16
    gens = [np.array(g, dtype=dtype) for g in simple_reflection_perms(data)]
    identity = np.arange(nroots, dtype=dtype)
    elements = [identity]
    index = {identity.tobytes(): 0}
    frontier = identity[np.newaxis, :]
    while frontier.shape[0]:
        candidates = np.concatenate([frontier[:, g] for g in gens], axis=0)
        unique = np.unique(candidates, axis=0)
        fresh = []
        for row in unique:
            key = row.tobytes()
            if key not in index:
                index[key] = len(elements)
                elements.append(row)
                fresh.append(row)
        frontier = (
            np.stack(fresh) if fresh else np.empty((0, nroots), dtype=dtype)
        )
    stacked = np.stack(elements)
    if stacked.shape[0] != data.w:
        raise AssertionError(
            f"{data.type}: enumerated {stacked.shape[0]} elements, expected w = {data.w}"
        )
    return stacked, index, gens


def _dict_orbit_count(arr, index, gens) -> int:
    """Number of orbits of the rows of ``arr`` under conjugation by ``gens``.

    ``index`` maps each row's bytes to its position in ``arr``; every
    conjugate of a row must be a row again.
    """
    inverses = []
    for g in gens:
        inv = np.empty_like(g)
        inv[g] = np.arange(len(g), dtype=g.dtype)
        inverses.append(inv)
    assigned = np.zeros(arr.shape[0], dtype=bool)
    classes = 0
    for seed in range(arr.shape[0]):
        if assigned[seed]:
            continue
        classes += 1
        assigned[seed] = True
        frontier = [seed]
        while frontier:
            block = arr[frontier]
            fresh = []
            for g, ginv in zip(gens, inverses):
                conjugates = ginv[block[:, g]]
                for row in conjugates:
                    j = index[row.tobytes()]
                    if not assigned[j]:
                        assigned[j] = True
                        fresh.append(j)
            frontier = fresh
    return classes


def weyl_by_dict_bfs(label: str, cap: int = 10**6):
    """(elements as root permutations in BFS order, (group order, class count))."""
    stacked, index, gens = _dict_bfs_arrays(build_root_system(label), cap)
    elements = list(map(tuple, stacked.tolist()))
    return elements, (stacked.shape[0], _dict_orbit_count(stacked, index, gens))


def class_count_by_dict(elements, generators=None) -> int:
    """Conjugation orbits of the listed elements (default: under all of them)."""
    arr = np.asarray(elements)
    dtype = np.uint8 if arr.shape[1] <= 255 else np.uint16
    arr = arr.astype(dtype)
    index = {row.tobytes(): i for i, row in enumerate(arr)}
    gen_arrs = (
        [np.asarray(g, dtype=dtype) for g in generators]
        if generators is not None
        else list(arr)
    )
    return _dict_orbit_count(arr, index, gen_arrs)


def rows_from_tables(tables) -> np.ndarray:
    """The elements of ``weyl._cayley_tables`` as rows of root images, in index order.

    Row v is ``perms[gen[v]]`` applied to the row of ``parent[v]``, a level at a time.
    """
    perms, _, parent, gen, starts = tables
    rows = np.empty((len(parent), perms.shape[1]), dtype=perms.dtype)
    rows[0] = np.arange(perms.shape[1])
    for lo, hi in zip(starts[1:], starts[2:]):
        rows[lo:hi] = perms[gen[lo:hi, np.newaxis], rows[parent[lo:hi]]]
    return rows


def _scan_records_per_prime(model, lo: int, hi: int):
    """One record dict per unramified prime of [lo, hi); progress goes to stderr.

    When a prime fails a check, the records of every prime before it are
    yielded, then its error is raised.
    """
    primes = sieve_primes(PrimeRange(lo, hi))
    primes = primes[~np.isin(primes, splitting.ramified_primes_in(model, lo, hi))]
    if isinstance(model, splitting.SplittingFieldModel):
        records = (
            {"p": p, "splits": shapes[i].degrees[-1] == 1, "cycle_type": list(shapes[i].degrees)}
            for block, index, shapes in splitting._cycle_types(model, primes)
            for p, i in zip(block.tolist(), index.tolist())
        )
    else:
        splits = splitting.split_mask(model, primes).tolist()
        records = ({"p": p, "splits": s} for p, s in zip(primes.tolist(), splits))
    for done, record in enumerate(records, 1):
        if done % cli._PROGRESS_EVERY == 0:
            print(f"... {done} primes scanned, at p = {record['p']}", file=sys.stderr)
        yield record


def scan_per_record(args) -> int:
    """``chebdens spl``/``frob`` rendered one dict per record, line by line.

    A drop-in for the CLI's scan handler: the same model parsing and engine,
    but every record is filtered, formatted and printed on its own, and the
    JSON payload is one ``json.dumps``.
    """
    columns = args.columns
    model = cli._model_from_args(args)
    if "splits" not in columns and not isinstance(model, splitting.SplittingFieldModel):
        raise ModelFormatError("cycle types require a splitting_field model")
    ramified = splitting.ramified_primes_in(model, args.lo, args.hi)
    records = (
        {col: rec[col] for col in columns if col in rec}
        for rec in _scan_records_per_prime(model, args.lo, args.hi)
    )
    if args.format == "json":
        payload = {"model": splitting.model_to_dict(model), "range": [args.lo, args.hi],
                   "ramified": ramified, "records": list(records)}
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(",".join(columns))
        for rec in records:
            print(",".join(("|".join(map(str, rec[col])) if col == "cycle_type" else str(int(rec[col])))
                           if col in rec else "" for col in columns))
    else:
        labels = {"p": "p", "splits": "splits", "cycle_type": "cycle"}
        print(f"# ramified: {ramified}")
        for rec in records:
            print(" ".join(f"{labels[col]}={rec[col]}" for col in columns if col in rec))
    return 0


def _fresh_classification(subject, cutoff):
    """Primes below the cutoff from their own sieve, and their member mask."""
    primes = sieve_primes(PrimeRange(2, int(cutoff)))
    return primes, density.member_mask(subject, primes)


def per_cutoff_natural_rows(subject, cutoffs, reference=None) -> list[dict]:
    """Natural-density rows with one sieve and one ``member_mask`` per cutoff, in order."""
    rows = []
    for cutoff in cutoffs:
        primes = sieve_primes(PrimeRange(2, int(cutoff)))
        if primes.size == 0:
            raise ValueError(f"no primes below {cutoff}; the estimate is undefined")
        members = int(np.count_nonzero(density.member_mask(subject, primes)))
        row = {"cutoff": int(cutoff), "members": members, "primes": int(primes.size),
               "estimate": members / int(primes.size)}
        if reference is not None:
            row["reference"] = float(reference)
        rows.append(row)
    return rows


def per_cutoff_zeta_sums(subject, grid, cutoff) -> list[tuple[float, float]]:
    """(xi_A(s), xi_P(s)) for each s of the grid, summed over fresh arrays below the cutoff."""
    primes, mask = _fresh_classification(subject, cutoff)
    fp = primes.astype(np.float64)
    fm = fp[mask]
    return [(float(np.sum(fm**-s)) if fm.size else 0.0, float(np.sum(fp**-s)) if fp.size else 0.0)
            for s in grid]


def per_cutoff_dirichlet_rows(subject, cutoffs, s_grid, reference=None) -> list[dict]:
    """Dirichlet rows with one sieve and one ``member_mask`` per cutoff, in order."""
    grid = tuple(sorted({float(s) for s in s_grid}, reverse=True))
    rows = []
    for cutoff in cutoffs:
        for s, (xi, _) in zip(grid, per_cutoff_zeta_sums(subject, grid, cutoff)):
            row = {"cutoff": int(cutoff), "s": s, "xi": xi, "ratio": xi / math.log(1.0 / (s - 1.0))}
            if reference is not None:
                row["reference"] = float(reference)
            rows.append(row)
    return rows


def per_cutoff_ratio_curve(subject, s_grid, cutoff) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The ratios and coverages a Dirichlet or upper estimate reports at one cutoff."""
    grid = tuple(sorted({float(s) for s in s_grid}, reverse=True))
    sums = per_cutoff_zeta_sums(subject, grid, cutoff)
    ratios = tuple(xi_a / math.log(1.0 / (s - 1.0)) for s, (xi_a, _) in zip(grid, sums))
    coverage = tuple(xi_p / math.log(density.riemann_zeta(s)) for s, (_, xi_p) in zip(grid, sums))
    return ratios, coverage


def per_cutoff_partial_zeta(subject, s, cutoff):
    """Truncated xi_A(s): exact left to right for integral s, else one float64 ``np.sum``."""
    primes, mask = _fresh_classification(subject, cutoff)
    members = primes[mask]
    if isinstance(s, int) or (isinstance(s, Fraction) and s.denominator == 1):
        return slow_fraction_zeta(members.tolist(), int(s))
    return float(np.sum(members.astype(np.float64) ** (-float(s)))) if members.size else 0.0


def criterion_5_detail(cutoff: int) -> str:
    """Criterion 5's passing detail, with every member density estimated on its own."""
    theta = calculus.tower_theta(Fraction(1), calculus.TowerSpec(m=1, t=2, r=3)).theta
    bound = float(theta) / 3
    best = max(per_cutoff_natural_rows(splitting.splitting_field_model((-d, 0, 1), 2), [cutoff])[0]
               ["estimate"] for d in (2, 3, 5))
    return (f"theta empirical = exact = {theta}; best member density {best:.6f} "
            f">= theta/r - 0.01 = {bound - 0.01:.6f}")
