"""Empirical density estimation for sets of rational primes.

Three estimators are provided for a prime set A:

* natural density: ``#(A below X) / #(primes below X)`` -- converges fast and
  is what the verification suite checks against Chebotarev reference values;
* Dirichlet density: the ratio ``xi_A(s) / log(1/(s-1))`` where
  ``xi_A(s) = sum_{p in A} p^(-s)``, evaluated on a grid of s > 1 with all
  sums truncated at the cutoff.  The ratio converges to the density only as
  s -> 1 *after* the cutoff goes to infinity; at desk scale the reported
  curve is systematically below the limit, so the whole curve plus a per-s
  coverage diagnostic (the captured fraction of the untruncated full-prime
  sum) is reported rather than a single trusted number;
* upper Dirichlet density: same data, but the reported value is the maximum
  ratio over the tail of the grid (the half with s closest to 1) -- a
  heuristic stand-in for the limsup, which no truncation can compute.

Set membership may be given as a splitting predicate or extension model
(vectorized), an explicit collection of primes, a boolean mask, or a callable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .calculus import _coprime_fraction, _reciprocal_sum
from .errors import InconsistencyError
from .primes import primes_upto
from .splitting import (
    AbelianModel,
    GaloisExtensionModel,
    SplittingFieldModel,
    SplittingPredicate,
    _isin,
    split_mask,
)

DEFAULT_S_GRID = (1.2, 1.1, 1.05, 1.02, 1.01)
DEFAULT_CUTOFF = 10**7

PrimeSubject = Union[
    SplittingPredicate,
    GaloisExtensionModel,
    np.ndarray,
    Callable[[int], bool],
    Iterable[int],
]


@dataclass(frozen=True)
class PartialZetaValue:
    """Truncated sum of p^(-s) over the member primes below the cutoff."""

    s: float | int | Fraction
    cutoff: int
    value: float | Fraction


@dataclass(frozen=True)
class DensityEstimate:
    """A density estimate plus the diagnostics needed to judge it.

    ``ratios`` holds the raw per-s ratios xi_A(s)/log(1/(s-1)) (empty for the
    natural kind); ``coverage`` the per-s fraction of the untruncated
    full-prime sum captured below the cutoff; ``raw_value`` the estimator
    output before clamping to [0, 1].
    """

    kind: str
    value: float
    cutoff: int
    s_grid: tuple[float, ...] = ()
    ratios: tuple[float, ...] = ()
    coverage: tuple[float, ...] = ()
    raw_value: float = 0.0
    members: int | None = None
    primes: int | None = None

    @property
    def exact(self) -> Fraction:
        """Exact rational value of a natural-density estimate."""
        if self.kind != "natural":
            raise ValueError("exact values exist only for natural-density estimates")
        return Fraction(self.members, self.primes)


def member_mask(subject: PrimeSubject, primes: np.ndarray) -> np.ndarray:
    """Boolean membership of each entry of ``primes`` in the subject set."""
    primes = np.asarray(primes, dtype=np.int64)
    if isinstance(subject, SplittingPredicate):
        return subject.mask(primes)
    if isinstance(subject, (AbelianModel, SplittingFieldModel)):
        return split_mask(subject, primes)
    if isinstance(subject, np.ndarray) and subject.dtype == bool:
        if subject.shape != primes.shape:
            raise ValueError("boolean mask must match the prime array shape")
        return subject
    if callable(subject):
        return np.fromiter((bool(subject(int(p))) for p in primes), bool, count=len(primes))
    return _isin(map(int, subject), primes)


def _classify(subject: PrimeSubject, cutoffs: list[int]):
    """Primes below the largest cutoff, their member mask, and per cutoff the
    numbers of primes and of members below it.

    One sieve and one ``member_mask`` serve every cutoff: the primes below a
    cutoff are a prefix of those below the largest one.
    """
    primes = primes_upto(max(cutoffs))
    mask = member_mask(subject, primes)
    ends = np.searchsorted(primes, cutoffs).tolist()
    return primes, mask, [(end, int(np.count_nonzero(mask[:end]))) for end in ends]


def _xi_sums(fp: np.ndarray, ends: list, grid) -> list[list[float]]:
    """Per s in ``grid``, the sums of p^(-s) over each prefix ``fp[:end]`` of float64 primes.

    ``np.sum`` adds a prefix, which is contiguous, in the order a fresh array would.
    Callers convert to float64, so no integer copy of the primes outlives the call.
    """
    sums = []
    for s in grid:
        terms = fp**-s
        sums.append([float(np.sum(terms[:end])) for end in ends])
    return sums


def _validate_s(s) -> None:
    if s <= 1:
        raise ValueError(f"s must exceed 1, got {s}")


# bits of all (N, D) pairs ``_exact_xi`` keeps; past it the least recently used key goes
_XI_MEMO_BITS = 1 << 26
# (subject, s) -> {k: (N, D) of the sum over the first k members}, least recently used key first
_xi_memo: dict[tuple, dict[int, tuple[int, int]]] = {}


def _exact_xi(subject: PrimeSubject, s: int, members: list[int]) -> tuple[int, int]:
    """(N, D) in lowest terms with N/D the sum of p^(-s) over the sorted ``members``.

    For a model or predicate subject the longest prefix of the members already
    summed at this s is extended by a product tree over the rest alone: the
    members below a cutoff are a prefix of those below any larger one.  One
    merge N = N0*Dt + Nt*D0, D = D0*Dt gives the pair the full tree would, since
    D is the product of the p^s in any order and N = D * xi; the p^s are pairwise
    coprime, so the pair stays reduced.  Other subjects are not memoized: a
    callable may be impure and collections are unhashable or mutable.
    """
    if not isinstance(subject, (SplittingPredicate, AbelianModel, SplittingFieldModel)):
        return _reciprocal_sum([p**s for p in members])
    key = (subject, s)
    sums = _xi_memo.pop(key, {0: (0, 1)})
    start = max(k for k in sums if k <= len(members))
    n0, d0 = sums[start]
    nt, dt = _reciprocal_sum([p**s for p in members[start:]])
    pair = sums[len(members)] = (n0 * dt + nt * d0, d0 * dt)
    if _held_bits(sums) <= _XI_MEMO_BITS:  # a key past the cap alone evicts no other
        _xi_memo[key] = sums
        while sum(map(_held_bits, _xi_memo.values())) > _XI_MEMO_BITS:
            del _xi_memo[next(iter(_xi_memo))]
    return pair


def _held_bits(sums: dict[int, tuple[int, int]]) -> int:
    return sum(n.bit_length() + d.bit_length() for n, d in sums.values())


def partial_zeta(subject: PrimeSubject, s, cutoff: int) -> PartialZetaValue:
    """Truncated xi_A(s): sum of p^(-s) over member primes below the cutoff.

    Integral s (given as int or integral Fraction) is summed with exact
    rational arithmetic; otherwise float64 in ascending order.  The exact sum
    is built already reduced: the members are distinct sieve primes, so their
    powers p^s are pairwise coprime and the product-tree sum is in lowest terms.
    For a model or predicate, an exact sum extends the longest prefix of its
    members already summed at the same s in this process (``_exact_xi``).
    """
    _validate_s(s)
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    primes, mask, _ = _classify(subject, [int(cutoff)])
    members = primes[mask]
    if isinstance(s, Integral) or (isinstance(s, Fraction) and s.denominator == 1):
        value: float | Fraction = _coprime_fraction(*_exact_xi(subject, int(s), members.tolist()))
    else:
        value = _xi_sums(members.astype(np.float64), [None], [float(s)])[0][0]
    return PartialZetaValue(s, int(cutoff), value)


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin summation from the 64th term."""
    _validate_s(s)
    s = float(s)
    n = 64
    total = sum(k**-s for k in range(1, n))
    total += n ** (1 - s) / (s - 1) + 0.5 * n**-s
    total += s * n ** (-s - 1) / 12 - s * (s + 1) * (s + 2) * n ** (-s - 3) / 720
    return total


def _normalize_grid(s_grid: Sequence[float]) -> tuple[float, ...]:
    if not s_grid:
        raise ValueError("s_grid must be nonempty")
    grid = tuple(sorted({float(s) for s in s_grid}, reverse=True))
    for s in grid:
        _validate_s(s)
    return grid


def _ratio_estimate(
    kind: str, subject: PrimeSubject, s_grid: Sequence[float], cutoff: int
) -> DensityEstimate:
    """Ratio curve (the one-cutoff Dirichlet table) and coverage over the grid; the raw value
    is the ratio at the smallest s, or for the upper kind the largest over the grid's tail half."""
    grid = _normalize_grid(s_grid)
    ratios = tuple(row["ratio"] for row in dirichlet_convergence_rows(subject, [cutoff], grid))
    every = _xi_sums(primes_upto(int(cutoff)).astype(np.float64), [None], grid)
    coverage = tuple(xi / math.log(riemann_zeta(s)) for s, [xi] in zip(grid, every))
    raw = max(ratios[-((len(ratios) + 1) // 2) :]) if kind == "upper_dirichlet" else ratios[-1]
    return DensityEstimate(
        kind=kind,
        value=min(max(raw, 0.0), 1.0),
        cutoff=int(cutoff),
        s_grid=grid,
        ratios=ratios,
        coverage=coverage,
        raw_value=raw,
    )


def dirichlet_density_estimate(
    subject: PrimeSubject,
    s_grid: Sequence[float] = DEFAULT_S_GRID,
    cutoff: int = DEFAULT_CUTOFF,
) -> DensityEstimate:
    """Dirichlet-density ratio curve; the value is the ratio at the smallest s.

    The cutoff should be chosen so the coverage diagnostics stay near 1; with
    desk-scale cutoffs the ratios at s very close to 1 undershoot the limit
    (see the module docstring), so treat the value as a lower-biased reading
    and prefer natural density for tight checks.
    """
    return _ratio_estimate("dirichlet", subject, s_grid, cutoff)


def upper_density_estimate(
    subject: PrimeSubject,
    s_grid: Sequence[float] = DEFAULT_S_GRID,
    cutoff: int = DEFAULT_CUTOFF,
) -> DensityEstimate:
    """Limsup estimator: maximum ratio over the tail half of the grid.

    The limsup itself is not computable from truncations; this documented
    surrogate agrees with the Dirichlet estimate whenever the ratio curve is
    flat over the tail (their difference is bounded by the tail spread).
    """
    return _ratio_estimate("upper_dirichlet", subject, s_grid, cutoff)


def natural_density_estimate(subject: PrimeSubject, cutoff: int) -> DensityEstimate:
    """#(members below cutoff) / #(primes below cutoff)."""
    row = natural_convergence_rows(subject, [cutoff])[0]
    return DensityEstimate("natural", row["estimate"], row["cutoff"], raw_value=row["estimate"],
                           members=row["members"], primes=row["primes"])


def chebotarev_reference(model: GaloisExtensionModel) -> Fraction:
    """Exact density 1/[L:Q] of the complete-splitting set of the model."""
    return Fraction(1, model.degree)


def lift_density(delta: Fraction, degree: int) -> Fraction:
    """Rescale an upper density under a degree-``degree`` extension of the base.

    Valuations with a full set of ``degree`` extensions have ``degree`` times
    the base density upstairs; a product exceeding 1 means the inputs were
    impossible to begin with.
    """
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError(f"density must lie in [0, 1], got {delta}")
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    lifted = delta * degree
    if lifted > 1:
        raise InconsistencyError(
            f"lifted density {lifted} exceeds 1; ({delta}, {degree}) is impossible"
        )
    return lifted


# ---------------------------------------------------------------------------
# convergence tables

def dirichlet_convergence_rows(
    subject: PrimeSubject,
    cutoffs: Sequence[int],
    s_grid: Sequence[float] = DEFAULT_S_GRID,
    reference: Fraction | None = None,
) -> list[dict]:
    """One row per (cutoff, s): columns cutoff, s, xi, ratio [, reference]."""
    grid = _normalize_grid(s_grid)
    cutoffs = [int(cutoff) for cutoff in cutoffs]
    if not cutoffs:
        return []
    primes, mask, counts = _classify(subject, cutoffs)
    xi = _xi_sums(primes[mask].astype(np.float64), [members for _, members in counts], grid)
    rows = []
    for j, cutoff in enumerate(cutoffs):
        for i, s in enumerate(grid):
            value = xi[i][j]
            row = {"cutoff": cutoff, "s": s, "xi": value, "ratio": value / math.log(1.0 / (s - 1.0))}
            if reference is not None:
                row["reference"] = float(reference)
            rows.append(row)
    return rows


def natural_convergence_rows(
    subject: PrimeSubject,
    cutoffs: Sequence[int],
    reference: Fraction | None = None,
) -> list[dict]:
    """One row per cutoff with member/prime counts and the natural estimate."""
    cutoffs = list(cutoffs)
    for cutoff in cutoffs:
        if int(cutoff) < 3:
            raise ValueError(f"no primes below {cutoff}; the estimate is undefined")
    if not cutoffs:
        return []
    rows = []
    counts = _classify(subject, [int(cutoff) for cutoff in cutoffs])[2]
    for cutoff, (total, members) in zip(cutoffs, counts):
        row = {"cutoff": int(cutoff), "members": members, "primes": total, "estimate": members / total}
        if reference is not None:
            row["reference"] = float(reference)
        rows.append(row)
    return rows


def write_convergence_csv(rows: Sequence[dict], fileobj) -> None:
    """Emit convergence rows as CSV, columns in first-row order."""
    if not rows:
        return
    writer = csv.DictWriter(fileobj, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
