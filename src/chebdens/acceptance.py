"""The verification suite: one function per acceptance criterion.

Each criterion checks a stated quantity at a stated tolerance and reports a
single pass/fail line.  The criteria mix statistical checks against
Chebotarev reference densities (natural density over primes below 10^7),
exact rational identities, brute-force group enumeration, and the constant
pipeline's hand-checked values.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from . import calculus, density, splitting, weyl
from .bounds import csp_bound_pipeline, factorial_bound, index_divisor_bound, minimal_tower_count
from .errors import InconsistencyError
from .primes import primes_upto


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str
    elapsed: float


def _check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


#: The criteria in index order, each called as ``criterion(cutoff=..., seed=...)``.
_CRITERIA: list[Callable[..., CriterionResult]] = []


def _criterion(index: int, title: str, limit: float = math.inf):
    """Register a criterion body under its index, title and runtime limit in seconds.

    The body appends failure messages to ``failures`` and returns its detail.  The
    criterion times it, fails past the limit or on a raise, and passes iff nothing
    failed; a failed result reports its failures as the detail.
    """
    def register(body: Callable[[int, int, list[str]], str]) -> Callable[..., CriterionResult]:
        def criterion(cutoff: int = density.DEFAULT_CUTOFF, seed: int = 0) -> CriterionResult:
            start = time.perf_counter()
            failures: list[str] = []
            try:
                detail = body(cutoff, seed, failures)
            except Exception as exc:  # a crash is a failure, not an abort
                detail = f"raised {type(exc).__name__}: {exc}"
                failures.append(detail)
            elapsed = time.perf_counter() - start
            _check(elapsed < limit, f"runtime {elapsed:.1f}s exceeded {limit}s", failures)
            return CriterionResult(index, title, not failures, "; ".join(failures) or detail, elapsed)

        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        _CRITERIA.append(criterion)
        return criterion
    return register


@lru_cache(maxsize=1)
def _tower_masks(cutoff: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Primes below the cutoff and the split masks of the trivial extension (every
    prime splits), x^2 - 2, x^2 - 3 and x^2 - 5; criteria 2 and 5 share them."""
    primes = primes_upto(cutoff)
    models = [splitting.abelian_model(1, [1])]
    models += [splitting.splitting_field_model((-d, 0, 1), 2) for d in (2, 3, 5)]
    return primes, [splitting.split_mask(model, primes) for model in models]


@_criterion(1, "Chebotarev convergence at the default cutoff", limit=120)
def criterion_1(cutoff: int, seed: int, failures: list[str]) -> str:
    """Natural densities of the complete-splitting sets match 1/2 and 1/6."""
    quad = splitting.splitting_field_model((1, 0, 1), 2)  # x^2 + 1
    cubic = splitting.splitting_field_model((-2, 0, 0, 1), 6)  # x^3 - 2
    est_q = density.natural_density_estimate(quad, cutoff)
    est_c = density.natural_density_estimate(cubic, cutoff)
    gap_q = abs(est_q.value - 0.5)
    gap_c = abs(est_c.value - 1 / 6)
    _check(gap_q < 0.005, f"x^2+1 gap {gap_q:.6f} >= 0.005", failures)
    _check(gap_c < 0.01, f"x^3-2 gap {gap_c:.6f} >= 0.01", failures)
    return (
        f"x^2+1: {est_q.value:.6f} (|err| {gap_q:.2e}); "
        f"x^3-2: {est_c.value:.6f} (|err| {gap_c:.2e})"
    )


@_criterion(2, "union-density formula for a disjoint quadratic tower")
def criterion_2(cutoff: int, seed: int, failures: list[str]) -> str:
    """Union of three independent quadratic splitting sets has density 7/8."""
    primes, (_, *quadratics) = _tower_masks(cutoff)
    union = np.logical_or.reduce(quadratics)
    est = int(np.count_nonzero(union)) / int(primes.size)
    gap = abs(est - 7 / 8)
    _check(gap < 0.01, f"union gap {gap:.6f} >= 0.01", failures)
    exact = calculus.disjoint_union_density(calculus.TowerSpec(m=1, t=2, r=3))
    _check(exact == Fraction(7, 8), f"exact union density {exact} != 7/8", failures)
    return f"empirical {est:.6f} vs 7/8 (|err| {gap:.2e}); exact side = {exact}"


@_criterion(3, "inclusion-exclusion identity, exact arithmetic")
def criterion_3(cutoff: int, seed: int, failures: list[str]) -> str:
    """Truncated inclusion-exclusion identity is exact on randomized families."""
    rng = random.Random(seed)
    pool = [int(p) for p in primes_upto(10**4).tolist()]
    for trial in range(100):
        r = rng.randint(1, 5)
        sets = [rng.sample(pool, rng.randint(0, 120)) for _ in range(r)]
        s = rng.choice((2, 3))
        equal, residual = calculus.truncated_inclusion_exclusion_check(sets, s)
        if not (equal and residual == 0):
            failures.append(f"trial {trial}: residual {residual} != 0")
            break
    return "100 families (r <= 5, primes < 10^4, s in {2,3}): residual exactly 0"


def _random_fraction(rng: random.Random, lo: Fraction, hi: Fraction, den: int = 48) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randint(0, den), den)


@_criterion(4, "consistency of the exact density bounds")
def criterion_4(cutoff: int, seed: int, failures: list[str]) -> str:
    """Union bound, intersection bound, and selection bound agree exactly."""
    rng = random.Random(seed + 1)
    for trial in range(1000):
        # realizable pair densities: Frechet bounds keep the table consistent
        d1 = _random_fraction(rng, Fraction(0), Fraction(1))
        d2 = _random_fraction(rng, Fraction(0), Fraction(1))
        d12 = _random_fraction(rng, max(Fraction(0), d1 + d2 - 1), min(d1, d2))
        union = calculus.inclusion_exclusion_density({(1,): d1, (2,): d2, (1, 2): d12})
        if calculus.union_upper_bound(d1, d2) < union:
            failures.append(f"trial {trial}: union bound below the exact union")
            break
        dc = _random_fraction(rng, Fraction(1, 48), Fraction(1))
        da = _random_fraction(rng, Fraction(0), dc)
        db = _random_fraction(rng, Fraction(0), dc)
        inter = calculus.intersection_lower_bound(da, db, dc)
        if inter > min(da, db):
            failures.append(f"trial {trial}: intersection bound above min constituent")
            break
        da0 = _random_fraction(rng, Fraction(0), dc)
        dun = _random_fraction(rng, Fraction(0), dc)
        r = rng.randint(1, 6)
        sel = calculus.selection_lower_bound(da0, dun, dc, r)
        theta = da0 + dun - dc
        if sel.theta != theta or sel.bound != max(theta, Fraction(0)) / r or sel.vacuous != (theta <= 0):
            failures.append(f"trial {trial}: selection bound mismatch")
            break
    return "1000 exact-density tuples, all three bounds exact"


@_criterion(5, "selection margin bridged from empirical densities")
def criterion_5(cutoff: int, seed: int, failures: list[str]) -> str:
    """Tower selection margin: empirical inputs reproduce the exact theta and bound."""
    spec = calculus.TowerSpec(m=1, t=2, r=3)
    primes, (trivial, *quadratics) = _tower_masks(cutoff)
    omega_emp = Fraction(int(np.count_nonzero(trivial)), int(primes.size))
    theta_emp = calculus.tower_theta(omega_emp, spec).theta
    theta_exact = calculus.tower_theta(Fraction(1), spec).theta
    gap = abs(float(theta_emp) - float(theta_exact))
    _check(gap < 0.01, f"theta gap {gap:.6f} >= 0.01", failures)
    bound = float(theta_exact) / spec.r
    # every member shares the denominator, so this is the largest member density
    best = max(int(np.count_nonzero(mask)) for mask in quadratics) / int(primes.size)
    _check(best >= bound - 0.01,
           f"no tower member reaches the guaranteed bound: {best:.4f} < {bound:.4f} - 0.01",
           failures)
    return (
        f"theta empirical = exact = {theta_exact}; best member density {best:.6f} "
        f">= theta/r - 0.01 = {bound - 0.01:.6f}"
    )


_ORACLE_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "D6", "G2", "F4", "E6",
)


@_criterion(6, "Weyl table vs enumeration oracle", limit=60)
def criterion_6(cutoff: int, seed: int, failures: list[str]) -> str:
    """Brute-force enumeration reproduces every tabulated (w, c) in reach."""
    for label in _ORACLE_TYPES:
        constants = weyl.constants_for_group(label)
        order, classes = weyl.enumerated_constants(label)
        if (order, classes) != (constants.w, constants.c):
            failures.append(
                f"{label}: enumerated ({order}, {classes}) != table ({constants.w}, {constants.c})"
            )
    return f"{len(_ORACLE_TYPES)} types enumerated, all (w, c) exact"


@_criterion(7, "bound pipeline constants and super-decreasing law")
def criterion_7(cutoff: int, seed: int, failures: list[str]) -> str:
    """Constant pipeline hand-checks and the super-decreasing divisibility law."""
    r = minimal_tower_count(1, 2, Fraction(1, 2))
    _check(r == 3, f"minimal r = {r} != 3", failures)
    # independent minimality check with literal rationals
    _check(Fraction(1, 2) ** 3 < Fraction(1, 4) <= Fraction(1, 2) ** 2,
           "minimality of r = 3 fails the direct rational check", failures)
    nu = factorial_bound(Fraction(3, 10))
    _check(nu == 24, f"factorial bound at 3/10 is {nu}, expected 24", failures)
    report = csp_bound_pipeline("A1", 1, Fraction(1, 2), rho=1)
    _check(report.r == 3, f"pipeline r = {report.r} != 3", failures)
    _check(report.theta == Fraction(3, 8), f"pipeline theta = {report.theta} != 3/8", failures)
    _check(report.delta == Fraction(1, 12), f"pipeline delta = {report.delta} != 1/12", failures)
    _check(report.n_exact == 6227020800 == math.factorial(13),
           f"pipeline n = {report.n_exact} != 13!", failures)
    deltas = [Fraction(k, 20) for k in range(1, 21)]
    for d in range(1, 6):
        values = {delta: index_divisor_bound(delta, d) for delta in deltas}
        for d1 in deltas:
            for d2 in deltas:
                if d1 <= d2 and values[d1] % values[d2] != 0:
                    failures.append(f"divisibility fails at delta1={d1}, delta2={d2}, d={d}")
    return "r = 3 certified minimal; nu(3/10) = 24; A1 pipeline = (3, 3/8, 1/12, 13!); 20x5 grid divides"


@_criterion(8, "density lifting law")
def criterion_8(cutoff: int, seed: int, failures: list[str]) -> str:
    """Density lifting is exact multiplication, erroring exactly past 1."""
    for den in range(1, 9):
        for num in range(0, den + 1):
            delta = Fraction(num, den)
            for degree in range(1, 7):
                if delta * degree <= 1:
                    lifted = density.lift_density(delta, degree)
                    if lifted != delta * degree:
                        failures.append(f"lift({delta}, {degree}) = {lifted} is wrong")
                else:
                    try:
                        density.lift_density(delta, degree)
                    except InconsistencyError:
                        pass
                    else:
                        failures.append(f"lift({delta}, {degree}) should have raised")
    return "exact on the full grid; inconsistency raised exactly when delta*degree > 1"


def run_acceptance(
    cutoff: int | None = None,
    seed: int = 0,
    out: Callable[[str], None] | None = print,
) -> list[CriterionResult]:
    """Run every criterion, emitting one pass/fail line per criterion.

    A cutoff below 3, with no prime below it, is rejected before any criterion runs.
    """
    cutoff = density.DEFAULT_CUTOFF if cutoff is None else int(cutoff)
    if cutoff < 3:
        raise ValueError(f"cutoff must be at least 3, got {cutoff}")
    results = []
    for func in _CRITERIA:
        result = func(cutoff=cutoff, seed=seed)
        results.append(result)
        if out is not None:
            status = "PASS" if result.passed else "FAIL"
            out(f"{status}  criterion {result.index}: {result.title} "
                f"[{result.detail}] ({result.elapsed:.1f}s)")
    return results
