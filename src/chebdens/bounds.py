"""Explicit constants for the index-bound pipeline over a splitting tower.

Starting from a positive density omega of primes that both lie in a set S
and split completely in a degree-m Galois extension, the pipeline picks the
minimal number r of linearly disjoint degree-t extensions that forces the
selection margin theta above omega/2, sets delta = omega/(2r), and produces
the universal divisor bound n = ((floor(1/delta) + 1)!)^d * rho(d) for the
closure index of a d-dimensional torus.  n is astronomically large in
general, so the factored form is primary and exact materialization is gated
by a digit limit.

Every r the search returns is certified: a fixed-point enclosure of
(1 - 1/t)^r (128 bits beyond those of omega's denominator, rounded down and
up, O(log r) squarings) decides each comparison with omega*m/2, and exact
integer powers decide only the comparisons the enclosure leaves open.  The condition is monotone in r,
so one comparison at the cap either refuses, which is itself a certificate,
or starts a bisection whose answer holds at r and fails at r - 1.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .calculus import TowerSpec, _tower_power, as_density, tower_theta
from .errors import HypothesisFailureError, InconsistencyError, InvariantViolationError, ResourceLimitError
from .weyl import GroupConstants, RootSystemType, constants_for_group, parse_type

#: Largest r the exact search will certify before giving up.
DEFAULT_R_CAP = 100_000

#: Materialize n exactly only below this many decimal digits.
DEFAULT_MATERIALIZE_LIMIT = 100_000

_LOG10 = math.log(10.0)


def decimal_digits(n: int) -> int:
    """Exact decimal length of a nonnegative integer, from one power of 5.

    Let L = n.bit_length(), so 2^(L-1) <= n < 2^L, and c = 30102999566398/10^14,
    which lies below log10(2) by e < 1.2e-15.  With k0 = floor((L-1)*c):

    * log10(n) >= (L-1)*log10(2) >= (L-1)*c >= k0, and
    * log10(n) < L*log10(2) = (L-1)*c + (L-1)*e + log10(2) < k0 + 1 + (L-1)*e + 0.302,

    so floor(log10(n)) is k0 or k0 + 1 whenever (L-1)*e < 0.698, that is for
    every n of fewer than 5*10^14 bits, far past any integer that fits in
    memory.  With j = k0 + 1, n >= 10^j exactly when (n >> j) >= 5^j, because
    n >= 2^j * 5^j says floor(n / 2^j) >= 5^j for the integer 5^j.  So one
    power and one comparison decide the length: k0 + 2 digits if it holds,
    else k0 + 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    j = (n.bit_length() - 1) * 30102999566398 // 10**14 + 1
    return j + 1 if n >> j >= 5**j else j


#: Integers up to this many bits (603 digits) are below every allowed str() digit limit (>= 640).
_STR_BITS = 2000


def decimal_str(n: int) -> str:
    """Decimal string of an integer of any size, identical to ``str(n)``.

    Python's int-to-str is quadratic and refuses long outputs; large values
    are split in halves by bit count and recombined as exact decimals
    (hi * 2^k + lo), whose products libmpdec computes in subquadratic time.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        two = decimal.Decimal(2)
        power_of_two = cache(lambda k: two**k)

        def convert(x: int, bits: int) -> decimal.Decimal:
            if bits <= _STR_BITS:
                return decimal.Decimal(x)
            low_bits = bits // 2
            high = x >> low_bits
            return convert(high, bits - low_bits) * power_of_two(low_bits) + convert(
                x - (high << low_bits), low_bits
            )

        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _reciprocal_floor(delta: Fraction) -> int:
    """floor(1/delta) for a positive rational delta, exactly."""
    return delta.denominator // delta.numerator


def _validate_delta(delta) -> Fraction:
    delta = as_density(delta)
    if delta == 0:
        raise ValueError("delta must be positive")
    return delta


@dataclass(frozen=True)
class FactoredBound:
    """The bound (factorial_of!)^power * times, kept in factored form."""

    factorial_of: int
    power: int
    times: int

    def value(self) -> int:
        return math.factorial(self.factorial_of) ** self.power * self.times

    def digit_count_estimate(self) -> int:
        """Decimal length from Stirling/lgamma; reliable away from digit boundaries."""
        log10 = (self.power * math.lgamma(self.factorial_of + 1) + math.log(self.times)) / _LOG10
        return int(log10) + 1

    def __str__(self) -> str:
        base = f"({self.factorial_of}!)^{self.power}"
        return base if self.times == 1 else f"{base} * {self.times}"


@dataclass(frozen=True)
class BoundReport:
    """All constants produced by the pipeline for one (type, m, omega, rho) input."""

    type: RootSystemType
    d: int
    c: int
    m: int
    t: int
    omega: Fraction
    r: int
    theta: Fraction
    delta: Fraction
    nu_arg: int
    rho: int
    n_factored: FactoredBound
    n_digits: int
    n_exact: int | None
    idele_index: int
    valuation_budget: int


def _condition(m: int, t: int, r: int, omega: Fraction) -> bool:
    """Exact test of (1/m) * (1 - 1/t)^r < omega / 2, with t^r from ``_tower_power``."""
    return 2 * omega.denominator * (t - 1) ** r < omega.numerator * m * _tower_power(t, r)


#: Fractional bits of the fixed-point enclosure beyond those of omega's denominator.
_FIXED_BITS = 128


def _power_bounds(t: int, r: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= (1 - 1/t)^r * 2^bits <= hi, by squaring.

    lo rounds every factor and product down and hi rounds them up; all
    values are nonnegative, so each side keeps its direction (both are
    2^bits for r <= 0).
    """
    lo = hi = 1 << bits
    base_lo = ((t - 1) << bits) // t
    base_hi = -(-((t - 1) << bits) // t)
    while r > 0:
        if r & 1:
            lo = (lo * base_lo) >> bits
            hi = -(-(hi * base_hi) >> bits)
        r >>= 1
        base_lo = (base_lo * base_lo) >> bits
        base_hi = -(-(base_hi * base_hi) >> bits)
    return lo, hi


def _holds(m: int, t: int, r: int, omega: Fraction) -> bool:
    """``_condition(m, t, r, omega)``, decided by the enclosure unless it straddles omega*m/2."""
    a, b = omega.numerator, omega.denominator
    bits = _FIXED_BITS + b.bit_length()  # omega*m/2 >= 1/(2b) then spans >= 2^(_FIXED_BITS-1) units
    lo, hi = _power_bounds(t, r, bits)
    rhs = (a * m) << bits
    if 2 * b * hi < rhs:
        return True
    if 2 * b * lo >= rhs:
        return False
    return _condition(m, t, r, omega)


def minimal_tower_count(m: int, t: int, omega, r_cap: int = DEFAULT_R_CAP) -> int:
    """Minimal r >= 1 with (1/m) * (1 - 1/t)^r < omega/2, certified exactly.

    omega must satisfy 0 < omega <= 1/m (it is the density of a subset of a
    set of density 1/m).  When the minimal r exceeds ``r_cap`` (very large t
    combined with tiny omega) this raises a resource error rather than
    returning an uncertified answer.
    """
    m = int(m)
    t = int(t)
    if m < 1 or t < 2:
        raise ValueError("need m >= 1 and t >= 2")
    omega = as_density(omega)
    if omega == 0:
        raise HypothesisFailureError(
            "omega = 0 violates the positivity hypothesis \U0001d521_K(S∩Spl(M/K)) > 0"
        )
    if omega > Fraction(1, m):
        raise InconsistencyError(
            f"omega = {omega} exceeds the splitting-set density 1/m = 1/{m}"
        )
    if not _holds(m, t, r_cap, omega):
        raise ResourceLimitError(
            f"minimal r exceeds the certification cap {r_cap} for t = {t}; "
            "raise r_cap to spend the extra exact-arithmetic effort"
        )
    # the condition fails at r = 0 (omega <= 1/m) and holds at r_cap
    low, high = 0, r_cap
    while high - low > 1:
        mid = (low + high) // 2
        if _holds(m, t, mid, omega):
            high = mid
        else:
            low = mid
    return high


def factorial_bound(delta) -> int:
    """(floor(1/delta) + 1)! -- divisible by every positive integer <= 1/delta + 1.

    Monotone under refinement: shrinking delta can only multiply the value,
    so the bound for a smaller delta is divisible by the bound for a larger
    one.
    """
    delta = _validate_delta(delta)
    return math.factorial(_reciprocal_floor(delta) + 1)


def _materialized_bound(
    factorial_of: int, d: int, rho: int, materialize_limit: int
) -> tuple[FactoredBound, int | None]:
    """(factorial_of!)^d * rho factored, and exact unless past ``materialize_limit`` digits."""
    d = int(d)
    rho = int(rho)
    if d < 1:
        raise ValueError("d must be a positive integer")
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    factored = FactoredBound(factorial_of, d, rho)
    if factored.digit_count_estimate() <= materialize_limit:
        return factored, factored.value()
    return factored, None


def index_divisor_bound(
    delta,
    d: int,
    rho: int = 1,
    materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT,
) -> int | FactoredBound:
    """factorial_bound(delta)^d * rho: divisor bound for a rank-d torus closure index.

    Returns the exact integer when its decimal length fits under
    ``materialize_limit``; otherwise the factored form.  Fixing rho, the map
    delta -> bound is super-decreasing: the value at a larger delta divides
    the value at any smaller delta (factorial divisibility raised to the
    same power).
    """
    delta = _validate_delta(delta)
    factored, exact = _materialized_bound(_reciprocal_floor(delta) + 1, d, rho, materialize_limit)
    return factored if exact is None else exact


def idele_index_bound(delta) -> int:
    """floor(1/delta): the closure index is an integer bounded by 1/delta."""
    delta = _validate_delta(delta)
    return _reciprocal_floor(delta)


def csp_bound_pipeline(
    rst_type: RootSystemType | str,
    m: int,
    omega,
    rho: int = 1,
    materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT,
    r_cap: int = DEFAULT_R_CAP,
) -> BoundReport:
    """Run the whole constant pipeline for one group type and base configuration.

    Looks up (d, w, c) for the type, sets t = w (a generic maximal torus has
    splitting degree w over the inner-form base), certifies the minimal r,
    checks theta > omega/2 (guaranteed by the choice of r), and assembles
    delta = omega/(2r) with the factored divisor bound, the idele-index
    bound floor(1/delta), and the valuation budget c*r needed to pin down r
    independent generic tori.

    rho is a caller-supplied positive integer (default 1): the rank-only
    cohomology factor rho(d) has no closed form here, so reports built with
    the default understate n by exactly that factor.
    """
    constants: GroupConstants = constants_for_group(parse_type(rst_type))
    m = int(m)
    omega = as_density(omega)
    t = constants.t
    r = minimal_tower_count(m, t, omega, r_cap=r_cap)
    theta_bound = tower_theta(omega, TowerSpec(m=m, t=t, r=r))
    if not theta_bound.theta > omega / 2:
        raise InvariantViolationError(
            f"theta = {theta_bound.theta} failed to exceed omega/2 = {omega / 2} "
            f"despite minimal r = {r}; this should be impossible"
        )
    delta = omega / (2 * r)
    nu_arg = _reciprocal_floor(delta) + 1
    factored, n_exact = _materialized_bound(nu_arg, constants.d, rho, materialize_limit)
    n_digits = factored.digit_count_estimate() if n_exact is None else decimal_digits(n_exact)
    return BoundReport(
        type=parse_type(rst_type),
        d=constants.d,
        c=constants.c,
        m=m,
        t=t,
        omega=omega,
        r=r,
        theta=theta_bound.theta,
        delta=delta,
        nu_arg=nu_arg,
        rho=factored.times,
        n_factored=factored,
        n_digits=n_digits,
        n_exact=n_exact,
        idele_index=idele_index_bound(delta),
        valuation_budget=constants.c * r,
    )


def _fraction_str(x: Fraction) -> str:
    return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"


def report_to_dict(report: BoundReport) -> dict:
    """JSON-ready dictionary: rationals as 'p/q' strings, big integers as strings."""
    return {
        "type": str(report.type),
        "d": report.d,
        "c": report.c,
        "m": report.m,
        "t": report.t,
        "omega": _fraction_str(report.omega),
        "r": report.r,
        "theta": _fraction_str(report.theta),
        "delta": _fraction_str(report.delta),
        "nu_arg": report.nu_arg,
        "rho": report.rho,
        "n_factored": {
            "factored": {
                "factorial_of": report.n_factored.factorial_of,
                "power": report.n_factored.power,
                "times": report.n_factored.times,
            }
        },
        "n_digits": report.n_digits,
        "n_exact": decimal_str(report.n_exact) if report.n_exact is not None else None,
        "idele_index": report.idele_index,
        "valuation_budget": report.valuation_budget,
        "omega_provenance": "user",  # omega is always the caller's input
    }
