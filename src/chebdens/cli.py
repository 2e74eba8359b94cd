"""Command-line surface: splitting scans, density tables, exact calculus,
Weyl constants, bound reports, and the verification suite.

JSON (sorted keys, default float repr) is the default output format so that
identical invocations produce byte-identical output; ``csv`` and ``human``
are available where tabular.  Errors print a diagnostic to stderr and exit
nonzero; stdout carries data only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import acceptance, calculus, density, splitting, weyl
from .bounds import (DEFAULT_MATERIALIZE_LIMIT, _STR_BITS, _fraction_str, csp_bound_pipeline,
                     decimal_str, report_to_dict)
from .errors import ModelFormatError, ResourceLimitError
from .primes import PrimeRange, iter_prime_segments

_CUTOFF_ENV = "CHEBDENS_CUTOFF"


def _default_cutoff() -> int:
    value = os.environ.get(_CUTOFF_ENV)
    return int(value) if value else density.DEFAULT_CUTOFF


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/8, got {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _swap_long_ints(value, longs: list[int]):
    """``value`` with each int too long for str(), also inside dicts, lists and tuples,
    moved to the end of ``longs`` and replaced by NUL and its index there."""
    if isinstance(value, dict):
        return {key: _swap_long_ints(item, longs) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_swap_long_ints(item, longs) for item in value]
    if isinstance(value, int) and value.bit_length() > _STR_BITS:
        longs.append(value)
        return f"\0{len(longs) - 1}"
    return value


def _emit_json(payload) -> None:
    # json.dumps takes the C encoder; json.dump to a stream never does.  A Fraction is written
    # as "n/d" at any length, and an int too long for str() as its placeholder's digits.
    longs: list[int] = []
    text = json.dumps(_swap_long_ints(payload, longs), sort_keys=True, default=_fraction_str)
    for k, value in enumerate(longs):
        text = text.replace(f'"\\u0000{k}"', decimal_str(value))
    sys.stdout.write(text + "\n")


def _model_from_args(args) -> splitting.GaloisExtensionModel:
    if args.model:
        return splitting.load_model(args.model)
    if args.poly:
        coeffs = _parse_int_list(args.poly)
        order = args.galois_order
        if order is None:
            raise ModelFormatError("--galois-order is required with --poly")
        bad = _parse_int_list(args.bad_primes) if args.bad_primes else None
        return splitting.splitting_field_model(coeffs, order, bad)
    if args.modulus is not None:
        if args.residues is None:
            raise ModelFormatError("--residues is required with --modulus")
        return splitting.abelian_model(args.modulus, _parse_int_list(args.residues))
    raise ModelFormatError("give --model FILE, or --poly ... --galois-order N, or --modulus/--residues")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="path to a JSON model description file")
    parser.add_argument("--poly", help="monic polynomial coefficients, constant term first (e.g. '1,0,1')")
    parser.add_argument("--galois-order", type=int, help="degree of the splitting field")
    parser.add_argument("--bad-primes", help="explicit excluded primes (comma separated)")
    parser.add_argument("--modulus", type=int, help="abelian model conductor")
    parser.add_argument("--residues", help="abelian model residue subgroup (comma separated)")


_PROGRESS_EVERY = 200_000


def _scan_blocks(model, segments, ramified: list[int]):
    """The engine blocks of the primes of ``segments`` outside ``ramified``:
    per block, its primes, one shape index per prime, and its shapes' records.

    A record holds ``splits`` and, for a splitting-field model,
    ``cycle_type``, but not ``p``; an abelian model gives one block with two
    shapes per segment.  When a prime fails a check, the block of the primes
    before it is yielded, then its error is raised.  ``iter_prime_segments``
    checked the range when it made ``segments``, before any output.
    """
    for primes in segments:
        primes = primes[~np.isin(primes, ramified)]
        if isinstance(model, splitting.SplittingFieldModel):
            for block, index, shapes in splitting._cycle_types(model, primes):
                yield block.tolist(), index.tolist(), [
                    {"splits": s.degrees[-1] == 1, "cycle_type": list(s.degrees)} for s in shapes]
        elif primes.size:  # a segment may hold only ramified primes
            splits = splitting.split_mask(model, primes).tolist()
            yield primes.tolist(), splits, ({"splits": False}, {"splits": True})


#: Help text and record columns (in output order) of each scan command.
_SCAN_COMMANDS = {
    "spl": ("complete-splitting scan over a prime range", ("p", "splits", "cycle_type")),
    "frob": ("Frobenius cycle types over a prime range", ("p", "cycle_type")),
}
_HUMAN_LABELS = {"p": "p", "splits": "splits", "cycle_type": "cycle"}


def _csv_cell(column: str, value) -> str:
    if column == "cycle_type":
        return "|".join(map(str, value))
    return str(int(value))


def _cmd_scan(args) -> int:
    """``spl`` and ``frob``: the scan records restricted to ``args.columns``.

    A column a record lacks (cycle types of an abelian model) is left out of
    JSON and human lines and written empty in CSV; a scan without a
    ``splits`` column needs cycle types, so it rejects abelian models.  Each
    distinct record of a block is encoded once, with p = -1 (no other field
    holds a minus sign), and each prime splices ``str(p)`` in its place; CSV
    and human lines are written a block at a time, after its progress lines.
    """
    columns = args.columns
    model = _model_from_args(args)
    if "splits" not in columns and not isinstance(model, splitting.SplittingFieldModel):
        raise ModelFormatError("cycle types require a splitting_field model")
    ramified = splitting.ramified_primes_in(model, args.lo, args.hi)
    segments = iter_prime_segments(PrimeRange(args.lo, args.hi))  # checks the range before any output
    if args.format == "json":
        sep, encode = ", ", lambda rec: json.dumps({col: rec[col] for col in columns if col in rec},
                                                   sort_keys=True)
    elif args.format == "csv":
        print(",".join(columns))
        sep, encode = "\n", lambda rec: ",".join(
            _csv_cell(col, rec[col]) if col in rec else "" for col in columns)
    else:
        print(f"# ramified: {ramified}")
        sep, encode = "\n", lambda rec: " ".join(
            f"{_HUMAN_LABELS[col]}={rec[col]}" for col in columns if col in rec)
    body, done = [], 0
    for block, index, records in _scan_blocks(model, segments, ramified):
        for at in range((-done - 1) % _PROGRESS_EVERY, len(block), _PROGRESS_EVERY):
            print(f"... {done + at + 1} primes scanned, at p = {block[at]}", file=sys.stderr)
        done += len(block)
        parts = [encode({"p": -1, **rec}).split("-1") for rec in records]
        text = sep.join([str(p).join(parts[i]) for p, i in zip(block, index)])
        if args.format == "json":
            body += (sep, text)
        elif block:  # an empty block precedes an error
            print(text)
    if args.format == "json":
        # "records" sorts last, so the block texts go between its brackets
        head = json.dumps({"model": splitting.model_to_dict(model), "range": [args.lo, args.hi],
                           "ramified": ramified, "records": []}, sort_keys=True)
        sys.stdout.writelines([head[:-2], *body[1:], "]}\n"])
    return 0


def _cmd_density(args) -> int:
    model = _model_from_args(args)
    cutoffs = _parse_int_list(args.cutoffs) if args.cutoffs else [_default_cutoff()]
    reference = density.chebotarev_reference(model)
    if args.kind == "natural":
        rows = density.natural_convergence_rows(model, cutoffs, reference=reference)
    else:
        grid = _parse_float_list(args.s_grid) if args.s_grid else density.DEFAULT_S_GRID
        rows = density.dirichlet_convergence_rows(model, cutoffs, grid, reference=reference)
        if args.kind == "upper":
            for row in rows:
                row["estimator"] = "max over grid tail"
    if args.format == "csv":
        density.write_convergence_csv(rows, sys.stdout)
    elif args.format == "json":
        _emit_json({"kind": args.kind, "reference": reference, "rows": rows})
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def _whole(value: Fraction) -> int:
    """An integer argument of a calculus operation; a non-integral value is an error."""
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return value.numerator


# bits a tower operation may build, estimated as r * t.bit_length(): about 3 s and
# 5 MB of output at the budget, while r = 10^9 and t = 51 840 would build 2 GB integers
_TOWER_BITS = 1 << 22


def _tower(m: Fraction, t: Fraction, r: Fraction) -> calculus.TowerSpec:
    """The tower of a calculus operation, refused past ``_TOWER_BITS`` before any power is taken."""
    spec = calculus.TowerSpec(_whole(m), _whole(t), _whole(r))
    bits = spec.r * spec.t.bit_length()
    if bits > _TOWER_BITS:
        raise ResourceLimitError(f"a tower with t = {spec.t} and r = {spec.r} needs about {bits} bits, "
                                 f"over the budget of {_TOWER_BITS}")
    return spec


def _inclusion_exclusion(args) -> Fraction:
    if args.densities is None:
        raise ValueError(f"{args.operation} needs --densities")
    table = {}
    for entry in args.densities.split(";"):
        key, _, val = entry.partition(":")
        table[tuple(int(i) for i in key.split(","))] = _parse_fraction(val)
    return calculus.inclusion_exclusion_density(table)


def _ie_check(args) -> dict:
    if args.sets is None:
        raise ValueError(f"{args.operation} needs --sets")
    sets = [[int(x) for x in chunk.split(",") if x.strip()] for chunk in args.sets.split(";")]
    equal, residual = calculus.truncated_inclusion_exclusion_check(sets, args.s)
    return {"equal": equal, "residual": residual}


#: Each calculus operation, in ``--help`` order: how many positional values
#: it reads, and its call on the parsed arguments and those values.
_CALCULUS = {
    "union-bound": (2, lambda _, a, b: calculus.union_upper_bound(a, b)),
    "pigeonhole": (2, lambda _, eps, r: calculus.pigeonhole_threshold(eps, _whole(r))),
    "intersection-bound": (3, lambda _, a, b, c: calculus.intersection_lower_bound(a, b, c)),
    "selection-bound": (4, lambda _, a, u, c, r: vars(calculus.selection_lower_bound(a, u, c, _whole(r)))),
    "disjoint-union": (3, lambda _, m, t, r: calculus.disjoint_union_density(_tower(m, t, r))),
    "tower-theta": (4, lambda _, omega, m, t, r: vars(calculus.tower_theta(omega, _tower(m, t, r)))),
    "compositum-degree": (4, lambda _, m, t, r, k: calculus.compositum_degree(_tower(m, t, r), _whole(k))),
    "lift-density": (2, lambda _, delta, degree: density.lift_density(delta, _whole(degree))),
    "inclusion-exclusion": (0, _inclusion_exclusion),
    "ie-check": (0, _ie_check),
}


def _cmd_calculus(args) -> int:
    op = args.operation
    need, call = _CALCULUS[op]
    if len(args.values) < need:
        raise ValueError(f"{op} needs {need} values, got {len(args.values)}")
    _emit_json({"operation": op, "result": call(args, *args.values[:need])})
    return 0


def _cmd_weyl(args) -> int:
    rst_type = weyl.parse_type(args.type)
    constants = weyl.constants_for_group(rst_type)
    payload = {
        "type": str(rst_type),
        "d": constants.d,
        "w": constants.w,
        "c": constants.c,
        "degrees": list(weyl.invariant_degrees(rst_type)),
    }
    if args.enumerate:
        order, classes = weyl.enumerated_constants(rst_type, cap=args.cap)
        payload["enumerated"] = {"w": order, "c": classes}
    _emit_json(payload)
    return 0


# digits of n a bounds report may materialize: about 1 s and 1 MB of output at the
# budget, while --materialize-limit 10^9 would have E6 (m = 1, omega = 1/2) write
# its 8.7 * 10^6-digit n, 9.3 MB, in about 23 s
_MATERIALIZE_DIGITS = 10**6


def _cmd_bounds(args) -> int:
    """The pipeline report; an n past ``_MATERIALIZE_DIGITS`` that the limit asks for is refused,
    before its factorial is taken."""
    report = csp_bound_pipeline(
        args.type,
        args.m,
        args.omega,
        rho=args.rho,
        materialize_limit=min(args.materialize_limit, _MATERIALIZE_DIGITS),
    )
    if report.n_exact is None and report.n_digits <= args.materialize_limit:
        raise ResourceLimitError(f"materializing n of about {report.n_digits} digits is over the "
                                 f"budget of {_MATERIALIZE_DIGITS}")
    if args.rho == 1:
        print(
            "warning: rho(d) left at its default of 1; n omits the rank-only "
            "cohomology factor, supply --rho to include a bound for it",
            file=sys.stderr,
        )
    _emit_json(report_to_dict(report))
    return 0


def _cmd_verify(args) -> int:
    cutoff = args.cutoff if args.cutoff is not None else _default_cutoff()
    results = acceptance.run_acceptance(cutoff=cutoff, seed=args.seed)
    return 0 if all(res.passed for res in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebdens",
        description="Prime splitting, density estimation, exact density calculus, "
        "Weyl constants, and index-bound pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, columns) in _SCAN_COMMANDS.items():
        p_scan = sub.add_parser(name, help=help_text)
        _add_model_arguments(p_scan)
        p_scan.add_argument("--lo", type=int, default=2)
        p_scan.add_argument("--hi", type=int, required=True)
        p_scan.add_argument("--format", choices=("json", "csv", "human"), default="json")
        p_scan.set_defaults(handler="_cmd_scan", columns=columns)

    p_density = sub.add_parser("density", help="density convergence tables")
    _add_model_arguments(p_density)
    p_density.add_argument("--kind", choices=("natural", "dirichlet", "upper"), default="natural")
    p_density.add_argument("--cutoffs", help="comma-separated cutoffs (default: env or 10^7)")
    p_density.add_argument("--s-grid", help="comma-separated s values > 1")
    p_density.add_argument("--format", choices=("json", "csv", "human"), default="json")
    p_density.set_defaults(handler="_cmd_density")

    p_calc = sub.add_parser("calculus", help="exact rational density operations")
    p_calc.add_argument("operation", choices=tuple(_CALCULUS))
    p_calc.add_argument("values", nargs="*", type=_parse_fraction,
                        help="positional rational arguments for the chosen operation")
    p_calc.add_argument("--densities", help="inclusion-exclusion table like '1:1/2;2:1/2;1,2:1/4'")
    p_calc.add_argument("--sets", help="finite prime sets like '2,3,5;3,5,7'")
    p_calc.add_argument("--s", type=int, default=2, help="integer exponent for ie-check")
    p_calc.set_defaults(handler="_cmd_calculus")

    p_weyl = sub.add_parser("weyl", help="Weyl constants (d, w, c, degrees) for a type")
    p_weyl.add_argument("type", help="root system type, e.g. A1, D4, E8")
    p_weyl.add_argument("--enumerate", action="store_true",
                        help="cross-check with the brute-force enumeration oracle")
    p_weyl.add_argument("--cap", type=int, default=weyl.DEFAULT_ENUMERATION_CAP)
    p_weyl.set_defaults(handler="_cmd_weyl")

    p_bounds = sub.add_parser("bounds", help="full constant pipeline report")
    p_bounds.add_argument("--type", required=True, help="root system type, e.g. A1")
    p_bounds.add_argument("--m", type=int, required=True, help="degree of the base Galois extension")
    p_bounds.add_argument("--omega", type=_parse_fraction, required=True,
                          help="density of S intersected with the splitting set, e.g. 1/2")
    p_bounds.add_argument("--rho", type=int, default=1)
    p_bounds.add_argument("--materialize-limit", type=int, default=DEFAULT_MATERIALIZE_LIMIT,
                          help="materialize n exactly only below this many digits")
    p_bounds.set_defaults(handler="_cmd_bounds")

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--cutoff", type=int, help=f"prime cutoff (default: ${_CUTOFF_ENV} or 10^7)")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the randomized criteria")
    p_verify.set_defaults(handler="_cmd_verify")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.handler](args)  # looked up per call, so a patched handler runs
    except BrokenPipeError:
        return 0
    # bad input exits 1 (argparse handles its own errors); a bug raises its traceback
    except (ValueError, argparse.ArgumentTypeError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
