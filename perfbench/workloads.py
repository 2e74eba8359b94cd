"""The three benchmark workloads: seeded inputs, the timed calls, and output checks.

A pass is one batch of jobs generated from (workload, seed, pass index).
Long range scans are split into consecutive sub-ranges, one call each, so
that every timed call is short.  Random choices that set a job's cost are
stratified, so that every pass has the same mix of cheap and dear jobs.
Each job is timed on its own; its output is checked afterwards against
``oracle`` (code that never calls chebdens) and, when the job's key was
recorded in ``digests.json``, against the recorded output digest, so a
speed-up that changes any output byte counts as a failure.

* ``census``: density tables at cutoffs up to 10^7.  The batched
  x^p mod (f, p) ladder in ``splitting.split_mask`` does most of the work;
  rows of 664 579 primes overflow the L2 cache, cutoff tables recompute
  masks per cutoff, and a window above 2^26 keeps the scalar fallback in
  play.  ``weyl`` and ``bounds`` do no work here.
* ``scan``: ``chebdens frob`` / ``spl`` called in process through
  ``cli.main``.  The per-prime distinct-degree factorization in
  ``splitting.frobenius_cycle_type`` dominates, on small primes and on
  primes above 2^26, plus the range sieve and JSON encoding.
* ``queries``: many small interactive calls in a fixed class mix.
  ``bounds``, ``weyl`` and ``calculus`` do nearly all the work; ``density``
  is reached through its exact-Fraction zeta sums.  E7/E8 pipelines are
  refused with ``ResourceLimitError`` at the seed code, which is the only
  refusal allowed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

import oracle

# name -> (coefficients constant term first, Galois order, discriminant, ramified primes)
POLYS = {
    "x2+1": ((1, 0, 1), 2, -4, (2,)),
    "x3-2": ((-2, 0, 0, 1), 6, -108, (2, 3)),
    "x4+2": ((2, 0, 0, 0, 1), 8, 2048, (2,)),
    "x5-x-1": ((-1, -1, 0, 0, 0, 1), 120, 2869, (19, 151)),
}
QUADRATIC_PRIMES = (2, 3, 5, 7, 11, 13)
for _q in QUADRATIC_PRIMES:
    POLYS[f"x2-{_q}"] = ((-_q, 0, 1), 2, 4 * _q, tuple(sorted({2, _q})))

# full-splitting oracles over arrays of unramified primes
SPLIT_ORACLES = {
    "x2+1": oracle.splits_x2_plus_1,
    "x3-2": oracle.splits_x3_minus_2,
    "x4+2": oracle.splits_x4_plus_2,
    **{f"x2-{q}": (lambda p, q=q: oracle.splits_x2_minus(q, p)) for q in QUADRATIC_PRIMES},
}

# abelian models for the exact zeta sums: primes = 1 mod 4 and primes = 1 mod 8
ABELIAN = {"mod4": (4, (1,)), "mod8": (8, (1,))}

# same list as the acceptance suite's criterion 6
ORACLE_TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4",
                "D4", "D5", "D6", "G2", "F4", "E6")
PIPELINE_TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "B5",
                  "C3", "C4", "D4", "D5", "D6", "G2", "F4", "E6")
REFUSED_TYPES = ("E7", "E8")

# k > 1 is drawn only while r ~ t*log(2k) stays below this, so A7, D6 and
# E6 (t*log 2 = 27 948, 15 970, 35 933) always run at k = 1: every pipeline
# stays under the default r_cap of 10^5, no call takes much over a second,
# and the pipeline class costs about the same in every pass.
PIPELINE_R_LIMIT = 20_000

HIGH_PRIME = 1 << 26
CHUNKS = 10  # consecutive sub-ranges per range scan, one call each
SAMPLE = 64  # mask entries / scan records re-checked by root count per job


@dataclass
class Job:
    kind: str
    params: dict
    key: str | None  # digest key; None for outputs allowed to change (refusals)


def _key(kind: str, params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return f"{kind}/{hashlib.sha256(blob).hexdigest()[:16]}"


def _job(kind: str, digest: bool = True, **params) -> Job:
    return Job(kind, params, _key(kind, params) if digest else None)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _chunks(lo: int, hi: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into CHUNKS consecutive sub-ranges of (nearly) equal width."""
    cuts = [lo + (hi - lo) * i // CHUNKS for i in range(CHUNKS + 1)]
    return list(zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# input generation

def census_jobs(seed: int, pass_index: int, small: bool) -> list[Job]:
    rng = _rng("census", seed, pass_index)
    top = 10**5 if small else 10**7
    mid = top // 10
    quads = sorted(rng.sample(QUADRATIC_PRIMES, 3))
    width = 2_000 if small else 200_000
    lo = HIGH_PRIME + rng.randrange(1 << 20)
    return [
        _job("nat_rows", poly="x3-2", cutoffs=[top // 1000, top // 100, mid, top]),
        _job("dir_rows", poly="x2+1", cutoffs=[mid, top]),
        _job("quadratics", quads=quads, cutoff=mid),
        _job("quartic_density", poly="x4+2", cutoff=mid),
        *(_job("window_mask", poly="x3-2", lo=a, hi=b) for a, b in _chunks(lo, lo + width)),
    ]


def scan_jobs(seed: int, pass_index: int, small: bool) -> list[Job]:
    rng = _rng("scan", seed, pass_index)
    scale = 50 if small else 1
    lo = HIGH_PRIME + rng.randrange(1 << 20)
    scans = [("frob", "x3-2", 2, 100_000 // scale),
             ("frob", "x5-x-1", 2, 50_000 // scale),
             ("spl", "x2+1", 2, 100_000 // scale),
             ("spl", "x4+2", lo, lo + 100_000 // scale)]
    return [_job("cli", command=command, poly=poly, lo=a, hi=b)
            for command, poly, start, stop in scans for a, b in _chunks(start, stop)]


def _k_max(label: str) -> int:
    t = oracle.WEYL_TABLE[label][0]
    k = 1
    while k < 20 and t * math.log(2 * (k + 1)) <= PIPELINE_R_LIMIT:
        k += 1
    return k


def _random_density(rng: random.Random, hi: Fraction) -> Fraction:
    return hi * Fraction(rng.randint(0, 48), 48)


def queries_jobs(seed: int, pass_index: int, small: bool) -> list[Job]:
    """One pass: a fixed count per query class, parameters and order from the seed.

    Full size is 400 queries: 19 pipelines (each type up to E6 once), 2
    refused E7/E8 pipelines, the 17 enumeration-oracle types, 120 calculus
    calls, 64 exact zeta sums and 178 single-prime splitting calls.  With
    400 queries the 95th percentile falls among the many zeta sums, mid-size
    pipelines and enumerations of 40-80 ms, not at the edge of the ten
    dearest queries, whose costs are far apart.
    """
    rng = _rng("queries", seed, pass_index)
    jobs: list[Job] = []
    pipeline_types = ("A2", "B3") if small else PIPELINE_TYPES
    for label in pipeline_types:
        m, k = rng.randint(1, 4), rng.randint(1, _k_max(label))
        jobs.append(_job("pipeline", type=label, m=m, omega=f"1/{m * k}"))
    for label in REFUSED_TYPES[:1] if small else REFUSED_TYPES:
        m, k = rng.randint(1, 4), rng.randint(1, 20)
        jobs.append(_job("pipeline", digest=False, type=label, m=m, omega=f"1/{m * k}"))
    for label in ("A2", "B2", "G2") if small else ORACLE_TYPES:
        jobs.append(_job("enumerate", type=label))
    per_class = 1 if small else 40
    for i in range(per_class):
        r, universe = 2 + i % 3, 48
        sets = [set(rng.sample(range(universe), rng.randint(1, universe - 1))) for _ in range(r)]
        table = [[list(combo), str(Fraction(len(set.intersection(*(sets[c - 1] for c in combo))),
                                            universe))]
                 for size in range(1, r + 1) for combo in combinations(range(1, r + 1), size)]
        jobs.append(_job("ie_density", sets=[sorted(s) for s in sets], universe=universe,
                         table=table))
    for _ in range(per_class):
        dc = Fraction(rng.randint(1, 48), 48)
        da0, dunion = _random_density(rng, dc), _random_density(rng, dc)
        jobs.append(_job("selection", da0=str(da0), dunion=str(dunion), dc=str(dc),
                         r=rng.randint(1, 6)))
    pool = oracle.primes_between(2, 10**4).tolist()
    # set counts cycle through 1..5 and set sizes are stratified over [0, 120]
    for i in range(per_class):
        size = int(120 * (i + rng.random()) / per_class)
        sets = [sorted(rng.sample(pool, size)) for _ in range(1 + i % 5)]
        jobs.append(_job("ie_check", sets=sets, s=2 + i % 2))
    # cutoffs stratified over [10^4, 10^5] on a log scale, so every pass sums
    # about the same number of terms; (model, s) cycles through all four pairs
    lo_exp, hi_exp = (3.0, 3.7) if small else (4.0, 5.0)
    count = 2 if small else 64
    pairs = [(model, s) for model in sorted(ABELIAN) for s in (2, 3)]
    for i in range(count):
        exponent = lo_exp + (hi_exp - lo_exp) * (i + rng.random()) / count
        model, s = pairs[i % len(pairs)]
        jobs.append(_job("zeta", model=model, s=s, cutoff=int(round(10**exponent, -3))))
    # each (call, polynomial) pair gets the same share; p is stratified over
    # [10^9, 10^12] on a log scale
    count = 4 if small else 178
    for i in range(count):
        name = ("x2+1", "x3-2", "x4+2", "x5-x-1")[i // 2 % 4]
        p = oracle.next_prime(int(10 ** (9 + 3 * (i + rng.random()) / count)))
        jobs.append(_job("splits" if i % 2 else "cycle_type", poly=name, p=p))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# set-up: model construction (discriminants and their factorization)

def build_models(cd, jobs: list[Job]) -> dict:
    names: set[str] = set()
    for job in jobs:
        p = job.params
        names.update(f"x2-{q}" for q in p.get("quads", ()))
        if job.kind != "cli":
            if "poly" in p:
                names.add(p["poly"])
            if "model" in p:
                names.add(p["model"])
    models = {}
    for name in sorted(names):
        if name in ABELIAN:
            modulus, residues = ABELIAN[name]
            models[name] = cd.splitting.abelian_model(modulus, residues)
        else:
            poly, order, _, _ = POLYS[name]
            models[name] = cd.splitting.splitting_field_model(poly, order)
    return models


# ---------------------------------------------------------------------------
# timed calls

def run_job(cd, models: dict, job: Job):
    p = job.params
    kind = job.kind
    if kind == "nat_rows":
        model = models[p["poly"]]
        return cd.density.natural_convergence_rows(
            model, p["cutoffs"], reference=cd.density.chebotarev_reference(model))
    if kind == "dir_rows":
        model = models[p["poly"]]
        return cd.density.dirichlet_convergence_rows(
            model, p["cutoffs"], cd.density.DEFAULT_S_GRID,
            reference=cd.density.chebotarev_reference(model))
    if kind == "quadratics":  # union mask, then each member's density (masks again)
        quads = [models[f"x2-{q}"] for q in p["quads"]]
        primes = cd.primes.primes_upto(p["cutoff"])
        masks = [cd.splitting.split_mask(model, primes) for model in quads]
        return {"primes": primes, "masks": masks, "union": np.logical_or.reduce(masks),
                "estimates": [cd.density.natural_density_estimate(model, p["cutoff"])
                              for model in quads]}
    if kind == "quartic_density":
        return cd.density.natural_density_estimate(models[p["poly"]], p["cutoff"])
    if kind == "window_mask":
        primes = cd.primes.sieve_primes(cd.primes.PrimeRange(p["lo"], p["hi"]))
        return {"primes": primes, "mask": cd.splitting.split_mask(models[p["poly"]], primes)}
    if kind == "cli":
        poly, order, _, _ = POLYS[p["poly"]]
        argv = [p["command"], "--poly=" + ",".join(map(str, poly)), "--galois-order",
                str(order), "--lo", str(p["lo"]), "--hi", str(p["hi"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cd.cli.main(argv)
        return {"code": code, "text": buf.getvalue()}
    if kind == "pipeline":
        try:
            return cd.bounds.csp_bound_pipeline(p["type"], p["m"], Fraction(p["omega"]))
        except cd.errors.ResourceLimitError as exc:
            return {"refused": str(exc)}
    if kind == "enumerate":
        return cd.weyl.enumerated_constants(p["type"])
    if kind == "ie_density":
        return cd.calculus.inclusion_exclusion_density({tuple(k): v for k, v in p["table"]})
    if kind == "selection":
        return cd.calculus.selection_lower_bound(p["da0"], p["dunion"], p["dc"], p["r"])
    if kind == "ie_check":
        return cd.calculus.truncated_inclusion_exclusion_check(p["sets"], p["s"])
    if kind == "zeta":
        return cd.density.partial_zeta(models[p["model"]], p["s"], p["cutoff"])
    if kind == "splits":
        return cd.splitting.splits_completely(models[p["poly"]], p["p"])
    if kind == "cycle_type":
        return cd.splitting.frobenius_cycle_type(models[p["poly"]], p["p"])
    raise ValueError(f"unknown job kind {kind}")


def is_refusal(job: Job, output) -> bool:
    return job.kind == "pipeline" and isinstance(output, dict) and "refused" in output


# ---------------------------------------------------------------------------
# canonical output bytes (digested)

def _int_hex(n: int) -> str:
    raw = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
    return hashlib.sha256(raw).hexdigest()[:16]


def _frac(x: Fraction) -> str:
    return f"{_int_hex(x.numerator)}/{_int_hex(x.denominator)}"


def canonical(job: Job, out) -> bytes:
    kind = job.kind
    if kind in ("nat_rows", "dir_rows"):
        return json.dumps(out, sort_keys=True).encode()
    if kind == "quadratics":
        masks = b"".join(np.packbits(m).tobytes() for m in [*out["masks"], out["union"]])
        return masks + repr([(e.members, e.primes, e.value) for e in out["estimates"]]).encode()
    if kind == "quartic_density":
        return repr((out.members, out.primes, out.value)).encode()
    if kind == "window_mask":
        return out["primes"].tobytes() + np.packbits(out["mask"]).tobytes()
    if kind == "cli":
        return repr(out["code"]).encode() + out["text"].encode()
    if kind == "pipeline":
        n_exact = None if out.n_exact is None else _int_hex(out.n_exact)
        fields = (str(out.type), out.d, out.c, out.m, out.t, str(out.omega), out.r,
                  _frac(out.theta), str(out.delta), out.nu_arg, out.rho, str(out.n_factored),
                  out.n_digits, n_exact, out.idele_index, out.valuation_budget)
        return repr(fields).encode()
    if kind == "ie_check":
        return repr((out[0], str(out[1]))).encode()
    if kind == "selection":
        return repr((str(out.theta), str(out.bound), out.vacuous)).encode()
    if kind == "zeta":
        return repr((out.s, out.cutoff, _frac(out.value))).encode()
    if kind == "cycle_type":
        return repr(out.degrees).encode()
    return repr(out).encode()  # enumerate, ie_density, splits


def digest(job: Job, out) -> str:
    return hashlib.sha256(canonical(job, out)).hexdigest()


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages

class Oracles:
    """Per-pass memo of oracle results, so checks stay cheap."""

    def __init__(self, jobs: list[Job]) -> None:
        self._below: dict[int, np.ndarray] = {}
        self._zeta: dict[tuple[str, int, int], Fraction] = {}
        self._jobs = jobs

    def primes_below(self, hi: int) -> np.ndarray:
        for top, arr in self._below.items():
            if top >= hi:
                return arr[arr < hi]
        self._below[hi] = oracle.primes_between(2, hi)
        return self._below[hi]

    def partial_zeta(self, model: str, s: int, cutoff: int) -> Fraction:
        """Naive exact sum; one running sum serves every cutoff of the pass."""
        if (model, s, cutoff) not in self._zeta:
            cutoffs = sorted({j.params["cutoff"] for j in self._jobs if j.kind == "zeta"
                              and (j.params["model"], j.params["s"]) == (model, s)} | {cutoff})
            modulus, residues = ABELIAN[model]
            primes = self.primes_below(cutoffs[-1]).tolist()
            members = [q for q in primes if modulus % q and q % modulus in residues]
            start, total = 0, Fraction(0)
            for c in cutoffs:
                stop = start
                while stop < len(members) and members[stop] < c:
                    stop += 1
                total += oracle.partial_zeta_naive(members[start:stop], s)
                self._zeta[(model, s, c)] = total
                start = stop
        return self._zeta[(model, s, cutoff)]


def _tolerance(reference: Fraction, count: int) -> float:
    """Three binomial standard deviations of a natural density over ``count`` primes."""
    ref = float(reference)
    return 3 * math.sqrt(ref * (1 - ref) / count)


def _reference(name: str) -> Fraction:
    return Fraction(1, POLYS[name][1])


def _unramified(name: str, primes: np.ndarray) -> np.ndarray:
    return primes[~np.isin(primes, POLYS[name][3])]


def _oracle_mask(name: str, primes: np.ndarray) -> np.ndarray:
    bad = np.isin(primes, POLYS[name][3])
    mask = np.zeros(primes.shape, dtype=bool)
    mask[~bad] = SPLIT_ORACLES[name](primes[~bad])
    return mask


def _sampled_root_counts(name: str, primes, splits, rng: random.Random) -> list[str]:
    poly, _, _, bad = POLYS[name]
    degree = len(poly) - 1
    idx = [i for i in range(len(primes)) if int(primes[i]) not in bad]
    out = []
    for i in rng.sample(idx, min(SAMPLE, len(idx))):
        p = int(primes[i])
        if (oracle.root_count(poly, p) == degree) != bool(splits[i]):
            out.append(f"{name} at p={p}: root count disagrees with splits={bool(splits[i])}")
    return out


def _check_density(name: str, members: int, total: int, value: float,
                   cutoff: int, oracles: Oracles) -> list[str]:
    fails = []
    primes = oracles.primes_below(cutoff)
    want_members = int(np.count_nonzero(_oracle_mask(name, primes)))
    ref = _reference(name)
    if total != oracle.PRIME_PI[cutoff]:
        fails.append(f"{name}: pi({cutoff}) = {total}, want {oracle.PRIME_PI[cutoff]}")
    if members != want_members:
        fails.append(f"{name} at {cutoff}: {members} members, oracle says {want_members}")
    if value != members / total:
        fails.append(f"{name} at {cutoff}: value is not members/primes")
    if abs(value - float(ref)) > _tolerance(ref, oracle.PRIME_PI[cutoff]):
        fails.append(f"{name} at {cutoff}: density {value} too far from {ref}")
    return fails


def check_job(cd, job: Job, out, oracles: Oracles, rng: random.Random) -> list[str]:
    p = job.params
    kind = job.kind
    if kind == "nat_rows":
        name = p["poly"]
        fails = []
        if [row["cutoff"] for row in out] != p["cutoffs"]:
            return ["nat_rows: cutoffs differ from the request"]
        for row in out:
            fails += _check_density(name, row["members"], row["primes"], row["estimate"],
                                    row["cutoff"], oracles)
            if row["reference"] != float(_reference(name)):
                fails.append(f"nat_rows: reference {row['reference']} != {_reference(name)}")
        return fails
    if kind == "dir_rows":
        name = p["poly"]
        grid = sorted(cd.density.DEFAULT_S_GRID, reverse=True)
        want = [(c, s) for c in p["cutoffs"] for s in grid]
        if [(row["cutoff"], row["s"]) for row in out] != want:
            return ["dir_rows: (cutoff, s) rows differ from the request"]
        fails = []
        for row in out:
            primes = _unramified(name, oracles.primes_below(row["cutoff"]))
            members = primes[_oracle_mask(name, primes)].astype(np.float64)
            xi = float(np.sum(members ** -row["s"]))
            ratio = row["xi"] / math.log(1.0 / (row["s"] - 1.0))
            if not math.isclose(row["xi"], xi, rel_tol=1e-10):
                fails.append(f"dir_rows: xi({row['s']}) at {row['cutoff']} = {row['xi']}, "
                             f"oracle {xi}")
            if not math.isclose(row["ratio"], ratio, rel_tol=1e-12):
                fails.append(f"dir_rows: ratio at s={row['s']} is not xi/log(1/(s-1))")
            if row["reference"] != float(_reference(name)):
                fails.append("dir_rows: wrong reference")
        return fails
    if kind == "quadratics":
        fails = []
        primes = oracles.primes_below(p["cutoff"])
        if not np.array_equal(out["primes"], primes):
            return [f"quadratics: primes below {p['cutoff']} differ from the oracle sieve"]
        union = np.zeros(primes.shape, dtype=bool)
        for q, mask, est in zip(p["quads"], out["masks"], out["estimates"]):
            want = _oracle_mask(f"x2-{q}", primes)
            union |= want
            if not np.array_equal(mask, want):
                bad = int(np.count_nonzero(mask != want))
                fails.append(f"x2-{q}: {bad} mask entries disagree with Euler's criterion")
            fails += _sampled_root_counts(f"x2-{q}", primes, mask, rng)
            fails += _check_density(f"x2-{q}", est.members, est.primes, est.value,
                                    p["cutoff"], oracles)
        if not np.array_equal(out["union"], union):
            fails.append("quadratics: union mask is not the OR of the oracle masks")
        value = np.count_nonzero(out["union"]) / primes.size
        if abs(value - 7 / 8) > _tolerance(Fraction(7, 8), primes.size):
            fails.append(f"quadratics: union density {value} too far from 7/8")
        return fails
    if kind == "quartic_density":
        return _check_density(p["poly"], out.members, out.primes, out.value, p["cutoff"],
                              oracles)
    if kind == "window_mask":
        primes = oracle.primes_between(p["lo"], p["hi"])
        if not np.array_equal(out["primes"], primes):
            return ["window_mask: window primes differ from the oracle sieve"]
        fails = []
        want = _oracle_mask(p["poly"], primes)
        if not np.array_equal(out["mask"], want):
            bad = int(np.count_nonzero(out["mask"] != want))
            fails.append(f"window_mask: {bad} entries disagree with the cubic residue test")
        return fails + _sampled_root_counts(p["poly"], primes, out["mask"], rng)
    if kind == "cli":
        return _check_scan(job, out, rng)
    if kind == "pipeline":
        return _check_pipeline(job, out)
    if kind == "enumerate":
        table = oracle.WEYL_TABLE[p["type"]]
        lib = cd.weyl.constants_for_group(p["type"])
        if tuple(out) != table or (lib.w, lib.c) != table:
            return [f"enumerate {p['type']}: {tuple(out)}, table {(lib.w, lib.c)}, want {table}"]
        return []
    if kind == "ie_density":
        union = set().union(*map(set, p["sets"]))
        want = Fraction(len(union), p["universe"])
        return [] if out == want else [f"ie_density: {out} != {want}"]
    if kind == "selection":
        theta = Fraction(p["da0"]) + Fraction(p["dunion"]) - Fraction(p["dc"])
        want = (theta, max(theta, Fraction(0)) / p["r"], theta <= 0)
        got = (out.theta, out.bound, out.vacuous)
        return [] if got == want else [f"selection: {got} != {want}"]
    if kind == "ie_check":
        return [] if out == (True, 0) else [f"ie_check: identity reported {out}"]
    if kind == "zeta":
        want = oracles.partial_zeta(p["model"], p["s"], p["cutoff"])
        if (out.s, out.cutoff, out.value) != (p["s"], p["cutoff"], want):
            return [f"zeta {p}: exact sum differs from the naive sum"]
        return []
    if kind in ("splits", "cycle_type"):
        poly, _, disc, _ = POLYS[p["poly"]]
        degree = len(poly) - 1
        roots = oracle.root_count(poly, p["p"])
        if kind == "splits":
            return [] if out == (roots == degree) else [f"splits {p}: {out}, roots {roots}"]
        degs = list(out.degrees)
        if sum(degs) != degree or degs.count(1) != roots:
            return [f"cycle_type {p}: {degs} but {roots} roots"]
        if not oracle.factor_parity_ok(disc, degree, p["p"], len(degs)):
            return [f"cycle_type {p}: {degs} has the wrong parity (Stickelberger)"]
        return []
    raise ValueError(f"unknown job kind {kind}")


def _check_scan(job: Job, out, rng: random.Random) -> list[str]:
    p = job.params
    name = p["poly"]
    poly, order, disc, bad = POLYS[name]
    degree = len(poly) - 1
    if out["code"] != 0:
        return [f"cli {p['command']} {name}: exit code {out['code']}"]
    doc = json.loads(out["text"])
    fails = []
    want_model = {"variant": "splitting_field", "poly": list(poly), "galois_order": order,
                  "bad_primes": list(bad)}
    if doc["model"] != want_model or doc["range"] != [p["lo"], p["hi"]]:
        fails.append(f"cli {name}: model or range echoed wrongly")
    if doc["ramified"] != [q for q in bad if p["lo"] <= q < p["hi"]]:
        fails.append(f"cli {name}: ramified list {doc['ramified']} is wrong")
    primes = oracle.primes_between(p["lo"], p["hi"])
    primes = primes[~np.isin(primes, bad)]
    records = doc["records"]
    if [rec["p"] for rec in records] != primes.tolist():
        return fails + [f"cli {name}: record primes differ from the oracle sieve"]
    cycles = [rec["cycle_type"] for rec in records]
    for rec, cycle in zip(records, cycles):
        if sum(cycle) != degree or cycle != sorted(cycle) or min(cycle) < 1:
            fails.append(f"cli {name} at p={rec['p']}: malformed cycle type {cycle}")
        elif order % math.lcm(*cycle):
            fails.append(f"cli {name} at p={rec['p']}: cycle type {cycle} has no element in the group")
        elif not oracle.factor_parity_ok(disc, degree, rec["p"], len(cycle)):
            fails.append(f"cli {name} at p={rec['p']}: {cycle} has the wrong parity")
    split = np.array([cycle == [1] * degree for cycle in cycles], dtype=bool)
    if p["command"] == "spl" and [rec["splits"] for rec in records] != split.tolist():
        fails.append(f"cli spl {name}: 'splits' disagrees with the cycle types")
    if name in SPLIT_ORACLES and not np.array_equal(split, SPLIT_ORACLES[name](primes)):
        fails.append(f"cli {name}: complete splitting disagrees with the residue test")
    for i in rng.sample(range(len(records)), min(SAMPLE, len(records))):
        q = records[i]["p"]
        if oracle.root_count(poly, q) != cycles[i].count(1):
            fails.append(f"cli {name} at p={q}: {cycles[i]} but root count differs")
    return fails


def _check_pipeline(job: Job, out) -> list[str]:
    p = job.params
    label = p["type"]
    if is_refusal(job, out):
        if label in REFUSED_TYPES:
            return []
        return [f"pipeline {p}: refused ({out['refused']})"]
    m, omega = p["m"], Fraction(p["omega"])
    w, c = oracle.WEYL_TABLE[label]
    d, t, r = int(label[1:]), w, out.r
    fails = []
    if (out.d, out.c, out.t, out.m, out.omega) != (d, c, t, m, omega):
        fails.append(f"pipeline {p}: constants (d, c, t, m, omega) are wrong")
    if not oracle.is_minimal_tower_count(m, t, r, omega):
        fails.append(f"pipeline {p}: r = {r} is not the minimal tower count")
    if r <= 200_000:
        # theta = omega - (t-1)^r / (m t^r), cross-multiplied to avoid a huge gcd
        big, small = m * t**r, (t - 1) ** r
        lhs = out.theta.numerator * big * omega.denominator
        rhs = out.theta.denominator * (omega.numerator * big - omega.denominator * small)
        if lhs != rhs or out.theta <= omega / 2:
            fails.append(f"pipeline {p}: theta is wrong")
    delta = omega / (2 * r)
    nu = delta.denominator // delta.numerator + 1
    if (out.delta, out.nu_arg, out.idele_index, out.valuation_budget) != (delta, nu, nu - 1, c * r):
        fails.append(f"pipeline {p}: delta, nu, idele index or budget is wrong")
    if out.n_exact is not None:
        if out.n_exact != math.factorial(nu) ** d * out.rho:
            fails.append(f"pipeline {p}: n_exact is not (nu!)^d * rho")
    elif abs(out.n_digits - (d * math.lgamma(nu + 1) / math.log(10) + 1)) > 2:
        fails.append(f"pipeline {p}: n_digits {out.n_digits} is off")
    return fails


WORKLOADS = {"census": census_jobs, "scan": scan_jobs, "queries": queries_jobs}
