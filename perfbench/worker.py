"""Run one pass of a benchmark workload in a fresh process and print its record.

``run.py`` starts one of these per pass, so nothing a pass leaves behind in
the process (caches, memos, allocator state) carries into the next, and
``ru_maxrss`` is the pass's own peak.

The record is one JSON line on stdout.  Set-up is timed from ``import
chebdens`` through model construction (discriminants and their
factorization).

A shared host can run every piece of code up to half again slower for tens
of seconds at a time, so the raw times of one run say more about the
neighbours than about chebdens.  Each job is therefore also timed against a
fixed pure-Python reference loop, run before the first job, before any job
that starts REF_EVERY_S or more after the last reference timing, and after
the last job.  A job's scaled time is its time multiplied by REF_S over the
mean of the reference timings just before and after it: the time it would
take on a host that runs the reference loop in exactly REF_S.  Set-up is
scaled by one reference timing made right after it.  Nothing in chebdens
touches the loop, so a change to chebdens moves scaled times as much as
raw ones.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

REF_LOOPS = 40_000
REF_S = 0.005  # scaled times assume 125 ns per reference loop iteration
REF_EVERY_S = 0.25


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_digests() -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run_pass(cd, workload: str, jobs, models, *, seed: int, pass_index: int,
             traced: bool = False, spans_path: str | None = None,
             known_digests: dict[str, str] | None = None) -> dict:
    """Time each job, then check every output; return the pass record."""
    # imported here, not at the top, so that main() times the first numpy import
    import numpy as np

    import spans
    import workloads

    primes_upto = cd.primes.primes_upto  # the unwrapped function, for cache_info
    if hasattr(primes_upto, "cache_clear"):
        primes_upto.cache_clear()  # every pass starts as cold as a fresh batch job
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    outputs, errors, seconds = [], [], []
    refs = []  # (index of the next job, reference loop seconds)
    ref_end = 0.0
    for index, job in enumerate(jobs):
        if not refs or time.perf_counter() - ref_end >= REF_EVERY_S:
            refs.append((index, reference_s()))
            ref_end = time.perf_counter()
        if tracer:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out, error = workloads.run_job(cd, models, job), None
        except Exception as exc:  # an undocumented error fails the job, not the pass
            out, error = None, f"{job.kind} raised {type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - start)
        if tracer:
            tracer.enabled = False
        outputs.append(out)
        errors.append(error)
    refs.append((len(jobs), reference_s()))
    around = []  # per job: the reference timings just before and just after it
    for (first, before), (stop, after) in zip(refs, refs[1:]):
        around += [(before + after) / 2] * (stop - first)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_info = primes_upto.cache_info() if hasattr(primes_upto, "cache_info") else None

    oracles = workloads.Oracles(jobs)
    rng = random.Random(f"check/{workload}/{seed}/{pass_index}")
    known = known_digests or {}
    observed: dict[str, str] = {}
    records = []
    for job, out, error, secs, ref in zip(jobs, outputs, errors, seconds, around):
        failures = [error] if error else workloads.check_job(cd, job, out, oracles, rng)
        if not error and job.key:
            observed[job.key] = workloads.digest(job, out)
            if job.key in known and known[job.key] != observed[job.key]:
                failures.append(f"{job.kind} {job.params}: output digest differs from digests.json")
        records.append({"kind": job.kind, "seconds": secs, "scaled_s": secs * REF_S / ref,
                        "failures": failures,
                        "refused": error is None and workloads.is_refusal(job, out)})
    record = {"jobs": records, "rss_mb": rss_mb, "digests": observed,
              "numpy": np.__version__}
    if tracer:
        cli_bytes = sum(len(out["text"].encode()) for job, out in zip(jobs, outputs)
                        if job.kind == "cli" and out)
        record["layers"] = spans.layer_metrics(tracer, cache_info, cli_bytes)
        record["module_self_s"] = spans.module_self_times(tracer.spans)
        own = spans.self_times(tracer.spans)
        record["split_mask_x3_2_1e7_s"] = sum(
            own[span[0]] for span in tracer.spans
            if span[2] == "splitting.split_mask" and span[6]
            and span[6]["model"] == repr((-2, 0, 0, 1)) and span[6]["n"] == 664579)
        if spans_path:
            tracer.write(spans_path, pass_index)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="append the pass's spans to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-digests", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import chebdens
    import chebdens.cli
    import_s = time.perf_counter() - start
    if Path(chebdens.__file__).resolve().parent != SRC / "chebdens":
        print(f"error: imported chebdens from {chebdens.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed, args.pass_index, args.small)
    start = time.perf_counter()
    models = workloads.build_models(chebdens, jobs)
    setup_s = import_s + time.perf_counter() - start
    setup = {"setup_s": setup_s, "setup_scaled_s": setup_s * REF_S / reference_s()}
    if args.setup_only:
        record = setup
    else:
        record = run_pass(chebdens, args.workload, jobs, models, seed=args.seed,
                          pass_index=args.pass_index, traced=args.trace, spans_path=args.spans,
                          known_digests=None if args.no_digests else load_digests())
        record.update(setup)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
