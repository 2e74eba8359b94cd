"""chebdens benchmark: the census, scan and queries workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --record-digests        # rewrite perfbench/digests.json

Each workload is a closed loop with one client: one process, one thread,
each job issued after the previous one returns.  A run repeats passes (one
fresh worker process each, see worker.py), at least two and no new pass
that would end after ``--seconds``.  Each pass's jobs come from the seed
and the pass index.  Timings are scaled to a fixed reference speed of the
host (see worker.py) and summarised by medians over the whole run.
Untraced runs report the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, and reports the per-layer metrics plus the
tracing overhead.  The last line of stdout is the result as JSON; the exit
code is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("census", "scan", "queries")

MIN_PASSES = 2
SETUP_SAMPLES = 7  # set-up is timed in every pass; extra set-up-only processes top it up
BUDGET_S = 150  # hard limit on a whole run, worker timeouts included
RECORD_SEED, RECORD_PASSES = 0, 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "query_p50_ms": "ms", "query_p95_ms": "ms"}


class BenchmarkError(RuntimeError):
    pass


def _worker(workload: str, seed: int, *flags: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {' '.join(flags)} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _median_wall(passes: list[dict], field: str = "scaled_s") -> float:
    return statistics.median(sum(job[field] for job in r["jobs"]) for r in passes)


def _percentile(values: list[float], q: int) -> float:
    """Nearest rank: the smallest value that at least q% of the values do not exceed.

    Every pass has the same mix of jobs, so this picks the same kind of job
    whatever the number of passes; an interpolating percentile would slide
    between the two dearest jobs of a short job list as the pass count changes.
    """
    return sorted(values)[math.ceil(q * len(values) / 100) - 1]


def machine_info() -> dict:
    info: dict = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    for index in range(4):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (cache / "level").read_text().strip()
            kind = (cache / "type").read_text().strip()
            size = (cache / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    info["src_chebdens_lines"] = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "chebdens").glob("*.py")))
    return info


def run_workload(workload: str, seed: int, seconds: int, trace: bool, small: bool) -> dict:
    """All passes of one run; returns the result record (metrics, counts, info)."""
    start = time.monotonic()
    deadline = start + seconds
    spans_path = RESULTS / f"spans-{workload}.jsonl"
    if trace:
        spans_path.unlink(missing_ok=True)
    size = ["--small"] if small else []
    plain, traced = [], []
    while True:
        index = len(plain) + len(traced)
        flags = [*size, "--pass-index", str(index)]
        if trace and index % 2:
            flags += ["--trace", "--spans", str(spans_path)]
        before = time.monotonic()
        record = _worker(workload, seed, *flags, timeout=start + BUDGET_S - before)
        (traced if "layers" in record else plain).append(record)
        now = time.monotonic()
        if index + 1 >= MIN_PASSES and now + (now - before) > deadline:
            break
    setups = plain + traced
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(workload, seed, *size, "--setup-only",
                              timeout=start + BUDGET_S - time.monotonic()))

    jobs = [job for r in plain + traced for job in r["jobs"]]
    failed = [job for job in jobs if job["failures"]]
    refused = sum(job["refused"] for job in jobs)
    latencies = [job["scaled_s"] for r in plain for job in r["jobs"]]
    if trace:
        metrics = {name: statistics.fmean(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = _median_wall(traced) / _median_wall(plain) - 1
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": _median_wall(plain),
            "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "query_p50_ms": 1000 * _percentile(latencies, 50),
            "query_p95_ms": 1000 * _percentile(latencies, 95),
        }
        units = END_TO_END_UNITS
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "small": small, "passes": len(plain), "traced_passes": len(traced),
        "samples": {"wall_s": len(plain), "setup_s": len(setups), "query": len(latencies)},
        "fail_frac": len(failed) / len(jobs), "refused_frac": refused / len(jobs),
        "refused": refused, "numpy": plain[0]["numpy"], **machine_info(),
        "unscaled_wall_s": _median_wall(plain, "seconds"),
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in setups),
        "class_share": _class_shares(plain),
    }
    if trace:
        info["module_self_s"] = {
            layer: statistics.fmean(r["module_self_s"][layer] for r in traced)
            for layer in traced[0]["module_self_s"]}
        info["split_mask_x3_2_1e7_s"] = statistics.fmean(
            r["split_mask_x3_2_1e7_s"] for r in traced)
    return {"metrics": metrics, "units": units, "attempted": len(jobs), "failed": len(failed),
            "failures": [msg for job in failed for msg in job["failures"]][:20], "info": info}


def _class_shares(passes: list[dict]) -> dict[str, float]:
    """Share of the timed phase spent in each job kind (refusals counted apart)."""
    seconds: dict[str, float] = {}
    for record in passes:
        for job in record["jobs"]:
            kind = job["kind"] + (" refused" if job["refused"] else "")
            seconds[kind] = seconds.get(kind, 0.0) + job["seconds"]
    total = sum(seconds.values())
    return {kind: round(value / total, 4) for kind, value in sorted(seconds.items())}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "bytes" if name.endswith("bytes_out") else "count"


def report(result: dict) -> None:
    info = result["info"]
    print(f"# {info['workload']}: seed {info['seed']}, {info['passes']} untraced and "
          f"{info['traced_passes']} traced passes, {result['attempted']} jobs")
    jobs = f"over {info['samples']['query']} scaled job times"
    notes = {"wall_s": f"median of {info['passes']} scaled passes "
                       f"(unscaled {info['unscaled_wall_s']:.3f} s)",
             "setup_s": f"median of {info['samples']['setup_s']} scaled processes "
                        f"(unscaled {info['unscaled_setup_s']:.3f} s)",
             "peak_rss_mb": "median ru_maxrss of the pass processes",
             "query_p50_ms": jobs, "query_p95_ms": jobs}
    for name, value in result["metrics"].items():
        print(f"{name:28s} {value:14.6f} {result['units'][name]:6s} {notes.get(name, '')}")
    print(f"{'fail_frac':28s} {info['fail_frac']:14.6f} ratio  "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(f"{'refused_frac':28s} {info['refused_frac']:14.6f} ratio  "
          f"({info['refused']} ResourceLimitError answers)")
    if "split_mask_x3_2_1e7_s" in info and info["split_mask_x3_2_1e7_s"]:
        print(f"sanity: split_mask x^3-2 at 10^7 self time {info['split_mask_x3_2_1e7_s']:.2f} s "
              f"(baseline table in ROADMAP.md: about 5.7 s)")
    for msg in result["failures"]:
        print(f"FAILED: {msg}")
    print("info " + json.dumps(info, sort_keys=True))


def _result_line(result: dict) -> dict:
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": result["units"][name]}
                        for name, value in result["metrics"].items()}}


def record_digests() -> None:
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        for index in range(RECORD_PASSES):
            record = _worker(workload, RECORD_SEED, "--pass-index", str(index), "--no-digests",
                             timeout=600)
            failures = [msg for job in record["jobs"] for msg in job["failures"]]
            if failures:
                raise BenchmarkError(f"refusing to record failing outputs: {failures[:3]}")
            digests.update(record["digests"])
    payload = {"seed": RECORD_SEED, "passes": RECORD_PASSES, "digests": dict(sorted(digests.items()))}
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} output digests")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced inputs, for the self-test")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chebdens" / "__init__.py").is_file():
        print(f"error: no chebdens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.record_digests:
            record_digests()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
            report(results[name])
            out = RESULTS / f"{name}-trace{args.trace}.json"
            out.write_text(json.dumps({**results[name], "result": _result_line(results[name])},
                                      indent=1, sort_keys=True) + "\n", encoding="utf-8")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        line = _result_line(results[names[0]])
    else:
        line = {"correct": all(r["failed"] == 0 for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{metric}": value for name, r in results.items()
                            for metric, value in _result_line(r)["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
