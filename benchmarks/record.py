"""Record perfbench end-to-end metrics of this tree, alternating with a base revision.

Run from anywhere inside the repository:

    python3 benchmarks/record.py --label binomial --against 9db77ff --seeds 5
    python3 benchmarks/record.py --label now --seeds 3

For each workload and each seed, ``perfbench/run.py --trace 0`` runs once in
a copy of the working tree and, with ``--against REV``, once in a copy of REV
unpacked by ``git archive``; both copies sit side by side in one temporary
directory, so the two trees differ in their files alone, not in where they
lie.  The working-tree copy takes untracked files too and leaves out
``.git``, ``__pycache__`` and ``perfbench/results``.  Each tree runs its own
perfbench at its default length.  The order inside a pair alternates
(base first on even pairs), so a slow stretch of a shared host falls on
both trees alike.  Both trees are byte-compiled with ``compileall`` before
any timing: perfbench counts the import of chebdens in ``setup_s``, and
under PYTHONDONTWRITEBYTECODE a stale or missing bytecode cache in one
tree alone reads as a slower set-up.

The result goes to ``BENCH_<label>.json`` at the repository root: per
workload and tree the median, first and third quartile (inclusive method)
and the runs of the five end-to-end metrics, the number of pairs in which
the working tree was better, the commits (the working tree counts as dirty
when ``src/`` or ``perfbench/`` differ from HEAD, untracked files
included), the line counts of ``src/chebdens/*.py`` and the machine
perfbench reported.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("census", "scan", "queries")
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "query_p50_ms", "query_p95_ms")
MACHINE_KEYS = ("cpu", "nproc", "python", "numpy", "L1", "L2", "L3")


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(root: Path, rev: str, dest: Path) -> None:
    """Extract the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True,
                             capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _copy_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree into ``dest``, without ``.git``, ``__pycache__`` and ``perfbench/results``."""
    results = root / "perfbench" / "results"

    def skipped(directory: str, names: list[str]) -> list[str]:
        return [name for name in names if name in (".git", "__pycache__")
                or Path(directory, name) == results]

    shutil.copytree(root, dest, ignore=skipped)


def _line_counts(tree: Path) -> dict[str, int]:
    """``wc -l src/chebdens/*.py`` as a mapping, with the total under "total"."""
    counts = {path.name: len(path.read_bytes().splitlines())
              for path in sorted((tree / "src" / "chebdens").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def _compile(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/chebdens", "perfbench"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)


def _run(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run: its result line and the info block of its results file."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = json.loads((tree / "perfbench" / "results" / f"{workload}-trace0.json").read_text(
        encoding="utf-8"))
    return result, details["info"]


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 \
        else (runs[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--against", metavar="REV", help="base revision to alternate with")
    parser.add_argument("--seeds", type=int, default=5, help="runs per workload and tree")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    with tempfile.TemporaryDirectory(prefix="chebdens-bench-") as tmp:
        trees = {"change": Path(tmp) / "change"}
        _copy_worktree(root, trees["change"])
        revs = {"change": {"commit": _git(root, "rev-parse", "HEAD"),
                           "dirty": bool(_git(root, "status", "--porcelain", "--", "src",
                                              "perfbench"))}}
        if args.against:
            trees["base"] = Path(tmp) / "base"
            _unpack(root, args.against, trees["base"])
            revs["base"] = {"commit": _git(root, "rev-parse", f"{args.against}^{{commit}}")}
        for tree in trees.values():
            _compile(tree)
        info: dict = {}
        workloads: dict = {}
        for name in WORKLOADS:
            runs = {side: {metric: [] for metric in METRICS} for side in trees}
            failed = {side: 0 for side in trees}
            order = []
            for index, seed in enumerate(seeds):
                sides = list(trees)
                if index % 2 == 0:
                    sides.reverse()  # base first on even pairs
                order.append(sides)
                for side in sides:
                    started = time.monotonic()
                    result, info = _run(trees[side], name, seed)
                    failed[side] += result["failed"]
                    for metric in METRICS:
                        runs[side][metric].append(result["metrics"][metric]["value"])
                    print(f"{name} seed {seed} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.3f} "
                          f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
            entry = {"seeds": seeds, "order": order, "failed_jobs": failed,
                     **{side: {metric: _summary(values) for metric, values in runs[side].items()}
                        for side in trees}}
            if "base" in trees:
                entry["change_better_pairs"] = {
                    metric: sum(c < b for c, b in zip(runs["change"][metric], runs["base"][metric]))
                    for metric in METRICS}
            workloads[name] = entry
        payload = {
            "label": args.label,
            "command": "python3 benchmarks/record.py " + " ".join(
                argv if argv is not None else sys.argv[1:]),
            "perfbench_seconds": info["seconds"],
            "trees": {side: {**revs[side], "src_chebdens_lines": _line_counts(tree)}
                      for side, tree in trees.items()},
            "machine": {key: info[key] for key in MACHINE_KEYS if key in info},
            "workloads": workloads,
        }
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if not any(sum(w["failed_jobs"].values()) for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
