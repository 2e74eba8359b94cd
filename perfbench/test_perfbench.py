"""Self-test of the benchmark at reduced size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import chebdens  # noqa: E402
import chebdens.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def _run_pass(workload: str, **kwargs) -> dict:
    jobs = workloads.WORKLOADS[workload](3, 0, True)
    models = workloads.build_models(chebdens, jobs)
    return worker.run_pass(chebdens, workload, jobs, models, seed=3, pass_index=0, **kwargs)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    table = [line.split() for line in lines[:-1]]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(row[:1] == [m["name"]] and row[2] == m["unit"] for row in table), m["name"]


def test_flipped_mask_bit_makes_jobs_fail(monkeypatch):
    split_mask = chebdens.splitting.split_mask

    def flipped(model, primes):
        mask = split_mask(model, primes).copy()
        mask[mask.size // 2] ^= True
        return mask

    assert not any(job["failures"] for job in _run_pass("census")["jobs"])
    monkeypatch.setattr(chebdens.splitting, "split_mask", flipped)
    failed = {job["kind"] for job in _run_pass("census")["jobs"] if job["failures"]}
    assert failed == {"quadratics", "window_mask"}


def test_changed_output_digest_makes_jobs_fail():
    jobs = workloads.queries_jobs(3, 0, True)
    wrong = {job.key: "0" * 64 for job in jobs if job.key}
    record = _run_pass("queries", known_digests=wrong)
    keyed = [rec for job, rec in zip(jobs, record["jobs"]) if job.key]
    assert keyed and all(rec["failures"] for rec in keyed)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["census", "scan", "queries"])
def test_every_pass_has_the_same_mix(workload):
    def mix(seed, pass_index):
        jobs = workloads.WORKLOADS[workload](seed, pass_index, False)
        return sorted((job.kind, job.params.get("poly", ""), job.params.get("type", ""),
                       job.params.get("s", 0), len(job.params.get("sets", ()))) for job in jobs)

    assert mix(1, 0) == mix(2, 5)


def test_range_scans_are_cut_into_consecutive_chunks():
    jobs = [job for job in workloads.scan_jobs(4, 0, False) if job.params["poly"] == "x3-2"]
    bounds = [(job.params["lo"], job.params["hi"]) for job in jobs]
    assert len(bounds) == workloads.CHUNKS
    assert bounds[0][0] == 2 and bounds[-1][1] == 100_000
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
