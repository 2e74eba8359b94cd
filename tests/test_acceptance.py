"""Acceptance gate: each criterion runs at its stated tolerance and prints a
pass/fail line.  The same checks back the ``chebdens verify`` command."""

import re
import time

import chebdens.density as density_mod
import chebdens.splitting as splitting_mod
from chebdens import acceptance
from oracles import criterion_5_detail

CUTOFF = 10**7
SEED = 0


def _run(func):
    result = func(cutoff=CUTOFF, seed=SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  criterion {result.index}: {result.title} "
          f"[{result.detail}] ({result.elapsed:.1f}s)")
    assert result.passed, result.detail
    return result


def test_criterion_1_chebotarev_convergence():
    result = _run(acceptance.criterion_1)
    assert result.elapsed < 120


def test_criterion_2_union_density_formula():
    _run(acceptance.criterion_2)


def test_criterion_3_inclusion_exclusion_identity():
    _run(acceptance.criterion_3)


def test_criterion_4_lemma_consistency():
    _run(acceptance.criterion_4)


def test_criterion_5_selection_margin_bridge():
    _run(acceptance.criterion_5)


def test_criterion_6_weyl_oracle_equivalence():
    result = _run(acceptance.criterion_6)
    assert result.elapsed < 60


def test_criterion_7_bound_pipeline():
    _run(acceptance.criterion_7)


def test_criterion_8_density_lifting():
    _run(acceptance.criterion_8)


def test_run_acceptance_collects_everything():
    lines = []
    results = acceptance.run_acceptance(cutoff=10**5, seed=1, out=lines.append)
    assert len(results) == 8
    assert len(lines) == 8
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_criterion_5_reads_the_masks_of_criterion_2(monkeypatch):
    want = criterion_5_detail(10**5)
    assert acceptance.criterion_2(cutoff=10**5).passed
    calls = []

    def no_split_mask(model, primes):
        calls.append(model)
        raise AssertionError("criterion 5 computed a split mask")

    for module in (splitting_mod, density_mod):
        monkeypatch.setattr(module, "split_mask", no_split_mask)
    result = acceptance.criterion_5(cutoff=10**5)
    assert calls == []
    assert result.passed
    assert result.detail == want


def test_crashed_criterion_reports_its_title_and_time(monkeypatch):
    def boom(sets, s):
        time.sleep(0.25)
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance.calculus, "truncated_inclusion_exclusion_check", boom)
    lines = []
    results = acceptance.run_acceptance(cutoff=10**5, out=lines.append)
    assert len(lines) == len(results) == 8
    assert re.fullmatch(r"FAIL  criterion 3: inclusion-exclusion identity, exact arithmetic "
                        r"\[raised RuntimeError: boom\] \(\d+\.\ds\)", lines[2]), lines[2]
    assert results[2].elapsed >= 0.25
    assert all(line.startswith("PASS") for i, line in enumerate(lines) if i != 2)
