import argparse
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import chebdens.cli as cli_mod
import chebdens.primes as primes_mod
import chebdens.splitting as splitting_mod
from chebdens import InvariantViolationError, calculus, csp_bound_pipeline
from chebdens.bounds import decimal_str
from chebdens.cli import main
from chebdens.density import DEFAULT_S_GRID
from oracles import scan_per_record

# exit code, stdout and stderr of spl and frob in every format, on a polynomial
# and an abelian model, on scans that fail midway (a wrong galois_order, an
# incomplete bad_primes), on a scan long enough to print a progress line, and
# on x^5 - x - 1, whose unramified primes 2, 3 and 5 are at most its degree;
# scan output is an interface and must stay byte-identical.  A long stdout is
# stored as its sha256.
SCAN_GOLDEN = json.loads((Path(__file__).parent / "data" / "scan_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_fraction(text: str) -> Fraction:
    """A "p/q" string of any length, read with the int-to-str limit lifted."""
    num, den = text.split("/")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(int(num), int(den))
    finally:
        sys.set_int_max_str_digits(limit)


class TestSpl:
    def test_gaussian_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "spl", "--poly", "1,0,1", "--galois-order", "2", "--hi", "30"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ramified"] == [2]
        split_at = [rec["p"] for rec in payload["records"] if rec["splits"]]
        assert split_at == [5, 13, 17, 29]
        assert [rec["p"] for rec in payload["records"]] == [3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "spl", "--poly", "1,0,1", "--galois-order", "2", "--lo", "2", "--hi", "2"
        )
        assert code == 0
        assert json.loads(out)["records"] == []

    def test_json_records_encoded_in_chunks(self, capsys):
        # 17983 records span three engine blocks, encoded a block at a time;
        # the spliced text must be what one json.dumps of the whole payload writes
        code, out, _ = run_cli(
            capsys, "spl", "--poly", "1,0,1", "--galois-order", "2", "--hi", "200000"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["records"]) == 17983 > 2 * splitting_mod._BLOCK
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_invalid_residue_model_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "spl", "--modulus", "8", "--residues", "1,3,5", "--hi", "30"
        )
        assert code == 1
        assert "not closed" in err

    def test_abelian_inline_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "spl", "--modulus", "4", "--residues", "1", "--hi", "30"
        )
        assert code == 0
        payload = json.loads(out)
        assert [rec["p"] for rec in payload["records"] if rec["splits"]] == [5, 13, 17, 29]

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"variant": "splitting_field", "poly": [-2, 0, 0, 1], "galois_order": 6})
        )
        code, out, _ = run_cli(capsys, "spl", "--model", str(path), "--hi", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["ramified"] == [2, 3]
        assert [rec["p"] for rec in payload["records"] if rec["splits"]] == [31]


class TestFrob:
    def test_cycle_types(self, capsys):
        code, out, _ = run_cli(
            capsys, "frob", "--poly=-2,0,0,1", "--galois-order", "6", "--hi", "12"
        )
        assert code == 0
        records = {rec["p"]: rec["cycle_type"] for rec in json.loads(out)["records"]}
        assert records == {5: [1, 2], 7: [3], 11: [1, 2]}

    def test_abelian_model_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "frob", "--modulus", "4", "--residues", "1", "--hi", "12"
        )
        assert code == 1
        assert "splitting_field" in err


@pytest.mark.parametrize("case", sorted(SCAN_GOLDEN))
def test_scan_output_matches_golden(capsys, case):
    golden = SCAN_GOLDEN[case]
    code, out, err = run_cli(capsys, *golden["argv"])
    if "stdout_sha256" in golden:
        assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
    else:
        assert out == golden["stdout"]
    assert (code, err) == (golden["code"], golden["stderr"])


# spl/frob against the one-dict-per-record oracle, as (argv, progress interval
# or None for the default): abelian, cubic, degree-1 and quintic models, scans
# over more than one engine block, progress lines at a block's last and next
# record, and scans that fail at their first prime, in the middle of a block
# (x^2 - 90001 with 90001 missing from bad_primes), or in the sieve
_CUBIC_TWO_BLOCKS = ["spl", "--poly=-2,0,0,1", "--galois-order", "6", "--hi", "100000"]
SCAN_ORACLE_CASES = {
    "abelian-spl": (["spl", "--modulus", "8", "--residues", "1,7", "--hi", "3000"], None),
    "abelian-frob": (["frob", "--modulus", "8", "--residues", "1,7", "--hi", "3000"], None),
    "cubic-spl": (["spl", "--poly=-2,0,0,1", "--galois-order", "6", "--hi", "3000"], None),
    "cubic-frob": (["frob", "--poly=-2,0,0,1", "--galois-order", "6", "--hi", "3000"], None),
    "linear-spl": (["spl", "--poly=-3,1", "--galois-order", "1", "--hi", "500"], None),
    "quintic-two-blocks": (["frob", "--poly=-1,-1,0,0,0,1", "--galois-order", "120", "--hi", "100000"],
                           None),
    "progress-every-record": (_CUBIC_TWO_BLOCKS, 1),
    "progress-at-block-end": (_CUBIC_TWO_BLOCKS, splitting_mod._BLOCK),
    "progress-after-block": (_CUBIC_TWO_BLOCKS, splitting_mod._BLOCK + 1),
    "first-prime-fails": (["frob", "--poly=-2,0,0,1", "--galois-order", "3", "--lo", "11", "--hi", "100"],
                          None),
    "fails-mid-block": (["spl", "--poly=-90001,0,1", "--galois-order", "2", "--bad-primes", "2",
                         "--hi", "100000"], 1000),
    "sieve-refuses": (["spl", "--poly=1,0,1", "--galois-order", "2", "--lo", "1", "--hi", "100"], None),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("case", sorted(SCAN_ORACLE_CASES))
def test_scan_matches_per_record_oracle(capsys, monkeypatch, case, fmt):
    argv, every = SCAN_ORACLE_CASES[case]
    if every is not None:
        monkeypatch.setattr(cli_mod, "_PROGRESS_EVERY", every)
    argv = [*argv, "--format", fmt]
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(cli_mod, "_cmd_scan", scan_per_record)
    assert got == run_cli(capsys, *argv)


# spl/frob with the sieve's segments patched short, so blocks end at segment
# boundaries and, at a segment of 1, some segments hold only ramified primes:
# cubic, quadratic and abelian models, and x^2 - 90001 with 90001 missing from
# bad_primes in mid-range, which must fail with the same records before it
SEGMENT_CASES = {
    "cubic": ["--poly=-2,0,0,1", "--galois-order", "6", "--hi", "1000"],
    "quadratic": ["--poly=1,0,1", "--galois-order", "2", "--hi", "1000"],
    "abelian": ["--modulus", "8", "--residues", "1", "--hi", "1000"],
    "ramified-mid-range": ["--poly=-90001,0,1", "--galois-order", "2", "--bad-primes", "2",
                           "--lo", "89000", "--hi", "91000"],
}


@pytest.mark.parametrize("segment", [1, 7, 64])
@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("command", ["spl", "frob"])
@pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
def test_scan_by_short_segments_matches_unpatched(capsys, monkeypatch, case, command, fmt, segment):
    argv = [command, *SEGMENT_CASES[case], "--format", fmt]
    monkeypatch.setattr(cli_mod, "_PROGRESS_EVERY", 50)
    whole = run_cli(capsys, *argv)
    if case == "ramified-mid-range":
        assert whole[0] == 1 and "f mod 90001 is not squarefree" in whole[2]
        assert fmt == "json" or "89989" in whole[1]
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", segment)
    assert run_cli(capsys, *argv) == whole


class _CountingSink:
    """A stdout stand-in that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_json_scan_holds_only_its_encoded_text(monkeypatch):
    # stdout stays empty until a JSON scan ends, so the scan must hold its
    # encoded text; beyond the peak of the streaming CSV scan it may hold
    # 1.5x that text, not a dict per record
    argv = ["spl", "--poly=1,0,1", "--galois-order", "2"]
    main(argv + ["--hi", "100"])  # one-time allocations stay out of the peaks
    peaks = {}
    for fmt in ("csv", "json"):
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv + ["--hi", "300000", "--format", fmt]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.size > 10**6
    assert peaks["json"] - peaks["csv"] <= 1.5 * sink.size


@pytest.mark.parametrize("poly", ["1,0,1", "-2,0,0,1", "-1,-1,0,0,0,1"])
@pytest.mark.parametrize("command", ["spl", "frob"])
def test_poly_scan_computes_one_discriminant(capsys, monkeypatch, poly, command):
    # the model's discriminant is the one splitting_field_model computed; the
    # quadratic's symbol table and the engine's ramification check both read it
    calls = []
    disc = splitting_mod.poly_discriminant
    monkeypatch.setattr(splitting_mod, "poly_discriminant", lambda f: calls.append(f) or disc(f))
    degree = poly.count(",")
    order = {1: 1, 2: 2, 3: 6, 5: 120}[degree]
    code, out, _ = run_cli(capsys, command, f"--poly={poly}", "--galois-order", str(order),
                           "--hi", "20000", "--format", "csv")
    assert code == 0 and out.count("\n") > 2000
    assert len(calls) == 1


class TestDensity:
    def test_natural_table_trends_to_half(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--poly", "1,0,1", "--galois-order", "2",
            "--kind", "natural", "--cutoffs", "10000,100000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == "1/2"
        gaps = [abs(row["estimate"] - 0.5) for row in payload["rows"]]
        assert gaps[1] < gaps[0] < 0.01

    def test_cubic_natural_density_row_near_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--poly=-2,0,0,1", "--galois-order", "6",
            "--kind", "natural", "--cutoffs", "1000000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == "1/6"
        assert abs(payload["rows"][-1]["estimate"] - 1 / 6) < 0.01

    def test_all_primes_pseudo_model_rows_are_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--modulus", "1", "--residues", "1",
            "--kind", "natural", "--cutoffs", "1000,10000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == "1/1"
        assert all(row["estimate"] == 1.0 for row in payload["rows"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--poly", "1,0,1", "--galois-order", "2",
            "--kind", "dirichlet", "--cutoffs", "10000", "--s-grid", "1.2,1.1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cutoff,s,xi,ratio,reference"
        assert len(lines) == 3

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_upper_rows_are_dirichlet_rows_with_estimator(self, capsys, fmt):
        outs = {}
        for kind in ("dirichlet", "upper"):
            code, outs[kind], err = run_cli(
                capsys, "density", "--modulus", "4", "--residues", "1",
                "--kind", kind, "--cutoffs", "1000", "--format", fmt,
            )
            assert code == 0 and err == ""
        tag = "max over grid tail"
        if fmt == "json":
            expected = json.loads(outs["dirichlet"])
            expected["kind"] = "upper"
            for row in expected["rows"]:
                row["estimator"] = tag
            assert json.loads(outs["upper"]) == expected
            return
        lines = outs["dirichlet"].splitlines()
        if fmt == "csv":
            expected = [lines[0] + ",estimator"] + [line + "," + tag for line in lines[1:]]
        else:
            expected = [line + "  estimator=" + tag for line in lines]
        assert len(lines) == len(DEFAULT_S_GRID) + (fmt == "csv")  # one row per s
        assert outs["upper"].splitlines() == expected


class TestCalculus:
    def test_disjoint_union(self, capsys):
        code, out, _ = run_cli(capsys, "calculus", "disjoint-union", "1", "2", "3")
        assert code == 0
        assert json.loads(out)["result"] == "7/8"

    def test_tower_theta(self, capsys):
        code, out, _ = run_cli(capsys, "calculus", "tower-theta", "1/2", "1", "2", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert result == {"theta": "3/8", "bound": "1/8", "vacuous": False}

    def test_inclusion_exclusion(self, capsys):
        code, out, _ = run_cli(
            capsys, "calculus", "inclusion-exclusion",
            "--densities", "1:1/2;2:1/2;1,2:1/4",
        )
        assert code == 0
        assert json.loads(out)["result"] == "3/4"

    def test_ie_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "calculus", "ie-check", "--sets", "2,3,5;3,5,7", "--s", "2"
        )
        assert code == 0
        assert json.loads(out)["result"] == {"equal": True, "residual": "0/1"}

    def test_lift_density(self, capsys):
        code, out, _ = run_cli(capsys, "calculus", "lift-density", "1/10", "3")
        assert code == 0
        assert json.loads(out)["result"] == "3/10"

    def test_union_and_pigeonhole_and_compositum(self, capsys):
        code, out, _ = run_cli(capsys, "calculus", "union-bound", "1/3", "1/4")
        assert code == 0 and json.loads(out)["result"] == "7/12"
        code, out, _ = run_cli(capsys, "calculus", "pigeonhole", "1/2", "5")
        assert code == 0 and json.loads(out)["result"] == "1/10"
        code, out, _ = run_cli(capsys, "calculus", "compositum-degree", "2", "6", "3", "3")
        assert code == 0 and json.loads(out)["result"] == 432

    def test_fractions_beyond_int_str_limit(self, capsys):
        # (1 - 1/2)^20000 puts 6021 digits in each denominator
        spec = calculus.TowerSpec(m=1, t=2, r=20000)
        code, out, _ = run_cli(capsys, "calculus", "tower-theta", "1/2", "1", "2", "20000")
        assert code == 0
        result = json.loads(out)["result"]
        want = calculus.tower_theta(Fraction(1, 2), spec)
        assert (_read_fraction(result["theta"]), _read_fraction(result["bound"])) == (want.theta, want.bound)
        code, out, _ = run_cli(capsys, "calculus", "disjoint-union", "1", "2", "20000")
        assert code == 0
        assert _read_fraction(json.loads(out)["result"]) == calculus.disjoint_union_density(spec)

    def test_int_beyond_int_str_limit(self, capsys):
        # m * t^ell = 2^20000 has 6021 digits, past str()'s default limit of 4300
        code, out, err = run_cli(capsys, "calculus", "compositum-degree", "1", "2", "20000", "20000")
        assert (code, err) == (0, "")
        assert out == f'{{"operation": "compositum-degree", "result": {decimal_str(2**20000)}}}\n'
        code, out, _ = run_cli(capsys, "calculus", "compositum-degree", "1", "2", "3", "2")
        assert (code, out) == (0, '{"operation": "compositum-degree", "result": 4}\n')

    def test_long_ints_keep_their_places(self, capsys):
        # sorted keys put the long ints in another order than the payload's
        payload = {"b": [3**9000, -(2**7000), 1], "a": {"z": 5**6000, "y": Fraction(1, 3)},
                   "c": (7**8000, True, None, "\u0001")}
        cli_mod._emit_json(payload)
        out = capsys.readouterr().out
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = json.dumps(payload, sort_keys=True, default=str)
        finally:
            sys.set_int_max_str_digits(limit)
        assert out == want + "\n"

    def test_containment_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "calculus", "intersection-bound", "3/4", "1/4", "1/2")
        assert code == 1
        assert "ambient" in err


class TestWeyl:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "weyl", "D4")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"type": "D4", "d": 4, "w": 192, "c": 13, "degrees": [2, 4, 6, 4]}

    def test_enumerate_flag(self, capsys):
        code, out, _ = run_cli(capsys, "weyl", "B2", "--enumerate")
        assert code == 0
        assert json.loads(out)["enumerated"] == {"w": 8, "c": 5}

    def test_invalid_type(self, capsys):
        code, _, err = run_cli(capsys, "weyl", "G3")
        assert code == 1
        assert "invalid" in err

    def test_enumeration_past_the_budget_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "weyl", "E8", "--enumerate", "--cap", "1000000000")
        assert time.perf_counter() - start <= 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: E8: enumerating")
        assert "over the budget" in err

    def test_enumeration_past_the_cap_refused(self, capsys):
        code, out, err = run_cli(capsys, "weyl", "A3", "--enumerate", "--cap", "10")
        assert (code, out) == (1, "")
        assert err == (
            "error: A3: group order 24 exceeds the enumeration cap 10; "
            "use the table constants from constants_for_group\n"
        )


class TestBounds:
    def test_a1_report(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--type", "A1", "--m", "1", "--omega", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 3
        assert payload["delta"] == "1/12"
        assert payload["n_exact"] == "6227020800"
        assert "rho(d)" in err  # default-rho warning goes to the diagnostic channel

    def test_omega_zero_fails_with_hypothesis_message(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--type", "A1", "--m", "1", "--omega", "0")
        assert code == 1
        assert "Spl(M/K)) > 0" in err

    def test_invalid_type_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--type", "G3", "--m", "1", "--omega", "1/2")
        assert code == 1
        assert "invalid" in err


    def test_theta_beyond_int_str_limit(self, capsys):
        # theta's numerator for E6 at omega = 1 has ~169k digits
        code, out, _ = run_cli(capsys, "bounds", "--type", "E6", "--m", "1", "--omega", "1")
        assert code == 0
        assert _read_fraction(json.loads(out)["theta"]) == csp_bound_pipeline("E6", 1, 1).theta


class TestErrorBoundary:
    """Bad input exits 1 with one stderr line; a bug keeps its traceback."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("spl", "--model", "no-such-model.json", "--hi", "10"),
             "error: [Errno 2] No such file or directory: 'no-such-model.json'\n"),
            (("bounds", "--type", "E8", "--m", "1", "--omega", "1/2"),
             "error: minimal r exceeds the certification cap 100000 for t = 696729600; "
             "raise r_cap to spend the extra exact-arithmetic effort\n"),
            (("calculus", "union-bound", "1/2"), "error: union-bound needs 2 values, got 1\n"),
            (("calculus", "inclusion-exclusion"), "error: inclusion-exclusion needs --densities\n"),
            (("calculus", "ie-check"), "error: ie-check needs --sets\n"),
            (("calculus", "inclusion-exclusion", "--densities", "1:1/0"),
             "error: expected a rational like 3/8, got '1/0'\n"),
            (("calculus", "pigeonhole", "1/2", "5/2"), "error: expected an integer, got 5/2\n"),
            (("calculus", "selection-bound", "1/2", "1/2", "1/2", "3/2"),
             "error: expected an integer, got 3/2\n"),
            (("calculus", "disjoint-union", "1", "2", "7/2"), "error: expected an integer, got 7/2\n"),
            (("calculus", "tower-theta", "1/2", "1/3", "2", "3"), "error: expected an integer, got 1/3\n"),
            (("calculus", "compositum-degree", "2", "6", "3", "3/2"),
             "error: expected an integer, got 3/2\n"),
            (("calculus", "lift-density", "1/10", "5/2"), "error: expected an integer, got 5/2\n"),
        ],
        ids=["missing-model-file", "cap-refusal", "missing-values", "missing-densities",
             "missing-sets", "zero-denominator", "pigeonhole-fraction", "selection-bound-fraction",
             "disjoint-union-fraction", "tower-theta-fraction", "compositum-degree-fraction",
             "lift-density-fraction"],
    )
    def test_input_errors_exit_1(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize(
        ("argv", "env", "cutoff"),
        [(("--cutoff", "0"), None, 0), (("--cutoff", "-5"), None, -5), (("--cutoff", "2"), None, 2),
         ((), "0", 0)],
        ids=["cutoff-0", "cutoff-negative", "cutoff-2", "env-cutoff-0"],
    )
    def test_verify_cutoff_below_3_exits_1(self, capsys, monkeypatch, argv, env, cutoff):
        started = []
        monkeypatch.setattr(cli_mod.acceptance, "_CRITERIA", (lambda **kwargs: started.append(kwargs),))
        monkeypatch.delenv("CHEBDENS_CUTOFF", raising=False)
        if env is not None:
            monkeypatch.setenv("CHEBDENS_CUTOFF", env)
        message = f"error: cutoff must be at least 3, got {cutoff}\n"
        assert run_cli(capsys, "verify", *argv) == (1, "", message)
        assert started == []

    @pytest.mark.parametrize(
        "error", [KeyError("missing"), InvariantViolationError("broken")], ids=["KeyError", "invariant"]
    )
    def test_bugs_propagate(self, monkeypatch, error):
        def broken(_type):
            raise error

        monkeypatch.setattr(cli_mod.weyl, "constants_for_group", broken)
        with pytest.raises(type(error)):
            main(["weyl", "A2"])

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("command", ["spl", "frob"])
    @pytest.mark.parametrize(
        ("bounds", "message"),
        [(("--lo", "1", "--hi", "100"), "error: lo must be >= 2, got 1\n"),
         (("--lo", "-5", "--hi", "100"), "error: lo must be >= 2, got -5\n"),
         (("--hi", str(2**40 + 1)),
          f"error: hi={2**40 + 1} exceeds the configured cap {2**40}; "
          "pass hard_cap explicitly to allow larger ranges\n")],
        ids=["lo-1", "lo-negative", "hi-past-cap"],
    )
    def test_scan_range_refused_before_any_output(self, capsys, fmt, command, bounds, message):
        argv = (command, "--poly=1,0,1", "--galois-order", "2", *bounds, "--format", fmt)
        assert run_cli(capsys, *argv) == (1, "", message)

    def test_broken_pipe_exits_0(self, monkeypatch):
        def closed(_type):
            raise BrokenPipeError

        monkeypatch.setattr(cli_mod.weyl, "constants_for_group", closed)
        assert main(["weyl", "A2"]) == 0


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, first, _ = run_cli(capsys, "bounds", "--type", "A1", "--m", "1", "--omega", "1/2")
        _, second, _ = run_cli(capsys, "bounds", "--type", "A1", "--m", "1", "--omega", "1/2")
        assert first == second
        _, d1, _ = run_cli(capsys, "density", "--modulus", "4", "--residues", "1",
                           "--cutoffs", "10000")
        _, d2, _ = run_cli(capsys, "density", "--modulus", "4", "--residues", "1",
                           "--cutoffs", "10000")
        assert d1 == d2

    def test_unknown_flags_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["weyl", "A1", "--frobnicate"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chebdens.cli", "weyl", "A1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["w"] == 2


def test_env_var_sets_default_cutoff(capsys, monkeypatch):
    monkeypatch.setenv("CHEBDENS_CUTOFF", "10000")
    code = main(["density", "--modulus", "4", "--residues", "1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["cutoff"] for row in rows] == [10000]


def test_verify_subcommand_runs_all_criteria(capsys):
    code = main(["verify", "--cutoff", "100000", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def _parser_options(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand, each argument's option strings (its dest if positional),
    nargs, default, choices and required flag.

    argparse derives a positional's required flag from its nargs, and not the
    same way in every version, so a positional records its nargs alone.
    """
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            {
                "options": action.option_strings or [action.dest],
                "nargs": action.nargs,
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required if action.option_strings else None,
            }
            for action in sub._actions
        ]
        for name, sub in subparsers.choices.items()
    }


def test_parser_options_match_the_recorded_table():
    # the table was read from the parser with _parser_options; a flag added, removed
    # or changed fails here, however a Python version's argparse words its help
    recorded = json.loads((Path(__file__).parent / "data" / "cli_options.json").read_text())
    assert _parser_options(cli_mod.build_parser()) == recorded


# main parses with one parser per process (cli._parser), built on its first call;
# the handler is looked up per call and nothing one call parses leaks into the next
_CUBIC_SCAN = ["spl", "--poly=-2,0,0,1", "--galois-order", "6", "--hi", "3000"]


def test_cached_parser_runs_the_handler_patched_after_it_was_built(capsys, monkeypatch):
    assert run_cli(capsys, "weyl", "A1")[0] == 0
    parser = cli_mod._parser()
    calls = []
    monkeypatch.setattr(cli_mod, "_cmd_scan", lambda args: calls.append(args.command) or 7)
    assert run_cli(capsys, *_CUBIC_SCAN) == (7, "", "")
    assert calls == ["spl"] and cli_mod._parser() is parser


def test_cached_parser_restores_defaults_between_calls(capsys):
    fresh = subprocess.run([sys.executable, "-m", "chebdens.cli", *_CUBIC_SCAN],
                           capture_output=True, text=True, timeout=120)
    assert run_cli(capsys, *_CUBIC_SCAN, "--format", "csv")[1].startswith("p,splits,cycle_type\n")
    code, out, err = run_cli(capsys, *_CUBIC_SCAN)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert json.loads(out)["records"][0] == {"cycle_type": [1, 2], "p": 5, "splits": False}


@pytest.mark.parametrize("bad", [["spl", "--hi", "many"], ["spl", *_CUBIC_SCAN[1:], "--format", "xml"],
                                 ["density", "--kind", "exact"], ["no-such-command"]])
def test_argparse_error_leaves_the_next_call_alone(capsys, bad):
    before = run_cli(capsys, *_CUBIC_SCAN, "--format", "human")
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert run_cli(capsys, *_CUBIC_SCAN, "--format", "human") == before


@pytest.mark.parametrize("argv", [["--help"], ["spl", "--help"], ["verify", "--help"]])
def test_help_is_the_same_on_a_fresh_and_a_cached_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    helps = []
    for clear in (True, False):
        if clear:
            cli_mod._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and "usage: chebdens" in helps[0].out
