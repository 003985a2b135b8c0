import json
import os
import subprocess
import sys
import time

import pytest

from bianchimax import atkin_lehner, field_params, matrix_from_json, matrix_to_json, spin_map
from bianchimax import cli
from bianchimax.cli import main
from bianchimax.serialize import orthomap_to_json


# diag(p, 1/p, 1, 1) for m = 1 and p = (2**31 - 1)*(2**61 - 1): two primes
# past trial division, whose product is not a square and not below 2**66
P_PAST_FACTORING = (2**31 - 1) * (2**61 - 1)
LIFT_PAST_FACTORING = json.dumps({"m": 1, "P": [
    str(P_PAST_FACTORING), "0", "0", "0", "0", f"1/{P_PAST_FACTORING}"
] + ["0"] * 4 + ["1", "0", "0", "0", "0", "1"]})


def run_cli(capsys, monkeypatch, args, stdin_text=None):
    if stdin_text is not None:
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(args, stdin_text=None, timeout=30):
    """Run `python -m bianchimax` in a new process; a traceback fails the test."""
    result = subprocess.run(
        [sys.executable, "-m", "bianchimax", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert "Traceback" not in result.stderr
    return result.returncode, result.stdout, result.stderr


class TestVd:
    def test_m1_d2(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["vd", "--m", "1", "--d", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["u"] == 1 and payload["v"] == 1
        assert matrix_from_json(payload) == atkin_lehner(field_params(1), 2)

    def test_m5_d10_succeeds(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["vd", "--m", "5", "--d", "10"])
        assert code == 0
        assert json.loads(out)["f"] == 10

    def test_m5_d4_errors(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["vd", "--m", "5", "--d", "4"])
        assert code == 1
        assert "squarefree" in json.loads(out)["error"]
        assert "squarefree" in err

    def test_nonsquarefree_m_errors(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["vd", "--m", "12", "--d", "1"])
        assert code == 1
        assert "squarefree" in json.loads(out)["error"]


class TestClassify:
    def test_identity(self, capsys, monkeypatch):
        from bianchimax import ExtendedMatrix

        text = json.dumps(matrix_to_json(ExtendedMatrix.identity(1)))
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], text)
        assert code == 0
        assert json.loads(out) == {"member": True, "label": 1}

    def test_involution(self, capsys, monkeypatch):
        text = json.dumps(matrix_to_json(atkin_lehner(field_params(1), 2)))
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], text)
        assert code == 0
        assert json.loads(out) == {"member": True, "label": 2}

    def test_non_member_exits_zero(self, capsys, monkeypatch):
        from bianchimax import ExtendedMatrix, KElement

        mat = ExtendedMatrix.from_integral(
            2,
            (
                (KElement(1, 2, 0), KElement(1, 0, 0)),
                (KElement(1, 1, -1), KElement(1, 1, 0)),
            ),
        )
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], json.dumps(matrix_to_json(mat)))
        assert code == 0
        assert json.loads(out) == {"member": False}

    def test_malformed_json_errors(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], "{not json")
        assert code == 1
        assert "error" in json.loads(out)

    def test_det_mismatch_errors(self, capsys, monkeypatch):
        obj = matrix_to_json(atkin_lehner(field_params(1), 2))
        obj["f"] = 1
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], json.dumps(obj))
        assert code == 1
        assert "det" in json.loads(out)["error"]

    def test_bool_m_is_an_error_not_a_member(self, capsys, monkeypatch):
        obj = matrix_to_json(atkin_lehner(field_params(1), 1))
        obj["m"] = True
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], json.dumps(obj))
        assert code == 1
        assert "integers" in json.loads(out)["error"]

    def test_non_canonical_rational_is_an_error(self, capsys, monkeypatch):
        text = json.dumps(matrix_to_json(atkin_lehner(field_params(1), 1)))
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], text.replace('"1"', '"1e0"'))
        assert code == 1
        assert "rational" in json.loads(out)["error"]

    def test_failed_self_check_exits_3_without_traceback(self, capsys, monkeypatch):
        from bianchimax import ExtendedMatrix

        # atkin_lehner checks that V_d canonicalizes to denominator d; make
        # the canonicalization core return the identity, whose f is 1.
        monkeypatch.setattr(
            ExtendedMatrix, "_from_coords",
            classmethod(lambda cls, m, d, coords: cls.identity(m)),
        )
        code, out, err = run_cli(capsys, monkeypatch, ["vd", "--m", "1", "--d", "2"])
        assert code == 3
        assert json.loads(out)["error"] == (
            "internal self-check failed: V_2 canonicalized to denominator 1"
        )
        assert "Traceback" not in err

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(matrix_to_json(atkin_lehner(field_params(5), 5))))
        code, out, _ = run_cli(capsys, monkeypatch, ["classify", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["label"] == 5


class TestPhiAndLift:
    def test_phi_identity(self, capsys, monkeypatch):
        from bianchimax import ExtendedMatrix

        text = json.dumps(matrix_to_json(ExtendedMatrix.identity(1)))
        code, out, _ = run_cli(capsys, monkeypatch, ["phi"], text)
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonal"] is True
        assert payload["lattice_preserving"] is True
        assert payload["discriminant_kernel"] is True

    def test_phi_involution_flags(self, capsys, monkeypatch):
        text = json.dumps(matrix_to_json(atkin_lehner(field_params(1), 2)))
        code, out, _ = run_cli(capsys, monkeypatch, ["phi"], text)
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonal"] is True
        assert payload["lattice_preserving"] is True
        assert payload["discriminant_kernel"] is False

    def test_lift_round_trip_through_pipe_format(self, capsys, monkeypatch):
        v = atkin_lehner(field_params(1), 2)
        text = json.dumps(matrix_to_json(v))
        _, phi_out, _ = run_cli(capsys, monkeypatch, ["phi"], text)
        code, lift_out, _ = run_cli(capsys, monkeypatch, ["lift"], phi_out)
        assert code == 0
        assert matrix_from_json(json.loads(lift_out)) == v

    def test_lift_error_names_stage(self, capsys, monkeypatch):
        obj = orthomap_to_json(spin_map(atkin_lehner(field_params(1), 2)))
        obj["P"] = ["997"] + obj["P"][1:]
        code, out, _ = run_cli(capsys, monkeypatch, ["lift"], json.dumps(obj))
        assert code == 1
        assert "stage orthogonality" in json.loads(out)["error"]

    def test_lift_with_f_above_the_cap_fails_at_verification(self, capsys, monkeypatch):
        # diag(f, 1/f, 1, 1) passes all three gates; its lift (1/sqrt(f))*diag(f, 1)
        # has f = 2**66 + 1 (squarefree) above the cap
        f = 2**66 + 1
        flat = [str(f), "0", "0", "0", "0", f"1/{f}"] + ["0"] * 4 + ["1", "0", "0", "0", "0", "1"]
        code, out, err = run_cli(capsys, monkeypatch, ["lift"], json.dumps({"m": 1, "P": flat}))
        assert code == 1
        message = json.loads(out)["error"]
        assert message.startswith("lift failed at stage verification")
        assert "below 2**66" in message and "Traceback" not in err

    def test_lift_with_a_prime_beyond_the_factoring_limit_fails_at_root(self, capsys, monkeypatch):
        # diag(p, 1/p, 1, 1) passes all three gates; its anchor square has the
        # factor P_PAST_FACTORING, which squarefree_part cannot split
        code, out, err = run_cli(capsys, monkeypatch, ["lift"], LIFT_PAST_FACTORING)
        assert code == 1
        message = json.loads(out)["error"]
        assert message.startswith("lift failed at stage root")
        assert "cannot factor" in message and "Traceback" not in err


class TestIndexAndTable:
    def test_index(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["index", "--m", "5"])
        assert code == 0
        assert json.loads(out) == {"m": 5, "d_K": -20, "index": 4}

    def test_table(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["table", "--m", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == [1, 2, 5, 10]
        assert payload["table"][1][2] == 10

    @pytest.mark.parametrize(
        "m,nu",
        [
            (614889782588491410, 15),  # 2*3*5*...*47, so |d_K| = 4m has 15 primes
            # 3*5*7*...*53 = 1 (mod 4), so |d_K| = 4m has 16, the most m < 2**64 allows
            (16294579238595022365, 16),
        ],
    )
    def test_table_past_the_cap_fails_by_name_within_a_second(self, capsys, monkeypatch, m, nu):
        # the table would have 4**nu entries
        start = time.perf_counter()
        code, out, err = run_cli(capsys, monkeypatch, ["table", "--m", str(m)])
        assert time.perf_counter() - start < 1.0
        error = f"table is capped at 10 primes of d_K, but d_K = {-4 * m} has {nu}"
        assert (code, json.loads(out), err) == (1, {"error": error}, error + "\n")

    @pytest.mark.parametrize("m,built", [(6469693230, True), (200560490130, False)])
    def test_table_cap_is_checked_before_the_table_is_built(self, capsys, monkeypatch, m, built):
        # m is the product of the first 10 or 11 primes, and so is |d_K| / 4
        calls = []

        def factor_group_table(params):
            calls.append(params)
            return [], []

        monkeypatch.setattr(cli, "factor_group_table", factor_group_table)
        code, _, _ = run_cli(capsys, monkeypatch, ["table", "--m", str(m)])
        assert (code, len(calls)) == ((0, 1) if built else (1, 0))


class TestVerify:
    def test_small_verify_passes(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys, monkeypatch, ["verify", "--m", "1", "--height", "1", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(s["failed"] == 0 for s in payload["suites"])
        names = [s["name"] for s in payload["suites"]]
        assert names == sorted(names)
        assert "passed" in err

    def test_determinism(self, capsys, monkeypatch):
        args = ["verify", "--m", "1", "--height", "1", "--seed", "3"]
        _, out1, err1 = run_cli(capsys, monkeypatch, args)
        _, out2, err2 = run_cli(capsys, monkeypatch, args)
        assert out1 == out2
        assert err1 == err2

    def test_invalid_m_errors(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--m", "12"])
        assert code == 1
        assert "squarefree" in json.loads(out)["error"]

    def test_multiple_m(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verify", "--m", "1", "--m", "3", "--height", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert {s["m"] for s in payload["suites"]} == {1, 3}


    @staticmethod
    def plant_lift_failing_on_seventh_call(monkeypatch):
        from bianchimax import LiftError, verify

        real_lift, calls = verify.spin_lift, []

        def lift_failing_on_seventh_call(phi_map):
            calls.append(phi_map)
            if len(calls) == 7:
                raise LiftError("root", "planted")
            return real_lift(phi_map)

        monkeypatch.setattr(verify, "spin_lift", lift_failing_on_seventh_call)

    def test_failed_lift_is_a_counted_failure(self, monkeypatch):
        from bianchimax import verify

        self.plant_lift_failing_on_seventh_call(monkeypatch)
        res = verify.suite_orthogonal_lift(verify._Context(3, 1, 0))
        assert res.failed == 1
        assert res.passed == 35
        assert len(res.counterexamples) == 1 and "root" in res.counterexamples[0]

    def test_failed_lift_in_the_characterization_is_a_counted_failure(self, capsys, monkeypatch):
        self.plant_lift_failing_on_seventh_call(monkeypatch)
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--m", "3", "--height", "1"])
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert len(payload["suites"]) == 12
        # orthogonal.characterization lifts 16 maps for m = 3 and runs before orthogonal.lift
        failed = {s["name"]: s for s in payload["suites"] if s["failed"]}
        assert list(failed) == ["orthogonal.characterization"]
        assert failed["orthogonal.characterization"]["failed"] == 1
        assert any("root" in c for c in failed["orthogonal.characterization"]["counterexamples"])

    def test_lattice_test_passing_everything_fails_the_characterization(
        self, capsys, monkeypatch
    ):
        from bianchimax import verify

        monkeypatch.setattr(verify, "preserves_lattice", lambda phi_map: True)
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--m", "5", "--height", "1"])
        assert code == 1
        failed = {s["name"]: s for s in json.loads(out)["suites"] if s["failed"]}
        assert list(failed) == ["orthogonal.characterization"]
        assert failed["orthogonal.characterization"]["failed"] >= 1
        assert all(c.startswith("lattice != membership")
                   for c in failed["orthogonal.characterization"]["counterexamples"])

    def test_swapped_table_entries_fail_the_factor_group(self, monkeypatch):
        from bianchimax import verify

        real_table = verify.factor_group_table

        def swapped_table(params):
            labels, table = real_table(params)
            table[1][2], table[1][3] = table[1][3], table[1][2]
            return labels, table

        monkeypatch.setattr(verify, "factor_group_table", swapped_table)
        # m = 5: row 2 reads 2, 1, 5, 10, still a permutation with 1 on the diagonal
        res = verify.suite_involutions_factor_group(verify._Context(5, 1, 0))
        assert (res.passed, res.failed) == (23, 2)
        assert res.counterexamples == [
            "table[2][5] is not the symmetric-difference label",
            "table[2][10] is not the symmetric-difference label",
        ]

    def test_unclassifiable_lifted_product_is_a_counted_failure(self, monkeypatch):
        from bianchimax import verify

        monkeypatch.setattr(verify, "classify_coset", lambda mat: 0)
        res = verify.suite_orthogonal_lift(verify._Context(3, 1, 0))
        assert (res.passed, res.failed) == (31, 5)
        assert all(c.startswith("lifted product not in coset") for c in res.counterexamples)


def test_cli_import_leaves_out_dataclasses_inspect_and_verify():
    import bianchimax

    src = os.path.dirname(os.path.dirname(bianchimax.__file__))
    probe = (
        "import sys, bianchimax.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'bianchimax.verify') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_console_entry_point_runs():
    code, out, _ = run_cli_process(["index", "--m", "1"])
    assert code == 0
    assert json.loads(out) == {"m": 1, "d_K": -4, "index": 2}


LARGE_PRIME = 1000000000000000003
LARGE_DIAGONAL = json.dumps(
    {
        "m": 1,
        "f": LARGE_PRIME,
        "A": [[[str(LARGE_PRIME), "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
    }
)


@pytest.mark.parametrize(
    "args,stdin_text,message",
    [
        (["index", "--m", str(LARGE_PRIME)], None, "cannot factor"),
        (["vd", "--m", "1", "--d", str(LARGE_PRIME)], None, "does not divide"),
        (["lift"], LIFT_PAST_FACTORING, "lift failed at stage root"),
        # no prime factor below 2**22: trial division would take seconds
        (["index", "--m", str(2 * 10**3999 + 1)], None, "m must be below 2**64"),
    ],
)
def test_large_prime_inputs_fail_fast(args, stdin_text, message):
    # trial division up to the 18-digit prime would run for hours
    code, out, _ = run_cli_process(args, stdin_text, timeout=10)
    assert code == 1
    assert message in json.loads(out)["error"]


def test_prime_f_past_trial_division_is_decided():
    # f = LARGE_PRIME is squarefree by the cofactor rule; f does not divide 4
    code, out, _ = run_cli_process(["classify"], LARGE_DIAGONAL)
    assert (code, json.loads(out)) == (0, {"member": False})


# diag(p, 1/p, 1, 1) for m = 1 and the prime p = 2**61 - 1, which lifts to
# (1/sqrt(p))*diag(p, 1) with f = p past trial division
P_MERSENNE_61 = 2**61 - 1
LIFT_MERSENNE_61 = LIFT_PAST_FACTORING.replace(str(P_PAST_FACTORING), str(P_MERSENNE_61))


def test_lift_output_reads_back_into_classify_and_phi():
    code, lifted, _ = run_cli_process(["lift"], LIFT_MERSENNE_61)
    assert code == 0 and json.loads(lifted)["f"] == P_MERSENNE_61
    code, out, _ = run_cli_process(["classify"], lifted)
    assert (code, json.loads(out)) == (0, {"member": False})
    code, image, _ = run_cli_process(["phi"], lifted)
    assert code == 0 and json.loads(image)["P"] == json.loads(LIFT_MERSENNE_61)["P"]


# Two primes past trial division: squarefree by the cofactor rule, but
# |d_K| = m cannot be factored into its primes, which index and table need.
M_TWO_LARGE_PRIMES = 4611686138686472687  # 2147483659 * 2147483693


def test_m_with_two_large_primes_is_a_field_without_cosets():
    code, out, _ = run_cli_process(["vd", "--m", str(M_TWO_LARGE_PRIMES), "--d", "1"])
    vd = json.loads(out)
    assert code == 0 and (vd["m"], vd["f"]) == (M_TWO_LARGE_PRIMES, 1)
    code, out, _ = run_cli_process(["index", "--m", str(M_TWO_LARGE_PRIMES)])
    assert code == 1 and "cannot factor" in json.loads(out)["error"]


# Squarefree m below 2**64 with m % 4 == 1, so |d_K| = 4m and d = 2m is above 2**64.
M_PAST_2_POW_64 = 10003628061488344205  # 5*13*17*29*37*41*53*61*73*89*97*101
M_LIFTABLE = 13033353911277396569  # 139*149*419*479*1231*1453*1753


@pytest.mark.parametrize("m", [M_PAST_2_POW_64, M_LIFTABLE])
def test_coset_with_f_above_2_pow_64_passes_the_f_cap(capsys, monkeypatch, m):
    code, vd_out, _ = run_cli(capsys, monkeypatch, ["vd", "--m", str(m), "--d", str(2 * m)])
    assert code == 0 and json.loads(vd_out)["f"] == 2 * m > 2**64
    code, out, _ = run_cli(capsys, monkeypatch, ["classify"], vd_out)
    assert (code, json.loads(out)) == (0, {"member": True, "label": 2 * m})
    code, phi_out, _ = run_cli(capsys, monkeypatch, ["phi"], vd_out)
    assert code == 0
    code, out, _ = run_cli(capsys, monkeypatch, ["lift"], phi_out)
    # for M_PAST_2_POW_64 the anchor's square leaves a square cofactor past
    # 2**44 after trial division, which contributes nothing to f
    mat = matrix_from_json(json.loads(vd_out))
    assert code == 0 and matrix_from_json(json.loads(out)) in (mat, -mat)


def test_stdout_closed_early_prints_no_traceback():
    # The reader goes away before the command writes, as `| head -c 100` can.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bianchimax", "verify", "--m", "1", "--height", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=30) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
    assert "orthogonal.lattice[m=1]: " in stderr


@pytest.mark.parametrize("height", ["-1", "0", "4", "1000000"])
def test_verify_height_outside_1_to_3_fails_fast(height):
    # height h sweeps (2h+1)**8 matrices per field; height 0 or below sweeps none
    code, out, _ = run_cli_process(["verify", "--m", "1", "--height", height], timeout=10)
    assert code == 1
    assert json.loads(out) == {"error": f"height {height} is outside 1..3"}


def test_verify_repeated_m_fails_before_any_suite(capsys, monkeypatch):
    from bianchimax import verify

    def suite_that_must_not_run(ctx):
        raise AssertionError("a suite ran")  # exit 3

    monkeypatch.setattr(verify, "ALL_SUITES", (suite_that_must_not_run,))
    code, out, err = run_cli(capsys, monkeypatch, ["verify", "--m", "1", "--m", "3", "--m", "1"])
    assert code == 1
    assert json.loads(out) == {"error": "m = 1 is given more than once"}
    assert err == "m = 1 is given more than once\n"


@pytest.mark.parametrize("args,error", [
    (["--m", "0", "--m", "0"], "m = 0 is given more than once"),
    (["--m", "12", "--height", "9"], "height 9 is outside 1..3"),
], ids=["repeated-bad-m", "bad-m-and-height"])
def test_verify_checks_its_flags_in_one_place(capsys, monkeypatch, args, error):
    # run_suites is the one validator of verify's flags: it checks height and
    # repeats before it builds the field of each m
    code, out, err = run_cli(capsys, monkeypatch, ["verify", *args])
    assert (code, json.loads(out), err) == (1, {"error": error}, error + "\n")


@pytest.mark.parametrize("m,nu", [(614889782588491410, 15), (16294579238595022365, 16)])
def test_verify_past_the_cap_fails_by_name_within_a_second(capsys, monkeypatch, m, nu):
    # the same m as TestIndexAndTable's: the coset suites check 4**nu pairs
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch, ["verify", "--m", str(m), "--height", "1"])
    assert time.perf_counter() - start < 1.0
    error = f"verify is capped at 10 primes of d_K, but d_K = {-4 * m} has {nu}"
    assert (code, json.loads(out), err) == (1, {"error": error}, error + "\n")


@pytest.mark.parametrize("m,reached", [(6469693230, True), (200560490130, False)])
def test_verify_cap_is_checked_before_any_suite(capsys, monkeypatch, m, reached):
    # m is the product of the first 10 or 11 primes, and so is |d_K| / 4
    from bianchimax import verify

    calls = []

    def recording_suite(ctx):
        calls.append(ctx.m)
        return verify.SuiteResult("recording", ctx.m)

    monkeypatch.setattr(verify, "ALL_SUITES", (recording_suite,))
    code, _, _ = run_cli(capsys, monkeypatch, ["verify", "--m", "1", "--m", str(m), "--height", "1"])
    assert (code, calls) == ((0, [1, m]) if reached else (1, []))


@pytest.mark.parametrize(
    "ms,height,error",
    [
        ([1], 10**5000, "height 1000"),
        ([10**5000] * 2, 1, "m = 1000"),
    ],
    ids=["height", "repeated-m"],
)
def test_run_suites_quotes_a_huge_value_briefly(ms, height, error):
    from bianchimax.verify import run_suites

    with pytest.raises(ValueError) as info:
        run_suites(ms, height=height)
    message = str(info.value)
    assert message.startswith(error) and "... (length 5001) is" in message and len(message) < 200


@pytest.mark.parametrize("height", [-1, 0])
def test_run_suites_rejects_height_outside_1_to_3(height):
    from bianchimax.verify import run_suites

    with pytest.raises(ValueError, match=f"height {height} is outside 1..3"):
        run_suites([1], height=height)


@pytest.mark.parametrize(
    "name,value,kind",
    [("height", True, "bool"), ("height", 2.0, "float"), ("seed", True, "bool"), ("seed", "0", "str")],
)
def test_run_suites_takes_int_height_and_seed(name, value, kind):
    from bianchimax.verify import run_suites

    with pytest.raises(TypeError, match=rf"^{name} must be an int, got .* \({kind}\)$"):
        run_suites([1], **{name: value})


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "command,text",
    [
        (["classify"], DEEP),
        (["phi"], '{"m": 1, "f": 1, "A": ' + DEEP + "}"),
        (["lift", "--file"], '{"m": 1, "P": ' + DEEP + "}"),
    ],
    ids=["classify", "phi", "lift-file"],
)
def test_deeply_nested_json_is_a_named_error(command, text, tmp_path):
    if command[-1] == "--file":
        path = tmp_path / "input.json"
        path.write_text(text)
        command, text = [*command, str(path)], None
    code, out, _ = run_cli_process(command, text, timeout=10)
    assert code == 1
    assert json.loads(out) == {"error": "input JSON nests too deeply"}


HUGE = 10**6
HUGE_PAIR = '["0", "0"]'


@pytest.mark.parametrize(
    "command,text,error,reason",
    [
        (["lift"], '{"m": 1, "P": ["' + "1" * HUGE + '"' + ', "0"' * 15 + "]}",
         "invalid rational string '1111",
         ": numerator or denominator longer than the cap of 4300 digits"),
        (["classify"],
         '{"m": 1, "f": 1, "A": [[[' + ", ".join(["0"] * HUGE) + "], " + HUGE_PAIR + "], ["
         + HUGE_PAIR + ", " + HUGE_PAIR + "]]}",
         "field element must be a pair of rational strings, got [0, 0", ""),
    ],
    ids=["lift-long-string", "classify-long-list"],
)
def test_huge_value_is_quoted_briefly(command, text, error, reason):
    code, out, err = run_cli_process(command, text)
    assert code == 1
    assert len(out.encode()) <= 512
    assert len(err.encode()) <= 512
    message = json.loads(out)["error"]
    assert message.startswith(error)
    assert message.endswith(f"... (length {HUGE}){reason}")


NEXT_PRIME_AFTER_2_POW_45 = 35184372088891
HUGE_SQUARE = 10**3999
HUGE_COFACTOR = 10**600 * NEXT_PRIME_AFTER_2_POW_45
HUGE_ENTRY = json.dumps(
    {"m": 1, "f": 1, "A": [[[str(HUGE_SQUARE), "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}
)

LONGEST_ENTRY = "1" + "0" * 4299  # 4300 digits, the JSON cap
HUGE_DET_ENTRY = json.dumps(
    {"m": 1, "f": 1, "A": [[[LONGEST_ENTRY, "0"], ["0", "0"]], [["0", "0"], [LONGEST_ENTRY, "0"]]]}
)


@pytest.mark.parametrize(
    "args,stdin_text,error,length",
    [
        (["index", "--m", str(HUGE_SQUARE)], None, "m must be below 2**64, got 1000", 4000),
        (["index", "--m", str(HUGE_COFACTOR)], None,
         "m must be below 2**64, got 3518437208889100", 614),
        (["vd", "--m", "1", "--d", str(HUGE_SQUARE)], None, "d must be below 2**66, got 1000",
         4000),
        # no prime factor below 2**22: trial division of f would take seconds
        (["classify"], LARGE_DIAGONAL.replace(str(LARGE_PRIME), str(2 * HUGE_SQUARE + 1)),
         "denominator part must be below 2**66, got 2000", 4000),
        # the message quotes repr(det A), which is 18 characters longer than its digits
        (["classify"], HUGE_ENTRY, "det A = KElement(m=1, 1000", 4018),
        # two entries at the JSON cap whose determinant has more digits than an int may print
        (["classify"], HUGE_DET_ENTRY, "det A = KElement(m=1, 1000", 8617),
    ],
    ids=["index-4000-digit-square", "index-614-digit-m", "vd-huge-d", "classify-huge-f",
         "classify-huge-entry", "classify-determinant-past-the-digit-limit"],
)
def test_huge_integer_is_quoted_briefly(args, stdin_text, error, length):
    code, out, err = run_cli_process(args, stdin_text)
    assert code == 1
    assert len(out.encode()) <= 512
    assert len(err.encode()) <= 512
    message = json.loads(out)["error"]
    assert message.startswith(error)
    assert f"... (length {length})" in message
