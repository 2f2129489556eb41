"""Command-line interface: exit codes, formats, and determinism."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import povmquad
from povmquad import check_completeness, check_optimality, check_universality, load_povm
from povmquad.cli import (
    EXIT_CERTIFICATION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    _build_parser,
    _count,
    main,
)
from povmquad.errors import InputFormatError
from povmquad.estimation import MAX_SHOTS, MC_MIN_SAMPLES


@pytest.fixture()
def povm_path(tmp_path):
    path = tmp_path / "qubit1.json"
    assert main(["build", "--d", "2", "--N", "1", "--out", str(path)]) == EXIT_OK
    return path


# The interpreter's limit on int-to-str conversion; 0 where there is none.
INT_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_writes_file_and_reports(self, tmp_path, capsys):
        path = tmp_path / "povm.json"
        code, out, _ = run(capsys, ["build", "--d", "2", "--N", "1", "--out", str(path)])
        assert code == EXIT_OK
        assert path.exists()
        assert "2 elements" in out
        assert "completeness residual" in out

    def test_build_json_payload(self, tmp_path, capsys):
        path = tmp_path / "povm.json"
        code, out, _ = run(
            capsys, ["build", "--d", "2", "--N", "2", "--out", str(path), "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["operation"] == "build"
        assert doc["elements"] == 6
        assert doc["residuals"]["optimality"] < 1e-10
        assert abs(doc["weight_sum"] - 1.0) < 1e-12

    def test_build_resource_guard_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["build", "--d", "3", "--N", "12", "--out", str(tmp_path / "x.json")]
        )
        assert code == EXIT_RESOURCE
        assert "resource guard" in err

    @pytest.mark.parametrize(
        "argv",
        [["build", "--d", "20000", "--N", "2", "--out", "x.json"],
         ["clone", "--d", "20000", "--N", "1", "--M", "2", "--seed", "1"]],
        ids=["build", "clone"],
    )
    def test_huge_d_refused_in_one_line(self, tmp_path, capsys, monkeypatch, argv):
        # 2^(d-1) M d_N^2 has about 6000 digits; the lower bound
        # max(d, N+1)^3 = 8e12 refuses the run first.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == EXIT_RESOURCE
        assert err.startswith(
            "resource guard: construction cost d_k^3 lower bound for d=20000, k=2 = 8000000000000 exceeds"
        )
        assert "POVMQUAD_BUILD_GUARD" in err
        assert err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "x.json").exists()

    def test_build_impossible_tolerance_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["build", "--d", "2", "--N", "1", "--out", str(tmp_path / "x.json"),
             "--tol", "0"],
        )
        assert code == EXIT_CERTIFICATION
        assert "certification failure" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
    def test_build_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        code, _, err = run(
            capsys,
            ["build", "--d", "2", "--N", "1", "--out", str(tmp_path / "x.json"), "--tol", tol],
        )
        assert code == EXIT_INPUT
        assert "--tol" in err
        assert not (tmp_path / "x.json").exists()


    def test_build_residuals_equal_library_checks(self, tmp_path, capsys):
        # build reports the certificate it checks, at level N, and no
        # level-(N+1) residual: universality is verify's.
        path = tmp_path / "povm.json"
        _, out, _ = run(capsys, ["build", "--d", "2", "--N", "3", "--out", str(path), "--json"])
        povm = load_povm(path)
        assert json.loads(out)["residuals"] == {
            "completeness": check_completeness(povm),
            "optimality": check_optimality(povm),
        }
        assert "universality" not in run(capsys, ["build", "--d", "2", "--N", "3", "--out", str(path)])[1]

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (2, 8), (3, 2), (3, 3), (3, 4), (4, 2)])
    def test_verify_universality_equals_the_built_family(self, tmp_path, capsys, povm_for, d, n):
        # The level-(N+1) residual of the benchmark families, read from the
        # file build writes, is the library's on the built family, bit for bit.
        path = tmp_path / "povm.json"
        assert run(capsys, ["build", "--d", str(d), "--N", str(n), "--out", str(path)])[0] == EXIT_OK
        code, out, _ = run(capsys, ["verify", str(path), "--level", "universality", "--json"])
        assert code == EXIT_CERTIFICATION  # the grids are exact at degree 2N only
        assert json.loads(out)["residuals"] == {"universality": check_universality(povm_for(d, n))}

    def test_refused_build_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # The grid's first charge, d_1^3 >= max(2, 2)^3 = 8, does not fit.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        path = tmp_path / "x.json"
        code, _, err = run(capsys, ["build", "--d", "2", "--N", "1", "--out", str(path)])
        assert code == EXIT_RESOURCE
        assert "construction cost d_k^3 lower bound for d=2, k=1 = 8 exceeds guard 7" in err
        assert not path.exists()

    @pytest.mark.parametrize("d,n", [(2, 99), (6, 3), (8, 2)])
    def test_build_reaches_every_certified_family(self, tmp_path, capsys, monkeypatch, d, n):
        # The default guard admits these certificates but not their
        # level-(N+1) operators: build writes the file, which verifies at
        # level N, and verify's universality check is refused.
        monkeypatch.delenv("POVMQUAD_BUILD_GUARD", raising=False)
        path = tmp_path / "povm.json"
        code, _, err = run(capsys, ["build", "--d", str(d), "--N", str(n), "--out", str(path)])
        assert code == EXIT_OK, err
        assert path.exists()
        code, out, err = run(capsys, ["verify", str(path), "--level", "optimality"])
        assert code == EXIT_OK, err
        assert "[PASS]" in out
        code, out, err = run(capsys, ["verify", str(path), "--level", "universality"])
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.startswith("resource guard: frame operator cost A*d_k^2")
        assert f"for d={d}, k={n + 1} = " in err

    @pytest.mark.parametrize("d,n", [(9, 2), (2, 100)])
    def test_build_past_the_certificate_writes_nothing(self, tmp_path, capsys, monkeypatch, d, n):
        monkeypatch.delenv("POVMQUAD_BUILD_GUARD", raising=False)
        path = tmp_path / "povm.json"
        code, out, err = run(capsys, ["build", "--d", str(d), "--N", str(n), "--out", str(path)])
        assert (code, out) == (EXIT_RESOURCE, "")
        assert f"construction cost A*d_N^2 for d={d}, N={n}, " in err
        assert not path.exists()

    def test_dedupe_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["build", "--d", "2", "--N", "1", "--out", str(tmp_path / "x.json"), "--dedupe"])
        assert info.value.code == EXIT_INPUT
        assert "--dedupe" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("d", [34, 44])
    def test_build_past_32_coordinates(self, tmp_path, capsys, d):
        # numpy's meshgrid stops at 32 dimensions; the grid is formed one
        # coordinate at a time, so d >= 34 builds and verifies.
        path = tmp_path / "povm.json"
        code, out, err = run(capsys, ["build", "--d", str(d), "--N", "1", "--out", str(path)])
        assert code == EXIT_OK, err
        code, out, err = run(capsys, ["verify", str(path), "--level", "optimality"])
        assert code == EXIT_OK, err
        assert "[PASS]" in out

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing_dir" / "x.json"
        code, out, err = run(capsys, ["build", "--d", "2", "--N", "1", "--out", str(path)])
        assert code == EXIT_INPUT
        assert err.startswith("input error: cannot write POVM file")
        assert "Traceback" not in err
        assert out == ""
        assert not path.exists()


class TestVerify:
    def test_verify_passes_on_built_file(self, povm_path, capsys):
        code, out, _ = run(
            capsys, ["verify", str(povm_path), "--level", "completeness"]
        )
        assert code == EXIT_OK
        assert "[PASS]" in out

    def test_verify_optimality_and_completeness_all_pass(self, povm_path, capsys):
        code, out, _ = run(capsys, ["verify", str(povm_path), "--level", "optimality"])
        assert code == EXIT_OK

    def test_verify_universality_fails_on_minimal_grid(self, povm_path, capsys):
        code, out, _ = run(
            capsys, ["verify", str(povm_path), "--level", "universality"]
        )
        assert code == EXIT_CERTIFICATION
        assert "[FAIL]" in out

    def test_verify_json_reports_residuals(self, povm_path, capsys):
        code, out, _ = run(capsys, ["verify", str(povm_path), "--json"])
        assert code == EXIT_CERTIFICATION  # universality fails for N=1 grid
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["residuals"]["completeness"] < 1e-10
        assert doc["residuals"]["universality"] > 1e-3

    def test_verify_rejects_tampered_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": "1", "d": 2}')
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_INPUT
        assert "input error" in err

    @pytest.mark.parametrize("key,value", [("N", 1.9), ("N", True), ("N", "1"), ("d", 2.5)])
    def test_verify_rejects_non_integer_dimensions(self, povm_path, capsys, key, value):
        doc = json.loads(povm_path.read_text())
        doc[key] = value
        povm_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", str(povm_path), "--level", "completeness"])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert out == ""

    def test_verify_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["verify", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT
        assert err.startswith("input error: cannot read POVM file")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_verify_rejects_bad_tolerance(self, povm_path, capsys, tol):
        code, _, err = run(capsys, ["verify", str(povm_path), "--level", "completeness",
                                    "--tol", tol])
        assert code == EXIT_INPUT
        assert "--tol" in err

    def test_verify_nan_residual_fails(self, povm_path, capsys, monkeypatch):
        import povmquad.cli
        import povmquad.povm

        # The file passes the load gate; then the level-N residual that
        # check_completeness scales reads NaN.
        load = povmquad.cli.load_povm

        def load_then_break(path):
            povm = load(path)
            monkeypatch.setattr(povmquad.povm, "check_optimality", lambda povm: math.nan)
            return povm

        monkeypatch.setattr(povmquad.cli, "load_povm", load_then_break)
        code, out, _ = run(capsys, ["verify", str(povm_path), "--level", "completeness"])
        assert code == EXIT_CERTIFICATION
        assert "[FAIL]" in out

    @pytest.mark.parametrize("level", ["all", "completeness", "optimality", "universality"])
    def test_residuals_equal_library_checks(self, tmp_path, capsys, level):
        path = tmp_path / "qutrit2.json"
        assert main(["build", "--d", "3", "--N", "2", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        _, out, _ = run(capsys, ["verify", str(path), "--level", level, "--json"])
        povm = load_povm(path)
        expected = {
            "completeness": check_completeness(povm),
            "optimality": check_optimality(povm),
            "universality": check_universality(povm),
        }
        if level != "all":
            expected = {level: expected[level]}
        assert json.loads(out)["residuals"] == expected

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_level_n_operator_formed_once(self, povm_path, tmp_path, capsys, monkeypatch, command):
        import povmquad.symmetric

        levels = []
        original = povmquad.symmetric.frame_operator

        def counting(amplitudes, weights, level):
            levels.append(level)
            return original(amplitudes, weights, level)

        monkeypatch.setattr(povmquad.symmetric, "frame_operator", counting)
        if command == "build":
            argv, expected = ["build", "--d", "2", "--N", "1", "--out", str(tmp_path / "b.json")], EXIT_OK
        else:
            # A minimal N = 1 grid is not universal, so verify exits 1.
            argv, expected = ["verify", str(povm_path), "--json"], EXIT_CERTIFICATION
        assert run(capsys, argv)[0] == expected
        # build certifies G_1 and verify's load gate forms it; every
        # level-1 check reuses it.  verify then forms G_2 for universality,
        # which build does not report.
        assert levels == ([1] if command == "build" else [1, 2])


# Commands that read a POVM file, with arguments that make them run.
FILE_COMMANDS = {
    "verify": ["--level", "completeness"],
    "fidelity": ["--samples", "100", "--seed", "1"],
    "simulate": ["--shots", "10", "--seed", "1", "--basis", "0"],
}


class TestNonFiniteFile:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_non_finite_value_is_input_error(self, povm_path, capsys, data):
        doc = json.loads(povm_path.read_text())
        element = doc["elements"][data.draw(st.integers(0, len(doc["elements"]) - 1))]
        value = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        if data.draw(st.booleans(), label="weight slot"):
            element["w"] = value
        else:
            amp = element["c"][data.draw(st.integers(0, len(element["c"]) - 1))]
            amp[data.draw(st.integers(0, 1))] = value
        bad = povm_path.with_name("bad.json")
        bad.write_text(json.dumps(doc))
        command = data.draw(st.sampled_from(sorted(FILE_COMMANDS)))
        code, out, err = run(capsys, [command, str(bad), *FILE_COMMANDS[command]])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert out == ""


class TestUnparsableFile:
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_deeply_nested_file_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, [command, str(path), *FILE_COMMANDS[command]])
        assert code == EXIT_INPUT
        assert err.startswith("input error: cannot read POVM file")
        assert err.count("\n") == 1
        assert out == ""


# Well-formed JSON that is not a POVM document.
MALFORMED = {
    "top-level-array": lambda doc: [doc],
    "element-without-w": lambda doc: {**doc, "elements": [{"c": e["c"]} for e in doc["elements"]]},
    "c-not-a-list": lambda doc: {**doc, "elements": [{**e, "c": 0.5} for e in doc["elements"]]},
    # float(false) is 0.0: read as numbers, these parts would give a
    # complete, optimal family.
    "false-imaginary-parts": lambda doc: {
        **doc,
        "elements": [{**e, "c": [[re, False] for re, _ in e["c"]]} for e in doc["elements"]],
    },
    # Finite parts whose squares or sum pass the largest double.
    "huge-amplitude": lambda doc: {
        **doc,
        "elements": [{**e, "c": [["1.7e154", "0"], *e["c"][1:]]} for e in doc["elements"]],
    },
    "huge-weights": lambda doc: {**doc, "elements": [{**e, "w": "1.7e308"} for e in doc["elements"]]},
}


class TestMalformedFile:
    @pytest.mark.parametrize("damage", MALFORMED.values(), ids=MALFORMED.keys())
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_malformed_document_is_input_error(self, povm_path, capsys, command, damage):
        bad = povm_path.with_name("bad.json")
        bad.write_text(json.dumps(damage(json.loads(povm_path.read_text()))))
        code, out, err = run(capsys, [command, str(bad), *FILE_COMMANDS[command]])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert err.count("\n") == 1
        assert out == ""


class TestHugeFamilyFile:
    @pytest.mark.parametrize("d", [1000, 2000])
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_refused_by_the_guard_at_once(self, tmp_path, capsys, monkeypatch, command, d):
        # One element and N = 10**d, so d_N has about d^2 digits.  It was
        # formed before any guard: verify took 15 s at d = 2000.  The lower
        # bound A*max(d, N+1)^2 of the level-N operator refuses first.
        monkeypatch.delenv("POVMQUAD_BUILD_GUARD", raising=False)
        path = tmp_path / "huge.json"
        element = {"c": [["1", "0"]] + [["0", "0"]] * (d - 1), "w": "1"}
        path.write_text(json.dumps({"N": 10**d, "d": d, "elements": [element], "format_version": "1"}))
        start = time.perf_counter()
        code, out, err = run(capsys, [command, str(path), *FILE_COMMANDS[command]])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.startswith(
            f"resource guard: frame operator cost A*d_k^2 lower bound for d={d}, k=about 10^{d} = about 10^{2 * d} "
        )


class TestGuardVariables:
    @pytest.mark.parametrize("value", ["nan", "inf", "1e9", "abc", "0", "-5"])
    @pytest.mark.parametrize(
        "variable,argv",
        [
            ("POVMQUAD_BUILD_GUARD", ["build", "--d", "2", "--N", "1", "--out", "x.json"]),
            ("POVMQUAD_FULL_SPACE_GUARD", ["moments", "--d", "2", "--max-len", "1"]),
            ("POVMQUAD_FULL_SPACE_GUARD", ["clone", "--d", "2", "--N", "1", "--M", "2", "--seed", "1"]),
        ],
        ids=["build", "moments", "clone"],
    )
    def test_bad_value_is_input_error(self, tmp_path, capsys, monkeypatch, variable, argv, value):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(variable, value)
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        if value in ("0", "-5"):
            assert err == f"input error: need {variable} >= 1, got {value}\n"
        else:
            assert err == f"input error: {variable} must be an integer, got {value!r}\n"
        assert err.count("\n") == 1
        assert out == ""
        assert list(tmp_path.iterdir()) == []


# Each is read as 10 by int(); the guard variables read ASCII digits only.
LOOSE_GUARD_VALUES = ["1_0", " 10 ", "+10", "\u0661\u0660"]


class TestGuardVariableGrammar:
    @pytest.mark.parametrize("value", LOOSE_GUARD_VALUES, ids=["underscore", "spaces", "plus", "arabic-indic"])
    @pytest.mark.parametrize(
        "variable,argv",
        [
            ("POVMQUAD_BUILD_GUARD", ["build", "--d", "2", "--N", "1", "--out", "x.json"]),
            ("POVMQUAD_FULL_SPACE_GUARD", ["moments", "--d", "2", "--max-len", "1"]),
        ],
        ids=["build", "full-space"],
    )
    def test_loose_integer_is_input_error(self, tmp_path, capsys, monkeypatch, variable, argv, value):
        # Read as 10, each admitted the run: (2,1) costs A*d_N^2 = 8 and
        # the one-length moment table has 4 rows.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(variable, value)
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert err == f"input error: {variable} must be an integer, got {value!r}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_negative_value_names_its_bound(self, monkeypatch):
        # The integer-flag rule reads one leading '-', so the range check
        # names the bound.
        from povmquad.errors import FULL_SPACE_GUARD_ENV, InputFormatError, _read_guard

        monkeypatch.setenv(FULL_SPACE_GUARD_ENV, "-5")
        with pytest.raises(InputFormatError, match="need POVMQUAD_FULL_SPACE_GUARD >= 1, got -5"):
            _read_guard(FULL_SPACE_GUARD_ENV)


# float() reads the first eight; none is an ASCII decimal literal, the one form of a --tol.
LOOSE_TOLS = ["1_0", " 1e-3", "1e-3 ", "\u0661", "\uff11", "1e-1_0", "nan", "Infinity",
              "0x1p-3", "1e", ".", "+", "", "1e-3e2"]

# --tol values that begin with '-': all refused by _tol, none by argparse.
DASH_TOLS = ["-inf", "-1e-5", "-nan", "-0.5", "-Infinity", "-1_0", "-", "-x"]


class TestTolGrammar:
    @pytest.mark.parametrize("tol", LOOSE_TOLS)
    def test_build_refuses_loose_float_text(self, tmp_path, capsys, tol):
        out_path = tmp_path / "x.json"
        code, out, err = run(capsys, ["build", "--d", "2", "--N", "1", "--out", str(out_path), "--tol", tol])
        assert code == EXIT_INPUT
        assert err == f"input error: --tol must be a finite non-negative decimal number, got {tol!r}\n"
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("tol", LOOSE_TOLS)
    def test_verify_refuses_loose_float_text(self, tmp_path, capsys, tol):
        # (3,4) is not universal: its level-5 residual, 5.6e-03, passed a
        # --tol of 1_0, read as 10.
        path = str(tmp_path / "d3_N4.json")
        assert main(["build", "--d", "3", "--N", "4", "--out", path]) == EXIT_OK
        capsys.readouterr()
        code, out, err = run(capsys, ["verify", path, "--tol", tol])
        assert code == EXIT_INPUT
        assert "--tol" in err and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize(
        "tol,value",
        [("1e-3", 1e-3), ("0.5", 0.5), (".5", 0.5), ("5.", 5.0), ("+1E-10", 1e-10), ("0", 0.0),
         ("-0.0", 0.0), ("007e-1", 0.7)],
    )
    def test_decimal_literals_are_read(self, povm_path, capsys, tol, value):
        code, out, _ = run(capsys, ["verify", str(povm_path), "--level", "optimality", "--tol", tol, "--json"])
        assert code in (EXIT_OK, EXIT_CERTIFICATION)
        assert json.loads(out)["tol"] == value

    @pytest.mark.parametrize("attached", [False, True], ids=["spaced", "attached"])
    @pytest.mark.parametrize("tol", DASH_TOLS)
    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_dash_values_reach_the_check(self, tmp_path, povm_path, capsys, command, tol, attached):
        # `--tol -inf` used to end in argparse's "expected one argument".
        out_path = tmp_path / "x.json"
        argv = {"build": ["build", "--d", "2", "--N", "1", "--out", str(out_path)], "verify": ["verify", str(povm_path)]}
        flag = [f"--tol={tol}"] if attached else ["--tol", tol]
        code, out, err = run(capsys, [*argv[command], *flag])
        assert code == EXIT_INPUT
        assert err == f"input error: --tol must be a finite non-negative decimal number, got {tol!r}\n"
        assert out == ""
        assert not out_path.exists()

    def test_dash_value_after_double_dash_is_left_alone(self, capsys):
        # After `--` every word is positional: verify's path is `--tol`
        # and -inf is one argument too many.
        with pytest.raises(SystemExit) as info:
            main(["verify", "--", "--tol", "-inf"])
        assert info.value.code == EXIT_INPUT
        assert "unrecognized arguments: -inf" in capsys.readouterr().err

    def test_default_is_the_certification_tolerance(self, povm_path, capsys):
        from povmquad.povm import CERTIFICATION_TOL

        code, out, _ = run(capsys, ["verify", str(povm_path), "--level", "optimality", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["tol"] == CERTIFICATION_TOL


class TestAbbreviatedFlags:
    """A flag is read by its full name or as --name=value, never by a prefix."""

    @pytest.mark.parametrize(
        "flags",
        [["--to", "-inf"], ["--to", "0.5"], ["--to=0.5"], ["--lev", "completeness"], ["--js"]],
        ids=["to-dash", "to", "to-attached", "lev", "js"],
    )
    def test_verify_refuses_a_prefix(self, povm_path, capsys, flags):
        # `--to -inf` ended in argparse's "expected one argument" and
        # `--to 0.5` set the tolerance.
        with pytest.raises(SystemExit) as info:
            main(["verify", str(povm_path), *flags])
        assert info.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [["--ou", "{out}", "--js"], ["--out", "{out}", "--to", "0.5"], ["--out", "{out}", "--js"]],
        ids=["ou-js", "to", "js"],
    )
    def test_build_refuses_a_prefix(self, tmp_path, capsys, flags):
        # `build --d 2 --N 1 --ou x.json --js` built the family.
        out_path = tmp_path / "x.json"
        argv = [flag.format(out=out_path) for flag in flags]
        with pytest.raises(SystemExit) as info:
            main(["build", "--d", "2", "--N", "1", *argv])
        assert info.value.code == EXIT_INPUT
        assert capsys.readouterr().out == ""
        assert not out_path.exists()

    def test_no_parser_takes_a_prefix(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert parser.allow_abbrev is False
        assert sorted(sub.choices) == ["build", "clone", "fidelity", "moments", "simulate", "verify"]
        assert all(p.allow_abbrev is False for p in sub.choices.values())

    @pytest.mark.parametrize("tol", ["0.5", "1e-3"])
    def test_full_names_read_as_before(self, povm_path, capsys, tol):
        spaced = run(capsys, ["verify", str(povm_path), "--level", "optimality", "--tol", tol, "--json"])
        attached = run(capsys, ["verify", str(povm_path), "--level=optimality", f"--tol={tol}", "--json"])
        assert spaced == attached
        assert spaced[0] == EXIT_OK and json.loads(spaced[1])["tol"] == float(tol)

    def test_build_full_names_write_the_file(self, tmp_path, povm_path, capsys):
        out_path = tmp_path / "y.json"
        code, out, _ = run(capsys, ["build", "--d=2", "--N=1", f"--out={out_path}", "--tol=1e-10", "--json"])
        assert code == EXIT_OK and json.loads(out)["elements"] == 2
        assert out_path.read_bytes() == povm_path.read_bytes()


class TestFidelity:
    def test_table_output(self, povm_path, capsys):
        code, out, _ = run(
            capsys,
            ["fidelity", str(povm_path), "--samples", "2000", "--seed", "3"],
        )
        assert code == EXIT_OK
        assert "analytic" in out
        assert "2/3" in out

    def test_csv_output(self, povm_path, capsys):
        code, out, _ = run(
            capsys,
            ["fidelity", str(povm_path), "--samples", "2000", "--seed", "3", "--csv"],
        )
        assert code == EXIT_OK
        assert "\r\n" in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["d", "N", "analytic", "mc_estimate", "stderr", "optimal"]
        assert len(rows) == 2
        assert abs(float(rows[1][2]) - 2.0 / 3.0) < 1e-10
        assert rows[1][5] == "2/3"

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["fidelity", "--sweep", "--d", "2", "--N", "1", "2",
             "--samples", "500", "--seed", "11", "--json"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["optimal"] == "2/3"
        assert doc["rows"][1]["optimal"] == "3/4"

    def test_monte_carlo_close_to_analytic(self, povm_path, capsys):
        code, out, _ = run(
            capsys,
            ["fidelity", str(povm_path), "--samples", "20000", "--seed", "4", "--json"],
        )
        doc = json.loads(out)
        row = doc["rows"][0]
        assert abs(row["mc_estimate"] - row["analytic"]) < 3 * row["stderr"]

    def test_requires_path_or_sweep(self, capsys):
        code, _, err = run(capsys, ["fidelity", "--samples", "500", "--seed", "1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["/nonexistent.json", "--sweep", "--d", "2", "--N", "1"],
             "provide exactly one of a POVM path or --sweep"),
            (["PATH", "--d", "2", "--N", "1"],
             "--d and --N require --sweep; a POVM file has its own d and N"),
            (["PATH", "--N", "1", "2"],
             "--d and --N require --sweep; a POVM file has its own d and N"),
        ],
        ids=["path-and-sweep", "path-and-d", "path-and-n"],
    )
    def test_conflicting_flags_refused_before_any_work(
        self, povm_path, capsys, monkeypatch, argv, message
    ):
        # Each once exited 0 and ignored one of the flags.
        for name in ("check_sample_cost", "load_povm", "build_povm"):
            monkeypatch.setattr(povmquad.cli, name, None)
        argv = [str(povm_path) if a == "PATH" else a for a in argv]
        code, out, err = run(capsys, ["fidelity", *argv, "--samples", "100", "--seed", "1"])
        assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")

    def test_level_n_plus_one_frame_under_build_guard(self, tmp_path, capsys, monkeypatch):
        # Loading the d=3, N=4 grid (A = 171) certifies G_4 (171 * 15^2 =
        # 38475) and one unit of samples costs 21^2 + 1024 = 1465, but
        # the fidelity's G_5 costs 171 * 21^2 = 75411.
        path = str(tmp_path / "qutrit4.json")
        assert main(["build", "--d", "3", "--N", "4", "--out", path]) == EXIT_OK
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "50000")
        code, _, err = run(capsys, ["fidelity", path, "--samples", "100", "--seed", "1"])
        assert code == EXIT_RESOURCE
        assert "frame operator cost" in err
        assert "POVMQUAD_BUILD_GUARD" in err

    def test_optimal_is_the_exact_fraction(self, capsys, monkeypatch):
        # Every row's p/q against optimal_fidelity's Fraction, the families
        # and their statistics stood in for, so (8, 60) needs no grid.
        from types import SimpleNamespace

        from povmquad import FidelityReport, optimal_fidelity

        report = FidelityReport(value=0.5, stderr=0.0, method="stand-in")
        monkeypatch.setattr(povmquad.cli, "build_povm", lambda d, n: SimpleNamespace(d=d, N=n))
        monkeypatch.setattr(povmquad.cli, "mean_fidelity_exact", lambda povm: report)
        monkeypatch.setattr(povmquad.cli, "mean_fidelity_mc", lambda povm, samples, seed: report)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", str(10**40))
        d_values, n_values = range(2, 9), range(1, 61)
        code, out, _ = run(capsys, [
            "fidelity", "--sweep", "--d", *map(str, d_values), "--N", *map(str, n_values),
            "--samples", "100", "--seed", "1", "--json",
        ])
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == len(d_values) * len(n_values)
        for row in rows:
            assert row["optimal"] == str(optimal_fidelity(row["N"], row["d"])), row

    def test_deterministic_output(self, povm_path, capsys):
        argv = ["fidelity", str(povm_path), "--samples", "1000", "--seed", "6", "--json"]
        code_a, out_a, _ = run(capsys, argv)
        code_b, out_b, _ = run(capsys, argv)
        assert (code_a, out_a) == (code_b, out_b)


class TestSampleGuard:
    """fidelity charges its Monte Carlo work per family before it draws a state."""

    @pytest.fixture()
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr(povmquad.estimation, "haar_random_states", refuse)

    def test_huge_sample_count_refused_at_once(self, povm_path, capsys, no_draws):
        start = time.perf_counter()
        code, out, err = run(capsys, ["fidelity", str(povm_path), "--samples", str(10**12), "--seed", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource guard: Monte Carlo cost")

    @pytest.mark.parametrize("samples", [513, 1024])
    def test_boundary_of_one_family(self, povm_path, capsys, monkeypatch, samples):
        # d=2, N=1: d_2 = 3, and 513..1024 samples are 2 units of 512,
        # costing 2 * (3^2 + 1024) = 2066.
        argv = ["fidelity", str(povm_path), "--samples", str(samples), "--seed", "1"]
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "2066")
        assert run(capsys, argv)[0] == EXIT_OK
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "2065")
        with monkeypatch.context() as patch:
            patch.setattr(povmquad.estimation, "haar_random_states", None)
            code, out, err = run(capsys, argv)
        assert code == EXIT_RESOURCE
        assert out == ""
        # At d = 2, d_(N+1) = N+d: the lower bound is the cost itself.
        assert "= 2066 exceeds guard 2065" in err

    def test_one_more_unit_is_charged(self, povm_path, capsys, monkeypatch):
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "2066")
        monkeypatch.setattr(povmquad.estimation, "haar_random_states", None)
        code, _, err = run(capsys, ["fidelity", str(povm_path), "--samples", "1025", "--seed", "1"])
        assert code == EXIT_RESOURCE
        assert "= 3099 exceeds guard 2066" in err

    def test_sweep_charges_the_sum_before_any_build(self, capsys, monkeypatch):
        # d_(N+1)^2 over (2,1), (2,2), (3,1), (3,2) is 9 + 16 + 36 + 100 =
        # 161; 100 samples are one unit, so the sweep costs 161 + 4 * 1024.
        argv = ["fidelity", "--sweep", "--d", "2", "3", "--N", "1", "2", "--samples", "100", "--seed", "1"]
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "4257")
        assert run(capsys, argv)[0] == EXIT_OK
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "4256")
        monkeypatch.setattr(povmquad.cli, "build_povm", None)
        code, out, err = run(capsys, argv)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "units*(d_(N+1)^2+1024) for samples=100" in err and "= 4257 exceeds guard 4256" in err

    def test_default_guard_admits_documented_samples_wherever_g_n_plus_one_fits(self, monkeypatch):
        # Every family whose fidelity frame G_(N+1) the default guard could
        # admit, by the lower bound A >= n^(d-1) * d_N of sphere_grid's
        # outcome count (n = N//2 + 1 Gauss nodes per coordinate, a lattice
        # of at least d_N points), runs the README's 20,000 samples.  No
        # family is built; (44,1) is the tightest.
        from povmquad.estimation import check_sample_cost
        from povmquad.errors import _DEFAULTS, BUILD_GUARD_ENV
        from povmquad.errors import sym_dim

        monkeypatch.delenv(BUILD_GUARD_ENV, raising=False)
        guard = _DEFAULTS[BUILD_GUARD_ENV]
        admitted = []
        for d in range(2, 64):
            for n in range(1, 512):
                if (n // 2 + 1) ** (d - 1) * sym_dim(d, n) * sym_dim(d, n + 1) ** 2 > guard:
                    break
                admitted.append((d, n))
        assert {(4, 4), (3, 8), (5, 3), (6, 2), (2, 49)} <= set(admitted)
        assert max(d for d, _ in admitted) < 63 and max(n for _, n in admitted) < 511
        for family in admitted:
            check_sample_cost(20000, [family])

    def test_huge_sweep_refused_before_any_build(self, capsys, monkeypatch, no_draws):
        monkeypatch.setattr(povmquad.cli, "build_povm", None)
        for d, n in [("2", "1"), (str(10**30), "2"), ("3", str(10**30))]:
            code, out, err = run(capsys, [
                "fidelity", "--sweep", "--d", d, "--N", n, "--samples", str(10**12), "--seed", "1",
            ])
            assert code == EXIT_RESOURCE, err
            assert out == ""

    def test_huge_sweep_refused_before_its_families_are_listed(self, capsys, monkeypatch, no_draws):
        # 10^4 x 10^4 families of 1 unit each cost at least 10^8 * (3^2 + 1024).
        # Listing and charging them one by one took 5.7 s at 10^6 families;
        # product is refused too, so a regression fails before it lists 10^8.
        def refuse(*args, **kwargs):
            raise AssertionError("a family was listed or built")

        monkeypatch.setattr(povmquad.cli, "build_povm", refuse)
        monkeypatch.setattr(povmquad.cli, "product", refuse)
        monkeypatch.setattr(povmquad.cli, "check_sample_cost", refuse)
        argv = ["fidelity", "--sweep", "--d", *["2"] * 10**4, "--N", *["1"] * 10**4,
                "--samples", "100", "--seed", "1"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == (
            "resource guard: Monte Carlo cost units*(d_(N+1)^2+1024) lower bound for samples=100 "
            "= 103300000000 exceeds guard 50000000; set POVMQUAD_BUILD_GUARD to raise it\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        ds=st.lists(st.integers(2, 6), min_size=1, max_size=4),
        ns=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        samples=st.integers(MC_MIN_SAMPLES, 5000),
    )
    def test_sweep_floor_admits_what_the_sum_admits(self, ds, ns, samples):
        # Under a guard equal to the full charge, computed here from
        # C(N+d, d-1), the floor passes, and one less refuses the sum.
        from povmquad.errors import BUILD_GUARD_ENV, ResourceLimitError
        from povmquad.estimation import check_sample_cost, check_sweep_floor

        families = [(d, n) for d in ds for n in ns]
        cost = -(-samples // 512) * sum(math.comb(n + d, d - 1) ** 2 + 1024 for d, n in families)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(BUILD_GUARD_ENV, str(cost))
            check_sweep_floor(samples, len(families))
            check_sample_cost(samples, families)
            patch.setenv(BUILD_GUARD_ENV, str(cost - 1))
            with pytest.raises(ResourceLimitError):
                check_sample_cost(samples, families)

    def test_sweep_refuses_a_bad_family_before_any_build(self, capsys, monkeypatch):
        monkeypatch.setattr(povmquad.cli, "build_povm", None)
        code, out, err = run(capsys, [
            "fidelity", "--sweep", "--d", "2", "1", "--N", "1", "--samples", "100", "--seed", "1",
        ])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: need --d >= 2, got 1\n"

    def test_sweep_holds_one_family_at_a_time(self, capsys, monkeypatch):
        # Each family is built just before its row's Monte Carlo and dropped
        # after the row, so none outlives its row.
        import weakref

        built, starts = [], []
        real_build, real_mc = povmquad.cli.build_povm, povmquad.cli.mean_fidelity_mc

        def tracked_build(d, n):
            povm = real_build(d, n)
            built.append(weakref.ref(povm))
            return povm

        def checked_mc(povm, samples, seed):
            starts.append([ref() is not None for ref in built])
            return real_mc(povm, samples, seed)

        monkeypatch.setattr(povmquad.cli, "build_povm", tracked_build)
        monkeypatch.setattr(povmquad.cli, "mean_fidelity_mc", checked_mc)
        code, out, _ = run(capsys, [
            "fidelity", "--sweep", "--d", "2", "3", "--N", "1", "2", "3", "--samples", "100", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert starts == [[False] * k + [True] for k in range(6)]
        assert [ref() for ref in built] == [None] * 6

    @pytest.mark.parametrize("last,rows_run", [("99", [(2, 1), (2, 99)]), ("100", [(2, 1)])])
    def test_later_refusal_follows_earlier_rows(self, capsys, monkeypatch, last, rows_run):
        # The default guard admits the (2,99) grid but not its G_100, and
        # refuses the (2,100) grid itself.  Either refusal comes after the
        # (2,1) row's Monte Carlo, and the command exits 3 with nothing written.
        rows = []
        real_mc = povmquad.cli.mean_fidelity_mc
        monkeypatch.setattr(
            povmquad.cli, "mean_fidelity_mc",
            lambda povm, samples, seed: rows.append((povm.d, povm.N)) or real_mc(povm, samples, seed),
        )
        code, out, err = run(capsys, [
            "fidelity", "--sweep", "--d", "2", "--N", "1", last, "--samples", "100", "--seed", "1",
        ])
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "POVMQUAD_BUILD_GUARD" in err
        assert rows == rows_run


class TestSimulate:
    def test_json_counts(self, povm_path, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", str(povm_path), "--shots", "5000", "--seed", "2",
             "--state-seed", "7", "--json"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert sum(doc["counts"]) == 5000
        assert len(doc["counts"]) == 2
        assert doc["tv_distance"] < 0.1

    def test_basis_state_input(self, povm_path, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", str(povm_path), "--shots", "1000", "--seed", "2",
             "--basis", "0"],
        )
        assert code == EXIT_OK
        assert "simulated 1000 shots" in out

    def test_requires_exactly_one_state_source(self, povm_path, capsys):
        code, _, err = run(
            capsys, ["simulate", str(povm_path), "--shots", "100", "--seed", "1"]
        )
        assert code == EXIT_INPUT
        code, _, err = run(
            capsys,
            ["simulate", str(povm_path), "--shots", "100", "--seed", "1",
             "--state-seed", "3", "--basis", "0"],
        )
        assert code == EXIT_INPUT

    def test_basis_index_out_of_range(self, povm_path, capsys):
        code, _, err = run(
            capsys,
            ["simulate", str(povm_path), "--shots", "100", "--seed", "1",
             "--basis", "5"],
        )
        assert code == EXIT_INPUT

    def test_basis_above_d_names_the_flag(self, povm_path, capsys):
        # Once named the library argument: need 0 <= index <= 1, got 5.
        code, out, err = run(
            capsys,
            ["simulate", str(povm_path), "--shots", "10", "--seed", "1", "--basis", "5"],
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: need 0 <= --basis <= 1, got 5\n"

    def test_deterministic_output(self, povm_path, capsys):
        argv = ["simulate", str(povm_path), "--shots", "2000", "--seed", "9",
                "--state-seed", "4", "--json"]
        _, out_a, _ = run(capsys, argv)
        _, out_b, _ = run(capsys, argv)
        assert out_a == out_b


    def test_billion_shots_end_within_seconds(self, tmp_path, capsys):
        # The counts are one binomial per outcome, so 10^9 shots on the
        # 171-outcome (3,4) family cost about what 10^4 do.
        path = str(tmp_path / "d3_N4.json")
        assert main(["build", "--d", "3", "--N", "4", "--out", path]) == EXIT_OK
        capsys.readouterr()
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            ["simulate", path, "--shots", "1000000000", "--seed", "1", "--state-seed", "2",
             "--json"],
        )
        assert time.perf_counter() - start < 3.0
        assert code == EXIT_OK
        assert sum(json.loads(out)["counts"]) == 10**9

    def test_shots_past_int64_are_input_errors(self, povm_path, capsys):
        code, _, err = run(
            capsys,
            ["simulate", str(povm_path), "--shots", str(2**63), "--seed", "1", "--basis", "0"],
        )
        assert code == EXIT_INPUT
        assert "shots" in err


class TestClone:
    def test_csv_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--states", "3",
             "--seed", "5", "--csv"],
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["M", "state_index", "single_particle", "two_step"]
        body = rows[1:]
        assert len(body) == 6  # M = 1 and M = 2, three states each
        for m, _idx, single, _two in body:
            if m == "1":
                assert abs(float(single) - 1.0) < 1e-10
            else:
                assert abs(float(single) - 5.0 / 6.0) < 1e-10
        for m, _idx, _single, two in body:
            if m == "2":
                assert abs(float(two) - 2.0 / 3.0) < 1e-8

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["clone", "--d", "2", "--N", "2", "--M", "2", "--states", "2",
             "--seed", "8", "--json"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert all(abs(row["single_particle"] - 1.0) < 1e-10 for row in doc["rows"])

    def test_rejects_m_below_n(self, capsys):
        code, _, err = run(
            capsys,
            ["clone", "--d", "2", "--N", "3", "--M", "2", "--seed", "1"],
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_rejects_d_below_two_by_its_flag(self, capsys, d):
        # Checked before the top family is built: build_povm(d, M) would
        # report M as N ("got d=1, N=2").
        code, out, err = run(capsys, ["clone", "--d", d, "--N", "1", "--M", "2", "--seed", "0"])
        assert code == EXIT_INPUT
        assert err == f"input error: need --d >= 2, got {d}\n"
        assert out == ""

    @pytest.mark.parametrize("states", ["0", "-2"])
    def test_rejects_non_positive_states_before_building(self, capsys, monkeypatch, states):
        import povmquad.cli

        def refuse(*args, **kwargs):
            raise AssertionError("build_povm called")

        monkeypatch.setattr(povmquad.cli, "build_povm", refuse)
        code, out, err = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "3", "--states", states, "--seed", "1"],
        )
        assert code == EXIT_INPUT
        assert "--states" in err
        assert out == ""

    def test_each_output_formed_once(self, capsys, monkeypatch):
        import povmquad.cli
        import povmquad.cloner

        calls = []
        real_clone = povmquad.cloner.clone

        def counting_clone(state, n, m):
            calls.append(m)
            return real_clone(state, n, m)

        # Both names, so a clone formed inside the two-step chain counts too.
        monkeypatch.setattr(povmquad.cli, "clone", counting_clone)
        monkeypatch.setattr(povmquad.cloner, "clone", counting_clone)
        code, _, _ = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "3", "--states", "2", "--seed", "1"],
        )
        assert code == EXIT_OK
        assert sorted(calls) == [1, 1, 2, 2, 3, 3]

    def test_each_family_embedded_once(self, capsys, monkeypatch):
        import povmquad.quadrature

        levels = []
        real_embed = povmquad.quadrature.sym_embed_batch

        def counting_embed(amplitudes, n):
            levels.append(n)
            return real_embed(amplitudes, n)

        # The embeddings a Povm keeps: the M-copy family in the two-step check.
        monkeypatch.setattr(povmquad.quadrature, "sym_embed_batch", counting_embed)
        code, _, _ = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "3", "--states", "3", "--seed", "1"],
        )
        assert code == EXIT_OK
        assert sorted(levels) == [1, 2, 3]

    def test_thirteen_qubit_clones_fit_default_guards(self, capsys):
        # d^M = 8192 used to exceed the full-space guard; d_M^3 = 2744.
        code, out, _ = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "13", "--states", "1",
             "--seed", "1", "--json"],
        )
        assert code == EXIT_OK
        top = json.loads(out)["rows"][-1]
        assert top["M"] == 13
        eta = 15.0 / 39.0  # N(M+d)/(M(N+d))
        assert abs(top["single_particle"] - (eta + (1.0 - eta) / 2.0)) < 1e-12

    def test_build_guard_refuses_clone(self, capsys, monkeypatch):
        # The M = 2 family is built first, and its construction cost
        # refuses the run before the M = 1 clone (d_M^3 = 8) is formed.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        code, out, err = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--states", "1", "--seed", "1"],
        )
        assert code == EXIT_RESOURCE
        assert "construction cost" in err
        assert "POVMQUAD_BUILD_GUARD" in err
        assert out == ""

    def test_refused_top_family_draws_and_clones_nothing(self, capsys, monkeypatch):
        # build_povm(2, 100) is over the default guard; every M below it is not.
        import povmquad.cli

        def no_work(*args, **kwargs):
            raise AssertionError("a refused run reached the states or the cloner")

        monkeypatch.setattr(povmquad.cli, "haar_random_state", no_work)
        monkeypatch.setattr(povmquad.cli, "clone", no_work)
        code, out, err = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "100", "--states", "1", "--seed", "1"],
        )
        assert code == EXIT_RESOURCE
        assert "POVMQUAD_BUILD_GUARD" in err
        assert out == ""

    def test_huge_states_refused_before_any_draw(self, capsys, monkeypatch):
        # 10^12 states x (M - N + 1) = 2e12 table rows exceed the full-space
        # guard.  A run that still reached the families or the draw fails
        # here at once instead of growing the state list without bound.
        import povmquad.cli

        def no_work(*args, **kwargs):
            raise AssertionError("a refused run built a family or drew a state")

        monkeypatch.setattr(povmquad.cli, "build_povm", no_work)
        monkeypatch.setattr(povmquad.cli, "haar_random_state", no_work)
        started = time.perf_counter()
        code, out, err = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--seed", "0", "--states", str(10**12)],
        )
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_RESOURCE
        assert err.startswith("resource guard: clone table rows states*(M-N+1)")
        assert f"= {2 * 10**12} exceeds guard 4096" in err
        assert "POVMQUAD_FULL_SPACE_GUARD" in err
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("states,expected", [(2, EXIT_OK), (3, EXIT_RESOURCE)])
    def test_table_rows_charged_exactly(self, capsys, monkeypatch, states, expected):
        # N = 1, M = 2: two rows per state against a guard of 4.
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "4")
        code, out, _ = run(
            capsys,
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--seed", "0", "--states", str(states), "--json"],
        )
        assert code == expected
        if expected == EXIT_OK:
            assert len(json.loads(out)["rows"]) == 2 * states
        else:
            assert out == ""

    def test_memory_does_not_grow_with_states(self, capsys):
        # Each cloner output (28 x 28 complex at M = 6) is dropped once its
        # row is written; only the rows themselves grow with --states.
        def peak(states):
            tracemalloc.start()
            try:
                code = main(["clone", "--d", "3", "--N", "1", "--M", "6",
                             "--states", str(states), "--seed", "2", "--json"])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(1)
        few_code, few = peak(2)
        many_code, many = peak(40)
        assert few_code == many_code == EXIT_OK
        assert many - few < 150_000

    def test_only_the_top_family_is_built(self, capsys, monkeypatch):
        # Every level measures with a restriction of the one certified
        # family; up to version 0.14.0 it built one grid per level, nine here.
        import povmquad.povm

        grids, builds = [], []
        real_grid, real_build = povmquad.povm.sphere_grid, povmquad.cli.build_povm
        monkeypatch.setattr(povmquad.povm, "sphere_grid", lambda d, n: grids.append((d, n)) or real_grid(d, n))
        monkeypatch.setattr(povmquad.cli, "build_povm", lambda d, n: builds.append((d, n)) or real_build(d, n))
        code, out, _ = run(capsys, ["clone", "--d", "2", "--N", "1", "--M", "9", "--states", "1", "--seed", "1905"])
        assert code == EXIT_OK
        assert grids == builds == [(2, 9)]


# The clone commands of the benchmark's clone workload (perfbench/run.py).
BENCHMARK_CLONES = [
    ["clone", "--d", "2", "--N", "1", "--M", "9", "--states", "1", "--seed", "1905", "--json"],
    ["clone", "--d", "3", "--N", "1", "--M", "4", "--states", "5", "--seed", "1906", "--json"],
]
class TestBenchmarkClones:
    @pytest.mark.parametrize("argv", BENCHMARK_CLONES, ids=["d2-M9", "d3-M4"])
    def test_every_level_reaches_the_optimum(self, capsys, argv):
        # The restricted top family is universal below M, so the m = N row
        # reads (N+1)/(N+d) too; single_particle is the cloner's own value.
        from povmquad import clone, haar_random_state, single_particle_fidelity

        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        flags = dict(zip(argv[1::2], argv[2::2]))
        d, n, m_top, seed = (int(flags[k]) for k in ("--d", "--N", "--M", "--seed"))
        rows = json.loads(out)["rows"]
        assert [(row["M"], row["state_index"]) for row in rows] == [
            (m, k) for m in range(n, m_top + 1) for k in range(int(flags["--states"]))
        ]
        for row in rows:
            assert abs(row["two_step"] - (n + 1) / (n + d)) <= 1e-8, row
            state = haar_random_state(d, seed + row["state_index"])
            assert row["single_particle"] == single_particle_fidelity(clone(state, n, row["M"]), state)


LAPACK_NAMES = ("eigvalsh", "eigh", "eigvals", "eig", "cholesky", "qr", "svd", "solve", "inv", "lstsq")


class TestCloneWithoutLapack:
    @pytest.mark.parametrize("argv", BENCHMARK_CLONES, ids=["d2-M9", "d3-M4"])
    def test_benchmark_clones_run_no_lapack_routine(self, capsys, monkeypatch, argv):
        code, expected, _ = run(capsys, argv)
        assert code == EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK routine was called")

        for name in LAPACK_NAMES:
            monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(AssertionError, match="LAPACK"):
            np.linalg.eigvalsh(np.eye(2))
        assert run(capsys, argv) == (EXIT_OK, expected, "")


VECTOR_PRODUCTS = ("vdot", "dot", "inner", "einsum")


class TestNoVectorProducts:
    def test_benchmark_commands_run_no_vector_product(self, tmp_path, capsys, monkeypatch):
        # build, verify, fidelity, simulate and clone as the benchmark runs
        # them, first as they are, then with numpy's vector products
        # refused: each command's output is the same.
        commands = _benchmark_commands(tmp_path)
        expected = [run(capsys, argv) for argv in commands]
        assert {code for code, _, _ in expected} <= {EXIT_OK, EXIT_CERTIFICATION}

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy vector product was called")

        for name in VECTOR_PRODUCTS:
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(AssertionError, match="vector product"):
            np.einsum("i,i", np.ones(2), np.ones(2))
        for argv, before in zip(commands, expected):
            assert run(capsys, argv) == before, argv


# Every integer flag, by subcommand, with arguments that parse around it.
INTEGER_FLAGS = {
    "build": (["--d", "--N"], ["--d", "2", "--N", "1", "--out", "x.json"]),
    "fidelity": (["--d", "--N", "--samples", "--seed"],
                 ["--sweep", "--d", "2", "--N", "1", "--samples", "100", "--seed", "1"]),
    "simulate": (["--shots", "--seed", "--state-seed", "--basis"],
                 ["x.json", "--shots", "10", "--seed", "1", "--state-seed", "1", "--basis", "0"]),
    "clone": (["--d", "--N", "--M", "--states", "--seed"],
              ["--d", "2", "--N", "1", "--M", "2", "--states", "1", "--seed", "1"]),
    "moments": (["--d", "--max-len"], ["--d", "2", "--max-len", "1"]),
}
# The least value each integer flag accepts.
INTEGER_FLAG_LOWS = {"--d": 2, "--N": 1, "--M": 1, "--states": 1, "--max-len": 1, "--seed": 0,
                     "--state-seed": 0, "--basis": 0, "--samples": MC_MIN_SAMPLES, "--shots": 1}
# Each one int() takes: a digit separator, a plus sign, a space, an
# Arabic-Indic three and a fullwidth two.
LOOSE_INTEGERS = ["1_0", "+2", " 2", "\u0663", "\uff12"]


class TestIntegerFlags:
    @pytest.mark.parametrize("token", LOOSE_INTEGERS, ids=ascii)
    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command, (flags, _) in INTEGER_FLAGS.items() for flag in flags],
    )
    def test_loose_integer_exits_2_naming_the_flag(self, tmp_path, capsys, monkeypatch,
                                                   command, flag, token):
        monkeypatch.chdir(tmp_path)
        base = INTEGER_FLAGS[command][1]
        argv = [command, *base]
        argv[argv.index(flag) + 1] = token
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT
        assert err.endswith(f"error: argument {flag}: invalid int value: {token!r}\n")
        assert out == ""
        assert not (tmp_path / "x.json").exists()

    def test_table_covers_every_integer_flag(self):
        # Every flag the parser reads as an integer, and no other, is in
        # the table; each is read by a _count type, none by int() itself,
        # and the flag its range error names is the flag's own.
        parser = _build_parser()
        commands = parser._subparsers._group_actions[0].choices
        counts = {name: [a for a in sub._actions if a.type is not None
                         and a.type.__qualname__ == "_count.<locals>.count"]
                  for name, sub in commands.items()}
        found = {name: sorted(flag for action in actions for flag in action.option_strings)
                 for name, actions in counts.items()}
        assert not [a for sub in commands.values() for a in sub._actions if a.type is int]
        assert found == {name: sorted(INTEGER_FLAGS.get(name, ([], []))[0]) for name in commands}
        for action in (action for actions in counts.values() for action in actions):
            # Every lower bound is at least 0, so -1 is out of every range.
            with pytest.raises(InputFormatError) as info:
                action.type("-1")
            assert re.fullmatch(r"need (?:\d+ <= )?(\S+) [<>]= \d+, got -1", str(info.value))[1] in (
                action.option_strings)

    @pytest.mark.parametrize("token,value", [("0", 0), ("007", 7), ("-3", -3), ("-0", 0)])
    def test_ascii_digits_parse(self, token, value):
        assert _count("--x", -3)(token) == value

    @pytest.mark.parametrize("token", ["", "-", "--2", "2-", "2.0", "0x10", "1e3", "-+2", "2 "])
    def test_other_tokens_refused(self, token):
        with pytest.raises(argparse.ArgumentTypeError, match="invalid int value"):
            _count("--x", -3)(token)

    @pytest.mark.parametrize(
        "command,flag,value",
        [(command, flag, INTEGER_FLAG_LOWS[flag] - 1)
         for command, (flags, _) in INTEGER_FLAGS.items() for flag in flags]
        + [("simulate", "--shots", MAX_SHOTS + 1)],
    )
    def test_out_of_range_exits_2_naming_the_flag(self, tmp_path, capsys, monkeypatch,
                                                  command, flag, value):
        # Refused as the flag is read: nothing is loaded or built.
        def refuse(*args, **kwargs):
            raise AssertionError("a family was loaded or built")

        monkeypatch.setattr(povmquad.cli, "load_povm", refuse)
        monkeypatch.setattr(povmquad.cli, "build_povm", refuse)
        monkeypatch.chdir(tmp_path)
        argv = [command, *INTEGER_FLAGS[command][1]]
        argv[argv.index(flag) + 1] = str(value)
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("input error: need ") and f" {flag} " in err, err
        assert err.endswith(f", got {value}\n") and err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()

    def test_range_errors_pass_through_argparse(self):
        # argparse would otherwise replace a type's range error, and the
        # bound it names, with its own "invalid <type> value" message.
        assert not issubclass(InputFormatError, (ValueError, TypeError))


# Flag values at and around 0, negative and huge.  Small ones alone, so
# that runs the guards admit are drawn too, or any of them.
SMALL_FLAG_VALUES = st.integers(1, 4)
CLONE_FLAG_VALUES = st.one_of(
    st.integers(-3, 4),
    st.sampled_from([10**6, 2**63, -(2**63), 10**30, -(10**30)]),
    st.integers(-(2**70), 2**70),
)


CLONE_FLAGS = ("--d", "--N", "--M", "--states", "--seed")


class TestCloneGrammar:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_flags_exit_cleanly(self, capsys, monkeypatch, data):
        # Each flag once, or dropped, then up to three repeats, in any order.
        values = data.draw(st.sampled_from([SMALL_FLAG_VALUES, SMALL_FLAG_VALUES, CLONE_FLAG_VALUES]))
        pairs = [(flag, data.draw(values, label=flag)) for flag in CLONE_FLAGS
                 if data.draw(st.integers(0, 19), label=f"keep {flag}")]
        pairs += data.draw(st.lists(st.tuples(st.sampled_from(CLONE_FLAGS), values),
                                    max_size=3), label="repeats")
        pairs = data.draw(st.permutations(pairs), label="order")
        fmt = data.draw(st.sampled_from([[], ["--json"], ["--csv"], ["--json", "--csv"]]))
        argv = ["clone", *(token for flag, value in pairs for token in (flag, str(value))), *fmt]
        # Small guards keep every admitted run small.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "20000")
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "64")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the grammar
            code = exc.code
        out, err = capsys.readouterr()
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_CERTIFICATION, EXIT_INPUT, EXIT_RESOURCE), argv
        assert "Traceback" not in err, argv
        if code != EXIT_OK:
            assert out == "", argv


# --tol as nan, infinities, zeros of both signs, tiny and huge values.
TOL_TEXTS = st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "0", "1e-300", "1e-10", "-1e-10", "1e308"])
# fidelity charges samples * d_(N+1)^2 to the build guard, so a huge
# count is refused before any state is drawn.
SAMPLE_COUNTS = st.one_of(
    st.integers(-3, 4),
    st.sampled_from([99, 100, 101, 1000, 10**12, 2**63, -(2**63), 10**30, -(10**30)]),
    st.integers(100, 3000),
    st.integers(-(2**70), 2**70),
)


def _grammar(command, ints, path, out):
    """Flag -> strategy for its tokens, for one subcommand; "" is the positional.

    ints draws every integer value; path is a stored family's file.
    """
    one = ints.map(lambda v: [str(v)])
    tol = TOL_TEXTS.map(lambda v: [v])
    file = st.sampled_from([[path], [path], [path + ".missing"], []])
    indices = st.lists(ints, max_size=4).map(lambda v: [",".join(map(str, v))])
    return {
        "build": {"--d": one, "--N": one, "--tol": tol, "--out": st.just([out])},
        "verify": {
            "": file, "--tol": tol,
            "--level": st.sampled_from(["all", "completeness", "optimality", "universality", "none"]).map(
                lambda v: [v]),
        },
        "fidelity": {
            "": file, "--sweep": st.just([]),
            "--d": st.lists(ints, min_size=1, max_size=3).map(lambda v: [str(x) for x in v]),
            "--N": st.lists(ints, min_size=1, max_size=3).map(lambda v: [str(x) for x in v]),
            "--samples": SAMPLE_COUNTS.map(lambda v: [str(v)]), "--seed": one,
        },
        "simulate": {"": file, "--shots": one, "--seed": one, "--state-seed": one, "--basis": one},
        "moments": {"--d": one, "--i": indices, "--j": indices, "--max-len": one},
    }[command]


FORMAT_FLAGS = {"fidelity": [[], ["--json"], ["--csv"], ["--json", "--csv"]]}


class TestGrammar:
    """TestCloneGrammar's property for the other five subcommands."""

    @pytest.mark.parametrize("command", ["build", "verify", "fidelity", "simulate", "moments"])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_flags_exit_cleanly(self, povm_path, tmp_path, capsys, monkeypatch, command, data):
        ints = data.draw(st.sampled_from([SMALL_FLAG_VALUES, SMALL_FLAG_VALUES, CLONE_FLAG_VALUES]))
        grammar = _grammar(command, ints, str(povm_path), str(tmp_path / "fuzz.json"))
        # Each flag once, or dropped, then up to three repeats, in any order.
        # A flag is dropped more often than in TestCloneGrammar, so that
        # runs with one of two exclusive flags (simulate's state, fidelity's
        # path or --sweep) are drawn too.
        pairs = [(flag, data.draw(values, label=flag or "path")) for flag, values in grammar.items()
                 if data.draw(st.integers(0, 3), label=f"keep {flag or 'path'}")]
        flags = sorted(flag for flag in grammar if flag)
        pairs += data.draw(st.lists(st.sampled_from(flags).flatmap(
            lambda flag: st.tuples(st.just(flag), grammar[flag])), max_size=3), label="repeats")
        pairs = data.draw(st.permutations(pairs), label="order")
        fmt = data.draw(st.sampled_from(FORMAT_FLAGS.get(command, [[], ["--json"]])))
        argv = [command, *(token for flag, tokens in pairs for token in ([flag] if flag else []) + tokens), *fmt]
        # Small guards keep every admitted run small.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "20000")
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "64")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the grammar
            code = exc.code
        out, err = capsys.readouterr()
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_CERTIFICATION, EXIT_INPUT, EXIT_RESOURCE), argv
        assert "Traceback" not in err, argv
        # verify prints its report, failed levels marked, before it exits 1.
        if code != EXIT_OK and not (command == "verify" and code == EXIT_CERTIFICATION):
            assert out == "", argv


def _node_paths(node, path=()):
    """The path (keys and indices) of every node of a JSON document, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, (*path, key))


# Values whose text is spliced into the file as it is: JSON numbers past
# a double's range, the non-standard tokens json accepts, deep nesting.
RAW_VALUES = ["1e999", "-1e999", "NaN", "Infinity", "-Infinity", "[" * 5000 + "]" * 5000,
              "[" * 50 + "]" * 50, "{}" , "[]"]
MUTANT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**70), 2**70), st.floats(),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "", "0.5", "true", "1"]),
    st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["c", "w", "d", "N"]), st.integers(-2, 2), max_size=2),
    st.sampled_from(range(len(RAW_VALUES))).map(lambda k: f"@raw{k}@"),
)
MUTATED_FILE_COMMANDS = {
    "verify": [],
    "fidelity": ["--samples", "100", "--seed", "1"],
    "simulate": ["--shots", "10", "--seed", "1", "--state-seed", "1"],
}


class TestMutatedFile:
    """TestGrammar's property over POVM files mutated from a valid one."""

    @pytest.fixture(scope="class")
    def valid_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("valid") / "qubit2.json"
        assert main(["build", "--d", "2", "--N", "2", "--out", str(path)]) == EXIT_OK
        return path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("command", sorted(MUTATED_FILE_COMMANDS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_mutation_exits_cleanly(self, valid_doc, tmp_path, capsys, monkeypatch, command, data):
        capsys.readouterr()
        doc = json.loads(valid_doc)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            paths = list(_node_paths(doc))
            path = data.draw(st.sampled_from(paths), label="path")
            value = data.draw(MUTANT_VALUES, label="value")
            if not path:
                doc = value
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans(), label="drop"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        text = json.dumps(doc, sort_keys=True, indent=data.draw(st.sampled_from([None, 2])))
        for k, raw in enumerate(RAW_VALUES):
            text = text.replace(f'"@raw{k}@"', raw)
        if data.draw(st.booleans(), label="truncate"):
            text = text[: data.draw(st.integers(0, len(text)), label="length")]
        mutated = tmp_path / "mutated.json"
        mutated.write_text(text, encoding="utf-8")
        # Small guards keep every admitted run small.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "20000")
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "64")
        argv = [command, str(mutated), *MUTATED_FILE_COMMANDS[command]]
        code = main(argv)
        out, err = capsys.readouterr()
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_CERTIFICATION, EXIT_INPUT, EXIT_RESOURCE), text
        assert "Traceback" not in err, text
        # verify prints its report, failed levels marked, before it exits 1.
        if code != EXIT_OK and not (command == "verify" and code == EXIT_CERTIFICATION):
            assert out == "", text


class TestMoments:
    def test_single_pair(self, capsys):
        code, out, _ = run(
            capsys, ["moments", "--d", "2", "--i", "1,2", "--j", "2,1"]
        )
        assert code == EXIT_OK
        assert "= 1/6" in out

    def test_vanishing_pair(self, capsys):
        code, out, _ = run(capsys, ["moments", "--d", "2", "--i", "1", "--j", "2"])
        assert code == EXIT_OK
        assert "= 0/1" in out

    def test_table_mode(self, capsys):
        code, out, _ = run(capsys, ["moments", "--d", "2", "--max-len", "1"])
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4

    def test_json_mode(self, capsys):
        code, out, _ = run(
            capsys, ["moments", "--d", "3", "--i", "1", "--j", "1", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["rows"][0]["value"] == "1/3"

    def test_requires_both_index_lists(self, capsys):
        code, _, err = run(capsys, ["moments", "--d", "2", "--i", "1"])
        assert code == EXIT_INPUT

    def test_index_lists_and_max_len_conflict(self, capsys, monkeypatch):
        # Once exited 0 and ignored --max-len.
        monkeypatch.setattr(povmquad.cli, "check_cost", None)
        code, out, err = run(
            capsys, ["moments", "--d", "2", "--i", "1", "--j", "1", "--max-len", "3"]
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: provide --i/--j or --max-len, not both\n"

    def test_rejects_out_of_range_index(self, capsys):
        code, _, err = run(capsys, ["moments", "--d", "2", "--i", "0", "--j", "1"])
        assert code == EXIT_INPUT
        assert err == "input error: need 1 <= i entry <= 2, got 0\n"

    def test_rejects_unparseable_index(self, capsys):
        code, _, err = run(capsys, ["moments", "--d", "2", "--i", "a", "--j", "1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("mode", [["--i", "1", "--j", "1"], ["--max-len", "1"], []])
    def test_rejects_d_below_two_by_its_flag(self, capsys, mode):
        # With --i/--j this once named the library argument: need d >= 2.
        code, out, err = run(capsys, ["moments", "--d", "1", *mode])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: need --d >= 2, got 1\n"

    @pytest.mark.parametrize(
        "token", ["1_0", "+10", " 10", "10 ", "\u0661\u0660", "a", "1.0", "-1", "1,,x", " "]
    )
    @pytest.mark.parametrize("flag", ["--i", "--j"])
    def test_index_entries_are_ascii_digits(self, capsys, flag, token):
        # int() takes 1_0, +10, spaces and Arabic-Indic digits; each exited 0.
        other = "--j" if flag == "--i" else "--i"
        code, out, err = run(capsys, ["moments", "--d", "20", f"{flag}={token}", other, "10"])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"input error: {flag} must be comma-separated digits 0-9, got {token!r}\n"

    @pytest.mark.parametrize(
        "i, j, line",
        [
            ("1,2", "2,1", "<c_(1,2) c*_(2,1)> = 1/6"),
            ("1,", "1", "<c_(1) c*_(1)> = 1/2"),
            ("1,,2", "2,1", "<c_(1,2) c*_(2,1)> = 1/6"),
            ("", "", "<c_() c*_()> = 1/1"),
            ("01", "1", "<c_(1) c*_(1)> = 1/2"),
        ],
    )
    def test_index_lists_that_parse(self, capsys, i, j, line):
        code, out, _ = run(capsys, ["moments", "--d", "2", f"--i={i}", f"--j={j}"])
        assert (code, out) == (EXIT_OK, line + "\n")

    def test_readme_table_fits_default_guard(self, capsys):
        code, out, _ = run(capsys, ["moments", "--d", "3", "--max-len", "2", "--json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["rows"]) == 3**2 + 3**4
        # Rows are streamed, yet the text is the one json.dumps document.
        assert out == json.dumps(doc, sort_keys=True) + "\n"

    def test_table_guard_refuses_before_output(self, capsys, monkeypatch):
        # Lengths 1 and 2 make 9 + 81 = 90 rows > 89, though length 1 fits.
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "89")
        code, out, err = run(capsys, ["moments", "--d", "3", "--max-len", "2"])
        assert code == EXIT_RESOURCE
        assert "POVMQUAD_FULL_SPACE_GUARD" in err
        assert out == ""

    def test_huge_max_len_refused_at_first_oversized_length(self, capsys):
        code, out, err = run(capsys, ["moments", "--d", "2", "--max-len", str(10**9)])
        assert code == EXIT_RESOURCE
        assert "rows d^2 + ... + d^(2l) for l=6, d=2 = 5460" in err
        assert out == ""

    def test_cumulative_rows_refused_at_default_guard(self, capsys):
        # Every d^l <= 64 fits, but 4 + 16 + ... + 4096 = 5460 rows do not.
        code, out, err = run(capsys, ["moments", "--d", "2", "--max-len", "6"])
        assert code == EXIT_RESOURCE
        assert "POVMQUAD_FULL_SPACE_GUARD" in err
        assert out == ""

    def test_raised_guard_admits_table(self, capsys, monkeypatch):
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "5460")
        code, out, _ = run(capsys, ["moments", "--d", "2", "--max-len", "6"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 5460

    @pytest.mark.parametrize("d,max_len", [("0", "3"), ("1", "3"), ("2", "0"), ("2", "-1")])
    def test_rejects_bad_table_arguments(self, capsys, d, max_len):
        code, out, err = run(capsys, ["moments", "--d", d, "--max-len", max_len])
        assert code == EXIT_INPUT
        assert out == ""

    @pytest.mark.skipif(not INT_STR_DIGITS, reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_value_too_long_to_print_is_input_error(self, capsys, fmt):
        # The denominator d(d+1) has more digits than an int may print.
        d = "1" + "0" * (INT_STR_DIGITS // 2 + 100)
        code, out, err = run(capsys, ["moments", "--d", d, "--i", "1,2", "--j", "2,1", *fmt])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.skipif(not INT_STR_DIGITS, reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("copies", [5000, 20000])
    def test_unprintable_moment_refused_before_it_is_formed(self, capsys, monkeypatch, copies):
        # Its denominator is at least (10^100)^l / l!, millions of digits;
        # forming it took 35.5 s at 20,000 copies.
        import povmquad.moments

        d, ones = "1" + "0" * 100, ",".join(["1"] * copies)
        with monkeypatch.context() as patch:
            patch.setattr(povmquad.moments, "moment_value", None)
            start = time.perf_counter()
            code, out, err = run(capsys, ["moments", "--d", d, "--i", ones, "--j", ones])
            assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: the exact moment for this --d has too many digits to print\n"
        # A vanishing pair at the same --d is formed and printed.
        twos = ",".join(["2"] * copies)
        code, out, _ = run(capsys, ["moments", "--d", d, "--i", ones, "--j", twos])
        assert code == EXIT_OK
        assert out.endswith("> = 0/1\n")

    @pytest.mark.skipif(not INT_STR_DIGITS, reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("k", range(INT_STR_DIGITS // 2 - 2, INT_STR_DIGITS // 2 + 3))
    def test_digit_refusal_is_exact_at_the_limit(self, capsys, k):
        # At d = 10^k the moment of (1,2), (2,1) is 1/(d(d+1)), whose
        # denominator has 2k+1 digits: it prints exactly when they fit.
        code, out, err = run(capsys, ["moments", "--d", "1" + "0" * k, "--i", "1,2", "--j", "2,1"])
        if 2 * k + 1 <= INT_STR_DIGITS:
            assert (code, err) == (EXIT_OK, "")
            assert len(out.rsplit("/", 1)[1].strip()) == 2 * k + 1
        else:
            assert (code, out) == (EXIT_INPUT, "")
            assert err == "input error: the exact moment for this --d has too many digits to print\n"


class TestSeeds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{path}", "--shots", "10", "--seed", "-1", "--state-seed", "1"],
            ["simulate", "{path}", "--shots", "10", "--seed", "1", "--state-seed", "-3"],
            ["fidelity", "{path}", "--samples", "100", "--seed", "-5"],
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--seed", "-1"],
        ],
        ids=["simulate-seed", "simulate-state-seed", "fidelity-seed", "clone-seed"],
    )
    def test_negative_seed_is_input_error(self, povm_path, capsys, monkeypatch, argv):
        import povmquad.cli

        def no_work(*args, **kwargs):
            raise AssertionError("a negative seed reached the computation")

        # Rejected before any work: nothing is loaded or built.
        monkeypatch.setattr(povmquad.cli, "load_povm", no_work)
        monkeypatch.setattr(povmquad.cli, "build_povm", no_work)
        code, out, err = run(capsys, [arg.format(path=povm_path) for arg in argv])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert "Traceback" not in err
        assert out == ""


class TestFlagsBeforeWork:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--sweep", "--d", "3", "--N", "10", "--samples", "5", "--seed", "1"],
            ["fidelity", "--sweep", "--d", "2", "--N", "2", "3", "4", "--samples", "5", "--seed", "1"],
            ["fidelity", "{path}", "--samples", "99", "--seed", "1"],
            ["simulate", "{path}", "--shots", "0", "--seed", "1", "--state-seed", "1"],
            ["simulate", "{path}", "--shots", "10", "--seed", "1"],
            ["simulate", "{path}", "--shots", "10", "--seed", "1", "--state-seed", "1", "--basis", "0"],
            ["simulate", "{path}", "--shots", "10", "--seed", "1", "--basis", "-1"],
            ["fidelity", "--sweep", "--samples", "100", "--seed", "1"],
            ["moments", "--d", "2"],
        ],
        ids=["fidelity-sweep-guarded", "fidelity-sweep-three", "fidelity-path",
             "simulate-shots", "simulate-no-state", "simulate-two-states",
             "simulate-negative-basis", "fidelity-sweep-no-lists", "moments-no-mode"],
    )
    def test_bad_flag_is_input_error_before_work(self, povm_path, capsys, monkeypatch, argv):
        import povmquad.cli

        def no_work(*args, **kwargs):
            raise AssertionError("a bad flag reached the computation")

        monkeypatch.setattr(povmquad.cli, "load_povm", no_work)
        monkeypatch.setattr(povmquad.cli, "build_povm", no_work)
        code, out, err = run(capsys, [arg.format(path=povm_path) for arg in argv])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert out == ""


def python_process(args, stdout=subprocess.PIPE):
    """`python ARGS` in a fresh process, its output as bytes.

    The child imports povmquad from the tree under test.  PYTHONUNBUFFERED
    is removed, so stdout is block-buffered, as from a shell, and output
    is still pending when the process ends.
    """
    src = Path(povmquad.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120
    )


def cli_process(argv, stdout=subprocess.PIPE):
    """`python -m povmquad.cli ARGV`, as python_process runs it."""
    return python_process(["-m", "povmquad.cli", *argv], stdout)


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestClosedStdout:
    def test_broken_pipe_is_output_error(self, capsys, monkeypatch):
        read_fd, write_fd = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(write_fd))
            code = main(["moments", "--d", "3", "--max-len", "3"])
            monkeypatch.undo()
        finally:
            os.close(read_fd)
            os.close(write_fd)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert len(err.splitlines()) == 1
        assert "stdout" in err

    @pytest.mark.parametrize(
        "argv",
        [["moments", "--d", "3", "--max-len", "3"], ["moments", "--d", "2", "--i", "1", "--j", "1"]],
        ids=["long", "short"],
    )
    def test_closed_pipe_in_a_process(self, argv):
        # The reader end is closed before the process starts, so its first
        # write, or the flush of a short output, meets a broken pipe.  Output
        # stays block-buffered, as from a shell, so data is still pending
        # when the error is caught and again at process exit.
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = cli_process(argv, stdout=write_fd)
        finally:
            os.close(write_fd)
        assert proc.returncode == EXIT_INPUT
        assert len(proc.stderr.splitlines()) == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["fidelity", "--help"]], ids=["top", "subcommand"])
    def test_help_to_full_device_is_output_error(self, argv, buffering):
        # Buffered, the interpreter's exit-time flush printed "Exception
        # ignored" and exited 120; unbuffered, argparse dropped the failed
        # write and exited 0.  The parser now writes and flushes its help
        # inside the stdout error mapping.
        with open("/dev/full", "wb") as full:
            proc = python_process([*buffering, "-m", "povmquad.cli", *argv], stdout=full)
        assert proc.returncode == EXIT_INPUT, proc.stderr
        assert proc.stderr.decode().splitlines() == [
            "output error: cannot write all output to stdout: [Errno 28] No space left on device"
        ]

    @pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_help_to_a_pipe_exits_0(self, buffering):
        proc = python_process([*buffering, "-m", "povmquad.cli", "fidelity", "--help"])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith(b"usage: povmquad fidelity ")
        assert b"--samples SAMPLES" in proc.stdout
        assert proc.stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{path}", "--json"],
            ["build", "--d", "2", "--N", "2", "--out", "{out}", "--json"],
            ["verify", "{path}"],
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--states", "300", "--seed", "1", "--csv"],
            ["moments", "--d", "3", "--max-len", "3"],
            ["fidelity", "{path}", "--samples", "100", "--seed", "1", "--json"],
            ["fidelity", "{path}", "--samples", "100", "--seed", "1", "--csv"],
            ["simulate", "{path}", "--shots", "10", "--seed", "1", "--state-seed", "1"],
            ["moments", "--d", "3", "--max-len", "3", "--json"],
        ],
        ids=[
            "verify-short",
            "build-short",
            "verify-failed-short",
            "clone-long",
            "moments-long",
            "fidelity-json-short",
            "fidelity-csv-short",
            "simulate-short",
            "moments-json-long",
        ],
    )
    def test_full_device_is_output_error(self, povm_path, tmp_path, argv):
        # Every write to /dev/full fails with ENOSPC.  A short output fails
        # at main's flush, a long one at a write once the buffer fills.
        # verify-failed-short would be exit 1, a certification failure,
        # had its report been written.
        argv = [arg.format(path=povm_path, out=tmp_path / "out.json") for arg in argv]
        with open("/dev/full", "wb") as full:
            proc = cli_process(argv, stdout=full)
        assert proc.returncode == EXIT_INPUT, proc.stderr
        assert proc.stderr.decode().splitlines() == [
            "output error: cannot write all output to stdout: [Errno 28] No space left on device"
        ]


# One invocation of each subcommand and of each exit path: exit 0 in each
# output format, 1 (verify on the minimal d=2, N=1 grid, which is not
# universal), 2 (a bad --tol, a missing file, an argparse usage error),
# 3 (a build over a small guard) and --help.  {path} is that grid's file.
PROCESS_CONTRACT = [
    (["build", "--d", "2", "--N", "2", "--out", "{tmp}/b.json"], {}),
    (["build", "--d", "3", "--N", "2", "--out", "{tmp}/b.json", "--json"], {}),
    (["build", "--d", "3", "--N", "3", "--out", "{tmp}/b.json"], {"POVMQUAD_BUILD_GUARD": "1000"}),
    (["build", "--d", "2"], {}),
    (["verify", "{path}"], {}),
    (["verify", "{path}", "--level", "optimality", "--json"], {}),
    (["verify", "{path}", "--tol", "nan"], {}),
    (["verify", "{tmp}/missing.json"], {}),
    (["fidelity", "{path}", "--samples", "2000", "--seed", "3"], {}),
    (["fidelity", "--sweep", "--d", "2", "3", "--N", "1", "2", "--samples", "500", "--seed", "3", "--csv"], {}),
    (["simulate", "{path}", "--shots", "1000", "--seed", "4", "--state-seed", "5", "--json"], {}),
    (["simulate", "{path}", "--shots", "1000", "--seed", "4", "--basis", "1"], {}),
    (["clone", "--d", "2", "--N", "1", "--M", "3", "--states", "40", "--seed", "6", "--csv"], {}),
    (["clone", "--d", "3", "--N", "1", "--M", "2", "--states", "2", "--seed", "6", "--json"], {}),
    (["moments", "--d", "3", "--max-len", "3"], {}),
    (["moments", "--d", "2", "--i", "1,2", "--j", "2,1", "--json"], {}),
    (["moments", "--d", "2", "--max-len", "6"], {}),
    (["--help"], {}),
    (["clone", "--help"], {}),
]


class TestProcessExit:
    """A process ends through process_main, skipping interpreter finalization."""

    @pytest.mark.parametrize(
        "argv,guards", PROCESS_CONTRACT, ids=[" ".join(argv[:2]) for argv, _ in PROCESS_CONTRACT]
    )
    def test_process_matches_main(self, povm_path, tmp_path, capsysbinary, monkeypatch, argv, guards):
        argv = [arg.format(path=povm_path, tmp=tmp_path) for arg in argv]
        # argparse wraps --help at the terminal width; pin it on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        for name, value in guards.items():
            monkeypatch.setenv(name, value)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
        expected = capsysbinary.readouterr().out
        proc = cli_process(argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == expected
        assert b"Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "stand_in",
        ["1 / 0", "sys.stdout.write('pending') and 0"],
        ids=["main-raises", "final-flush-raises"],
    )
    def test_failure_around_main_is_never_exit_0(self, stand_in):
        # process_main with main replaced: an exception from main, or from
        # the flush of output main left pending, ends the process the
        # interpreter's way, nonzero, never through os._exit(0).
        code = f"import sys\nimport povmquad.cli as cli\ncli.main = lambda: {stand_in}\ncli.process_main()\n"
        with open("/dev/full", "wb") as full:
            proc = python_process(["-c", code], stdout=full)
        assert proc.returncode not in (EXIT_OK, EXIT_INPUT)
        assert b"Traceback" in proc.stderr

    def test_process_file_equals_saved_family(self, tmp_path):
        from povmquad import build_povm, save_povm

        written, saved = tmp_path / "process.json", tmp_path / "saved.json"
        proc = cli_process(["build", "--d", "3", "--N", "3", "--out", str(written)])
        assert proc.returncode == EXIT_OK, proc.stderr
        save_povm(build_povm(3, 3), saved)
        assert written.read_bytes() == saved.read_bytes()
        assert load_povm(written).n_outcomes == load_povm(saved).n_outcomes
        assert main(["verify", str(written), "--level", "optimality"]) == EXIT_OK

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_console_script_is_the_main_block_entry(self):
        import ast
        import importlib
        import tomllib

        import povmquad.cli

        cli_file = Path(povmquad.cli.__file__)
        pyproject = cli_file.parent.parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["povmquad"]
        module, _, name = target.partition(":")
        script = getattr(importlib.import_module(module), name)
        blocks = [
            node.body for node in ast.parse(cli_file.read_text(encoding="utf-8")).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(blocks) == 1
        (statement,) = blocks[0]
        called = statement.value.func.id
        assert not statement.value.args
        assert getattr(povmquad.cli, called) is script is povmquad.cli.process_main


def _benchmark_commands(families):
    """The commands of the benchmark's three workloads (perfbench/run.py)."""
    builds, queries = [], []
    for d, n in ((2, 1), (2, 4), (2, 8), (3, 2), (3, 3), (3, 4), (4, 2)):
        path = str(families / f"d{d}_N{n}.json")
        builds.append(["build", "--d", str(d), "--N", str(n), "--out", path, "--json"])
        queries.append(["verify", path, "--json"])
        if (d, n) != (4, 2):
            queries.append(["fidelity", path, "--samples", "20000", "--seed", str(7 * d + n), "--json"])
        queries.append(["simulate", path, "--shots", "10000", "--seed", str(d), "--state-seed", str(n), "--json"])
    return builds + queries + BENCHMARK_CLONES


class TestWhatProcessExitSkips:
    def test_benchmark_commands_leave_no_atexit_handler_or_thread(self, tmp_path):
        # os._exit runs neither atexit handlers nor thread joins.  A command
        # that registers a handler or leaves a thread would lose it in a
        # process; this fails first, so the exit path is decided again.
        import atexit
        import threading

        for argv in _benchmark_commands(tmp_path):
            before = atexit._ncallbacks()
            # The minimal grids are not universal: the benchmark's verify exits 1.
            assert main(argv) == (EXIT_CERTIFICATION if argv[0] == "verify" else EXIT_OK), argv
            assert atexit._ncallbacks() == before, argv
            assert threading.active_count() == 1, argv


class TestImports:
    """What each command loads, each probed in a fresh interpreter.

    numpy loads only in the commands that compute with it: importing the
    CLI, --help, moments and a refused flag leave it unloaded.  No
    command loads numpy.random: it pulls in secrets, hashlib and
    OpenSSL's _hashlib, and every draw comes from random.Random instead.
    The binomial sampler is loaded by the one command that draws shot
    counts.  Exact rationals (fractions, which loads decimal) and the
    moments module are loaded only by moments, and csv only by --csv:
    fidelity prints its optimum p/q from integers.  No command loads
    dataclasses or copy: the package's records are plain classes.
    """

    WATCHED = (
        "numpy", "numpy.random", "secrets", "_hashlib", "povmquad.sampling",
        "fractions", "decimal", "csv", "povmquad.moments", "dataclasses", "copy",
    )
    LAYERS = tuple(
        f"povmquad.{name}" for name in ("quadrature", "povm", "symmetric", "estimation", "cloner")
    )

    def probe(self, argv, preload="", watch=WATCHED, code=EXIT_OK):
        """(stdout, the watched modules loaded) of one command in a fresh interpreter.

        With argv None the probe only imports povmquad.cli.  The command
        must end with exit code `code`, returned by main or, from
        argparse (--help, a usage error), raised as SystemExit.
        """
        src = Path(povmquad.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        script = (
            preload
            + "import sys\n"
            + "from povmquad.cli import main\n"
            + "try:\n"
            + ("    code = main(sys.argv[1:])\n" if argv is not None else "    code = 0\n")
            + "except SystemExit as exc:\n"
            + "    code = exc.code\n"
            + "sys.stdout.flush()\n"
            + f"sys.stderr.write(' '.join(m for m in {tuple(watch)!r} if m in sys.modules))\n"
            + "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *(argv or [])],
            capture_output=True, env=env, timeout=120, text=True,
        )
        assert proc.returncode == code, proc.stderr
        lines = proc.stderr.splitlines()
        return proc.stdout, set(lines[-1].split()) if lines else set()

    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        path = str(tmp_path / "qubit2.json")
        clone = ["clone", "--d", "3", "--N", "1", "--M", "3", "--states", "2", "--seed", "1"]
        commands = [
            (["build", "--d", "2", "--N", "2", "--out", path], {"numpy"}),
            (["verify", path, "--level", "optimality"], {"numpy"}),
            (["fidelity", path, "--samples", "100", "--seed", "1"], {"numpy"}),
            (
                ["simulate", path, "--shots", "100", "--seed", "1", "--state-seed", "2"],
                {"numpy", "povmquad.sampling"},
            ),
            (clone, {"numpy"}),
            ([*clone, "--csv"], {"numpy", "csv"}),
            (["moments", "--d", "2", "--max-len", "2"], {"fractions", "decimal", "povmquad.moments"}),
        ]
        for argv, expected in commands:
            assert self.probe(argv)[1] == expected, argv

    def test_numpy_loads_only_where_a_command_computes(self, tmp_path):
        out = str(tmp_path / "refused.json")
        commands = [
            (None, EXIT_OK),
            (["--help"], EXIT_OK),
            (["moments", "--d", "2", "--i", "1,2", "--j", "2,1"], EXIT_OK),
            # argparse's refusal of a missing flag, then cli._count's of --d.
            (["build", "--d", "2", "--out", out], EXIT_INPUT),
            (["build", "--d", "1", "--N", "2", "--out", out], EXIT_INPUT),
        ]
        for argv, code in commands:
            assert "numpy" not in self.probe(argv, code=code)[1], argv
        assert not (tmp_path / "refused.json").exists()

    def test_probe_sees_a_loaded_module(self):
        # Guards the probe: a command that loads none of the watched
        # modules reports numpy.random, fractions and csv loaded before it,
        # and the modules they pull in.
        argv = ["clone", "--d", "2", "--N", "1", "--M", "2", "--states", "1", "--seed", "1"]
        loaded = self.probe(argv, preload="import csv, fractions, numpy.random\n")[1]
        assert loaded == {"numpy", "numpy.random", "secrets", "_hashlib", "fractions", "decimal", "csv"}

    def test_cli_import_loads_the_layers_and_nothing_deferred(self):
        # perfbench/launcher.py rebinds the layer functions only in the
        # povmquad modules that `import povmquad.cli` has loaded, so the
        # five layer modules must be loaded by then or a traced run loses
        # their spans; the deferred ones and the sampler must not be.
        assert self.probe(None, watch=self.LAYERS + self.WATCHED)[1] == set(self.LAYERS)

    def test_seeded_json_repeats_across_processes(self, tmp_path):
        path = str(tmp_path / "qutrit2.json")
        assert main(["build", "--d", "3", "--N", "2", "--out", path]) == EXIT_OK
        commands = [
            ["fidelity", path, "--samples", "5000", "--seed", "3", "--json"],
            ["simulate", path, "--shots", "100000", "--seed", "4", "--state-seed", "5", "--json"],
            ["clone", "--d", "3", "--N", "1", "--M", "3", "--states", "3", "--seed", "6", "--json"],
        ]
        for argv in commands:
            assert self.probe(argv)[0] == self.probe(argv)[0], argv[0]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[tuple[list[str], int]]:
    """Each `povmquad ...` line of the README's Command line sh block, with its exit code.

    A line is split as the shell would split it, its comment dropped; the
    code is EXIT_CERTIFICATION where the comment says "exits 1 here",
    else EXIT_OK.
    """
    import shlex

    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("povmquad "):
            command, _, comment = line.partition("#")
            code = EXIT_CERTIFICATION if "exits 1 here" in comment else EXIT_OK
            commands.append((shlex.split(command)[1:], code))
    return commands


class TestReadmeCommands:
    def test_block_is_found(self):
        commands = _readme_commands()
        assert {argv[0] for argv, _ in commands} == {
            "build", "verify", "fidelity", "simulate", "clone", "moments"
        }
        assert [code for _, code in commands].count(EXIT_CERTIFICATION) == 1

    def test_commands_run_as_documented(self, tmp_path, monkeypatch, capsys):
        # In order, in one directory: the first line writes the file the
        # later ones read.
        monkeypatch.chdir(tmp_path)
        for argv, expected in _readme_commands():
            code, out, err = run(capsys, argv)
            assert code == expected, (argv, err)
            assert out, argv


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _workflow_step_script(name: str) -> str:
    """The `run: |` block of the workflow step `name`, dedented, cut from the YAML text.

    The block is every line after `run: |` indented deeper than that key,
    up to the first non-blank line that is not.
    """
    import textwrap

    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    key = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[key]) - len(lines[key].lstrip())
    block = []
    for line in lines[key + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)).strip() + "\n"


class TestWorkflowConsoleScript:
    """The workflow's "Console script" step, run as the runner's bash runs it.

    A `povmquad` shim on PATH stands for the installed entry point: it runs
    `python -m povmquad.cli` on the tree under test.  A `python` shim runs
    the interpreter of these tests.
    """

    def test_step_is_found(self):
        script = _workflow_step_script("Console script")
        commands = [line.split()[1] for line in script.splitlines() if line.startswith("povmquad ")]
        assert commands == [
            "--help", "build", "verify", "moments", "fidelity", "simulate", "clone",
            "build", "verify", "verify", "build", "build",
        ]
        assert 'test "$(ls -A "$RUNNER_TEMP")" = "$before"\n' in script
        assert "test \"$code\" -eq 3\n" in script
        assert "test \"$code\" -eq 2\n" in script
        assert "sys.exit('numpy' in sys.modules)" in script

    def test_step_runs(self, tmp_path):
        import shlex

        shims = tmp_path / "bin"
        shims.mkdir()
        for name, command in [("povmquad", "-m povmquad.cli "), ("python", "")]:
            shim = shims / name
            shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} {command}"$@"\n')
            shim.chmod(0o755)
        src = Path(povmquad.__file__).resolve().parent.parent
        # The step reads the default guards.
        env = {k: v for k, v in os.environ.items() if not k.startswith("POVMQUAD_")}
        env["PATH"] = os.pathsep.join([str(shims), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        env["RUNNER_TEMP"] = str(tmp_path)
        script = _workflow_step_script("Console script")
        proc = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bin", "qubit1.json", "qudit8.json"]


class TestParser:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit):
            main(["build", "--d", "2"])
