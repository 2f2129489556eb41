"""Command-line interface: exit codes, formats, and determinism."""

import csv
import io
import json
import math
import os
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
from povmquad.cli import EXIT_CERTIFICATION, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main


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
        assert err.startswith("resource guard: construction cost lower bound")
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
        path = tmp_path / "povm.json"
        _, out, _ = run(capsys, ["build", "--d", "2", "--N", "3", "--out", str(path), "--json"])
        povm = load_povm(path)
        assert json.loads(out)["residuals"] == {
            "completeness": check_completeness(povm),
            "optimality": check_optimality(povm),
            "universality": check_universality(povm),
        }

    def test_refused_build_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # Level-1 cost 2 * 2^2 = 8 fits the guard; level-2 cost
        # 2 * 3^2 = 18 at the universality check does not.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "10")
        path = tmp_path / "x.json"
        code, _, err = run(capsys, ["build", "--d", "2", "--N", "1", "--out", str(path)])
        assert code == EXIT_RESOURCE
        assert "level k=2" in err
        assert not path.exists()

    def test_dedupe_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["build", "--d", "2", "--N", "1", "--out", str(tmp_path / "x.json"), "--dedupe"])
        assert info.value.code == EXIT_INPUT
        assert "--dedupe" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

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
        # level-1 check reuses it.  Then G_2 for universality.
        assert levels == [1, 2]


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
        assert err.startswith(f"input error: {variable} must be")
        assert err.count("\n") == 1
        assert out == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_level_n_plus_one_frame_under_build_guard(self, povm_path, capsys, monkeypatch):
        # Loading certifies G_1 (2 * 2^2 = 8); the fidelity needs G_2 (2 * 3^2 = 18).
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "10")
        code, _, err = run(capsys, ["fidelity", str(povm_path), "--samples", "500", "--seed", "1"])
        assert code == EXIT_RESOURCE
        assert "POVMQUAD_BUILD_GUARD" in err

    def test_deterministic_output(self, povm_path, capsys):
        argv = ["fidelity", str(povm_path), "--samples", "1000", "--seed", "6", "--json"]
        code_a, out_a, _ = run(capsys, argv)
        code_b, out_b, _ = run(capsys, argv)
        assert (code_a, out_a) == (code_b, out_b)


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
        assert err == f"input error: --d must be >= 2, got {d}\n"
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


# The clone commands of the benchmark's clone workload (perfbench/run.py).
BENCHMARK_CLONES = [
    ["clone", "--d", "2", "--N", "1", "--M", "9", "--states", "1", "--seed", "1905", "--json"],
    ["clone", "--d", "3", "--N", "1", "--M", "4", "--states", "5", "--seed", "1906", "--json"],
]
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
# fidelity --samples has no guard and a run's time grows with it (the
# size-flag audit is open), so its draws stop at 1000.
SAMPLE_COUNTS = st.one_of(
    st.integers(-3, 4),
    st.sampled_from([99, 100, 101, 1000, -(2**63), -(10**30)]),
    st.integers(-(2**70), 1000),
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

    def test_rejects_out_of_range_index(self, capsys):
        code, _, err = run(capsys, ["moments", "--d", "2", "--i", "0", "--j", "1"])
        assert code == EXIT_INPUT

    def test_rejects_unparseable_index(self, capsys):
        code, _, err = run(capsys, ["moments", "--d", "2", "--i", "a", "--j", "1"])
        assert code == EXIT_INPUT

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
        assert "over l <= 6 for d=2 = 5460" in err
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
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{path}", "--json"],
            ["build", "--d", "2", "--N", "2", "--out", "{out}", "--json"],
            ["verify", "{path}"],
            ["clone", "--d", "2", "--N", "1", "--M", "2", "--states", "300", "--seed", "1", "--csv"],
            ["moments", "--d", "3", "--max-len", "3"],
        ],
        ids=["verify-short", "build-short", "verify-failed-short", "clone-long", "moments-long"],
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

    No command loads numpy.random: it pulls in secrets, hashlib and
    OpenSSL's _hashlib, and every draw comes from random.Random instead.
    The binomial sampler is loaded by the one command that draws shot
    counts.  Exact rationals (fractions, which loads decimal), csv and
    the moments module are loaded only by the commands that use them.
    """

    WATCHED = (
        "numpy.random", "secrets", "_hashlib", "povmquad.sampling",
        "fractions", "decimal", "csv", "povmquad.moments",
    )
    LAYERS = tuple(
        f"povmquad.{name}" for name in ("quadrature", "povm", "symmetric", "estimation", "cloner")
    )

    def probe(self, argv, preload="", watch=WATCHED):
        """(stdout, the watched modules loaded) of one command in a fresh interpreter.

        With argv None the probe only imports povmquad.cli.
        """
        src = Path(povmquad.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        code = (
            preload
            + "import sys\n"
            + "from povmquad.cli import main\n"
            + ("code = main(sys.argv[1:])\n" if argv is not None else "code = 0\n")
            + "sys.stdout.flush()\n"
            + f"sys.stderr.write(' '.join(m for m in {tuple(watch)!r} if m in sys.modules))\n"
            + "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *(argv or [])],
            capture_output=True, env=env, timeout=120, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stderr.splitlines()
        return proc.stdout, set(lines[-1].split()) if lines else set()

    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        path = str(tmp_path / "qubit2.json")
        clone = ["clone", "--d", "3", "--N", "1", "--M", "3", "--states", "2", "--seed", "1"]
        commands = [
            (["build", "--d", "2", "--N", "2", "--out", path], set()),
            (["verify", path, "--level", "optimality"], set()),
            (["fidelity", path, "--samples", "100", "--seed", "1"], {"fractions", "decimal"}),
            (
                ["simulate", path, "--shots", "100", "--seed", "1", "--state-seed", "2"],
                {"povmquad.sampling"},
            ),
            (clone, set()),
            ([*clone, "--csv"], {"csv"}),
            (["moments", "--d", "2", "--max-len", "2"], {"fractions", "decimal", "povmquad.moments"}),
        ]
        for argv, expected in commands:
            assert self.probe(argv)[1] == expected, argv

    def test_probe_sees_a_loaded_module(self):
        # Guards the probe: a command that loads none of the watched
        # modules reports numpy.random, fractions and csv loaded before it,
        # and the modules they pull in.
        argv = ["clone", "--d", "2", "--N", "1", "--M", "2", "--states", "1", "--seed", "1"]
        loaded = self.probe(argv, preload="import csv, fractions, numpy.random\n")[1]
        assert loaded == {"numpy.random", "secrets", "_hashlib", "fractions", "decimal", "csv"}

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


class TestParser:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit):
            main(["build", "--d", "2"])
