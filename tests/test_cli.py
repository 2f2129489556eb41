"""Command-line interface: exit codes, formats, and determinism."""

import csv
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from povmquad import check_completeness, check_optimality, check_universality, load_povm
from povmquad.cli import EXIT_CERTIFICATION, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main


@pytest.fixture()
def povm_path(tmp_path):
    path = tmp_path / "qubit1.json"
    assert main(["build", "--d", "2", "--N", "1", "--out", str(path)]) == EXIT_OK
    return path


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
        assert "4 elements" in out
        assert "completeness residual" in out

    def test_build_json_payload(self, tmp_path, capsys):
        path = tmp_path / "povm.json"
        code, out, _ = run(
            capsys, ["build", "--d", "2", "--N", "2", "--out", str(path), "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["operation"] == "build"
        assert doc["elements"] == 9
        assert doc["residuals"]["optimality"] < 1e-10
        assert abs(doc["weight_sum"] - 1.0) < 1e-12

    def test_build_resource_guard_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["build", "--d", "3", "--N", "10", "--out", str(tmp_path / "x.json")]
        )
        assert code == EXIT_RESOURCE
        assert "resource guard" in err

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
        # Level-1 cost 4 * 2^2 = 16 fits the guard; level-2 cost
        # 4 * 3^2 = 36 at the universality check does not.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "20")
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

        # completeness is derived from the level-N optimality residual.
        monkeypatch.setattr(povmquad.cli, "check_optimality", lambda povm: math.nan)
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

    def test_level_n_operator_formed_once(self, povm_path, capsys, monkeypatch):
        import povmquad.povm

        levels = []
        original = povmquad.povm.frame_residual

        def counting(amplitudes, weights, level):
            levels.append(level)
            return original(amplitudes, weights, level)

        monkeypatch.setattr(povmquad.povm, "frame_residual", counting)
        run(capsys, ["verify", str(povm_path), "--json"])
        # The load-time completeness gate, then one operator per level.
        assert levels == [1, 1, 2]


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
        # Loading certifies G_1 (4 * 2^2 = 16); the fidelity needs G_2 (4 * 3^2 = 36).
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "20")
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
        assert len(doc["counts"]) == 4
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
        # The length-2 table is the 9 x 9 moment matrix: d^l = 9 > 8.
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "8")
        code, out, err = run(capsys, ["moments", "--d", "3", "--max-len", "2"])
        assert code == EXIT_RESOURCE
        assert "POVMQUAD_FULL_SPACE_GUARD" in err
        assert out == ""

    def test_huge_max_len_refused_at_first_oversized_length(self, capsys):
        code, out, err = run(capsys, ["moments", "--d", "2", "--max-len", str(10**9)])
        assert code == EXIT_RESOURCE
        assert "d^13 for d=2 = 8192" in err
        assert out == ""

    @pytest.mark.parametrize("d,max_len", [("0", "3"), ("1", "3"), ("2", "0"), ("2", "-1")])
    def test_rejects_bad_table_arguments(self, capsys, d, max_len):
        code, out, err = run(capsys, ["moments", "--d", d, "--max-len", max_len])
        assert code == EXIT_INPUT
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


class TestParser:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit):
            main(["build", "--d", "2"])
