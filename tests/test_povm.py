"""POVM construction, certification, restriction, and the JSON format."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from povmquad import (
    ConstructionError,
    InputFormatError,
    Povm,
    PureState,
    ResourceLimitError,
    build_povm,
    check_completeness,
    check_optimality,
    check_universality,
    frame_residual,
    load_povm,
    mean_fidelity_exact,
    restrict_povm,
    save_povm,
    sphere_grid,
    sym_dim,
    sym_embed,
    sym_embed_batch,
)

from _oracles import ACCEPTANCE_PAIRS, polar_grid, povm_json_reference

# Text that stresses the JSON encoder and any splice keyed on content.
TRICKY_TEXT = ["elements", '"elements": []', "\x00", 'say "hi" \\ ok', "é ünïcødé ☃", "\n}\n  ],", ""]
json_text = st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=12))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | json_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_text, inner, max_size=3),
    max_leaves=8,
)
provenances = st.dictionaries(st.one_of(json_text, st.integers()), json_values, max_size=5)
# Signed zeros, subnormals and values whose %.17g form needs an exponent.
components = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
weight_values = st.one_of(st.floats(1e-300, 1.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e))


@st.composite
def arbitrary_povms(draw):
    """Valid Povm instances: positive weights, unit rows, any provenance."""
    d = draw(st.integers(2, 5))
    n_out = draw(st.integers(1, 40))
    raw = np.array(draw(st.lists(components, min_size=2 * d * n_out, max_size=2 * d * n_out)))
    raw = raw.reshape(n_out, 2 * d)
    norms = np.linalg.norm(raw, axis=1)
    raw[norms < 1e-3, 0] = 1.0
    # Dividing the real view keeps the sign of every zero.
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    weights = np.array(draw(st.lists(weight_values, min_size=n_out, max_size=n_out)))
    return Povm(
        d=d,
        N=draw(st.integers(1, 4)),
        weights=weights,
        guesses=raw.view(np.complex128),
        provenance=draw(provenances),
    )


# Files the JSON parser itself refuses: not JSON, nested past the
# recursion limit, and an integer past the int-to-str digit limit.
GARBAGE_FILES = {
    "not-json": "not json at all {{{",
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "long-integer": '{"format_version": "1", "d": ' + "9" * 5000 + ', "N": 1, "elements": []}',
}

# (d, N built, N restricted to): built and restrict_povm families pass the
# load-time completeness gate, so they can make the full round trip.
ROUND_TRIP_FAMILIES = [(2, 1, 1), (2, 3, 3), (2, 3, 1), (3, 2, 2), (3, 2, 1), (4, 1, 1)]


class TestBuild:
    def test_minimal_qubit_povm(self, povm_for):
        povm = povm_for(2, 1)
        assert povm.n_outcomes == 2
        assert check_optimality(povm) < 1e-12
        assert check_completeness(povm) < 1e-12
        assert abs(math.fsum(povm.weights) - 1.0) < 1e-14

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_all_pairs_certify(self, povm_for, d, n):
        povm = povm_for(d, n)
        assert check_optimality(povm) < 1e-10
        assert np.all(povm.weights > 0.0)

    @pytest.mark.parametrize("d", [51, 70, 200])
    def test_one_copy_past_the_weight_overflow(self, d):
        # The rule masses 2^(a+1)/(a+1) multiply to inf from d = 51.  At
        # N = 1 each moduli rule has one node, so the grid is the phase
        # lattice on |c_i|^2 = 1/d with equal weights.
        povm = build_povm(d, 1)
        assert np.all(np.isfinite(povm.weights)) and np.all(povm.weights > 0.0)
        assert check_optimality(povm) < 1e-10
        assert np.allclose(povm.weights, 1.0 / povm.n_outcomes, rtol=1e-14, atol=0.0)
        assert np.allclose(np.abs(povm.guesses) ** 2, 1.0 / d, rtol=1e-13, atol=0.0)

    def test_completeness_is_dim_times_optimality(self, povm_for):
        # Both residuals measure the same Gram deviation, one against
        # I/d_N and one against I.
        povm = povm_for(2, 2)
        opt = check_optimality(povm)
        comp = check_completeness(povm)
        assert comp <= sym_dim(2, 2) * opt + 1e-15

    def test_provenance_records_construction(self, povm_for):
        povm = povm_for(3, 2)
        prov = povm.provenance
        assert prov["construction"] == "moduli-lattice"
        assert prov["moduli_nodes"] == 2
        assert prov["lattice"] == {"M": 7, "z": [1, 3]}
        assert "theta_counts" not in prov and "phi_count" not in prov
        assert float(prov["certified_residual"]) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 2), (4, 2)])
    def test_build_returns_the_grid_it_certified(self, d, n):
        grid = sphere_grid(d, n)
        assert isinstance(grid, Povm) and (grid.d, grid.N) == (d, n)
        assert set(grid.provenance) == {"construction", "moduli_nodes", "lattice"}
        povm = build_povm(d, n)
        assert np.array_equal(povm.guesses, grid.guesses)
        assert np.array_equal(povm.weights, grid.weights)
        residual = check_optimality(grid)
        assert povm.provenance == {
            **grid.provenance,
            "certified_residual": f"{residual:.17g}",
            "certification_tol": "1e-10",
        }

    def test_elements_are_rank_one_with_trace_dim_times_weight(self, povm_for):
        povm = povm_for(2, 2)
        dim = sym_dim(2, 2)
        for a in (0, 3, 5):
            vec = sym_embed(PureState(povm.guesses[a]), 2)
            element = dim * povm.weights[a] * np.outer(vec, vec.conj())
            eigs = np.linalg.eigvalsh(element)
            assert eigs[0] > -1e-14
            assert abs(np.trace(element).real - dim * povm.weights[a]) < 1e-12

    def test_build_guard_refuses_large_runs(self):
        # (3, 12): n = 7 moduli nodes per coordinate and d_N = 91, so
        # A * d_N^2 = 49 * M * 8281 passes 5e7 at M = 124, before the
        # lattice search finds an exact M.
        with pytest.raises(ResourceLimitError):
            build_povm(3, 12)

    def test_build_guard_env_override(self, monkeypatch):
        # (2, 1): A * d_N^2 = 2 * 2^2 = 8.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        with pytest.raises(ResourceLimitError):
            build_povm(2, 1)

    def test_impossible_tolerance_raises_with_residual(self):
        with pytest.raises(ConstructionError) as info:
            build_povm(2, 1, tol=0.0)
        assert info.value.residual is not None
        assert info.value.residual > 0.0

    def test_nan_tolerance_fails_closed(self):
        with pytest.raises(ConstructionError):
            build_povm(2, 1, tol=math.nan)


class TestResiduals:
    def test_single_element_completeness_residual_is_one(self):
        povm = Povm(d=2, N=1, weights=np.array([1.0]), guesses=np.array([[1.0, 0.0]]))
        assert abs(check_completeness(povm) - 1.0) < 1e-15

    def test_deleted_element_breaks_completeness(self, povm_for):
        povm = povm_for(2, 1)
        broken = Povm(
            d=2, N=1, weights=povm.weights[1:], guesses=povm.guesses[1:],
        )
        assert check_completeness(broken) > 1e-3

    def test_minimal_grid_is_not_universal(self, povm_for):
        # The minimal qubit grid is an orthonormal basis, whose G_2 has
        # off-diagonal entries 1/4: optimal for estimation yet not universal.
        povm = povm_for(2, 1)
        residual = check_universality(povm)
        assert abs(residual - 1.0 / 4.0) < 1e-9

    def test_restricted_povm_is_universal(self, povm_for):
        restricted = restrict_povm(povm_for(2, 2), 1)
        assert check_universality(restricted) < 1e-10

    def test_guard_applies_to_checks(self, monkeypatch, povm_for):
        # A fresh instance, so check_optimality has no kept residual and
        # forms G_1 (cost 2 * 2^2 = 8).
        built = povm_for(2, 1)
        povm = Povm(d=2, N=1, weights=built.weights, guesses=built.guesses)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        with pytest.raises(ResourceLimitError):
            check_optimality(povm)
        with pytest.raises(ResourceLimitError):
            check_universality(built)

    def test_level_n_data_kept_once_and_refusal_keeps_nothing(self, monkeypatch, povm_for):
        built = povm_for(2, 3)
        povm = Povm(d=2, N=3, weights=built.weights, guesses=built.guesses)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        with pytest.raises(ResourceLimitError):
            check_optimality(povm)
        assert "_level_n_residual" not in vars(povm)
        monkeypatch.delenv("POVMQUAD_BUILD_GUARD")
        residual = check_optimality(povm)
        assert residual == frame_residual(povm.guesses, povm.weights, 3)
        assert vars(povm)["_level_n_residual"] is residual
        emb = povm._level_n_embedding
        assert povm._level_n_embedding is emb and not emb.flags.writeable
        assert np.array_equal(emb, sym_embed_batch(povm.guesses, 3))


# (d, M) families that restrict_povm cuts down to every N <= M.
RESTRICT_FAMILIES = [(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (4, 2)]


class TestOldLayoutFiles:
    """Files of the polar grid that build wrote before the moduli x lattice grid."""

    @pytest.mark.parametrize("d,n", [*ACCEPTANCE_PAIRS, (4, 2)])
    def test_old_files_load_verify_and_reach_the_optimum(self, tmp_path, capsys, d, n):
        from povmquad.cli import EXIT_OK, main

        states, weights = polar_grid(d, n)
        old = Povm(d=d, N=n, weights=weights, guesses=states)
        provenance = {
            "construction": "sphere-grid",
            "theta_counts": [n + 1] * (2 * d - 2),
            "certified_residual": f"{check_optimality(old):.17g}",
            "certification_tol": f"{1e-10:.17g}",
        }
        path = tmp_path / "old.json"
        save_povm(Povm(d=d, N=n, weights=weights, guesses=states, provenance=provenance), path)
        assert main(["verify", str(path), "--level", "completeness"]) == EXIT_OK
        assert "[PASS]" in capsys.readouterr().out
        loaded = load_povm(path)
        assert loaded.n_outcomes == (n + 1) ** (2 * d - 2)
        assert loaded.provenance["theta_counts"] == provenance["theta_counts"]
        target = (n + 1) / (n + d)
        assert abs(mean_fidelity_exact(loaded).value - target) < 1e-12


class TestRestrict:
    def test_same_level_restriction_is_identity(self, povm_for):
        povm = povm_for(2, 2)
        same = restrict_povm(povm, 2)
        assert same.N == povm.N
        assert np.array_equal(same.weights, povm.weights)
        assert np.array_equal(same.guesses, povm.guesses)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_restriction_stays_optimal(self, povm_for, data):
        # A rule exact at degree 2M is exact at degree 2(N+1) <= 2M, so
        # every N < M is universal as well as optimal.
        d, m = data.draw(st.sampled_from(RESTRICT_FAMILIES), label="(d, M)")
        n = data.draw(st.integers(1, m), label="N")
        restricted = restrict_povm(povm_for(d, m), n)
        assert restricted.N == n
        assert check_optimality(restricted) < 1e-10
        if n < m:
            assert check_universality(restricted) < 1e-10
        assert restricted.provenance["restricted_from"] == m

    def test_rejects_raising_or_zero(self, povm_for):
        povm = povm_for(2, 2)
        with pytest.raises(InputFormatError):
            restrict_povm(povm, 3)
        with pytest.raises(InputFormatError):
            restrict_povm(povm, 0)


class TestValidation:
    def test_rejects_non_positive_weights(self):
        with pytest.raises(InputFormatError):
            Povm(d=2, N=1, weights=np.array([0.0]), guesses=np.array([[1.0, 0.0]]))

    def test_rejects_non_unit_guesses(self):
        with pytest.raises(InputFormatError):
            Povm(d=2, N=1, weights=np.array([1.0]), guesses=np.array([[2.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(InputFormatError):
            Povm(
                d=2, N=1, weights=np.zeros(0),
                guesses=np.zeros((0, 2), dtype=np.complex128),
            )

    def test_rejects_d_below_two(self):
        with pytest.raises(InputFormatError):
            Povm(d=1, N=1, weights=np.array([1.0]), guesses=np.array([[1.0]]))

    @pytest.mark.parametrize("bad", [True, 3.0, "3"], ids=["bool", "float", "str"])
    def test_rejects_d_or_n_that_is_not_an_integer(self, povm_for, bad):
        # Each once reached a file that load_povm refuses, or a bare TypeError.
        povm = povm_for(2, 3)
        calls = [
            ("N", lambda: build_povm(2, bad)),
            ("d", lambda: build_povm(bad, 1)),
            ("N", lambda: Povm(d=2, N=bad, weights=povm.weights, guesses=povm.guesses)),
            ("N", lambda: restrict_povm(povm, bad)),
        ]
        for name, call in calls:
            with pytest.raises(InputFormatError) as info:
                call()
            assert str(info.value) == f"{name} must be an integer, got {bad!r}"

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputFormatError):
            Povm(d=3, N=1, weights=np.array([1.0]), guesses=np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(InputFormatError):
            Povm(d=2, N=1, weights=np.array([0.5, bad]), guesses=np.eye(2))

    @pytest.mark.parametrize("part", [1.7e154, 1e300, complex(0.0, -1.7e308)])
    def test_rejects_huge_finite_guess(self, part):
        # The squared norm overflows to inf: refused, with no overflow warning.
        guesses = np.eye(2, dtype=np.complex128)
        guesses[1, 0] = part
        with pytest.raises(InputFormatError, match="guess norm"):
            Povm(d=2, N=1, weights=np.array([0.5, 0.5]), guesses=guesses)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_guess(self, bad):
        guesses = np.eye(2, dtype=np.complex128)
        guesses[1, 0] = bad
        with pytest.raises(InputFormatError):
            Povm(d=2, N=1, weights=np.array([0.5, 0.5]), guesses=guesses)


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, povm_for, tmp_path):
        povm = povm_for(2, 2)
        path = tmp_path / "povm.json"
        save_povm(povm, path)
        loaded = load_povm(path)
        assert loaded.d == povm.d and loaded.N == povm.N
        assert np.array_equal(loaded.weights, povm.weights)
        assert np.array_equal(loaded.guesses, povm.guesses)
        assert loaded.provenance == {
            str(k): v for k, v in povm.provenance.items()
        }

    def test_numpy_integer_family_round_trips_as_plain_ints(self, tmp_path):
        plain, numpy_ints = tmp_path / "plain.json", tmp_path / "int64.json"
        save_povm(build_povm(2, 3), plain)
        povm = build_povm(np.int64(2), np.int64(3))
        assert type(povm.d) is int and type(povm.N) is int
        save_povm(povm, numpy_ints)
        assert numpy_ints.read_bytes() == plain.read_bytes()
        save_povm(load_povm(numpy_ints), numpy_ints)
        assert numpy_ints.read_bytes() == plain.read_bytes()
        restricted = restrict_povm(povm, np.int64(1))
        assert type(restricted.N) is int and restricted.N == 1

    def test_save_load_save_is_byte_identical(self, povm_for, tmp_path):
        povm = povm_for(3, 1)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_povm(povm, first)
        save_povm(load_povm(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_format_header(self, povm_for, tmp_path):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == "1"
        assert doc["d"] == 2 and doc["N"] == 1
        assert len(doc["elements"]) == 2
        assert isinstance(doc["elements"][0]["w"], str)
        assert path.read_text().endswith("\n")

    def test_rejects_unknown_version(self, povm_for, tmp_path):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = "999"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            load_povm(path)

    @pytest.mark.parametrize(
        "key,value", [("N", 1.9), ("N", True), ("N", "1"), ("N", 1.0), ("d", 2.5), ("d", None)]
    )
    def test_rejects_non_integer_dimensions(self, povm_for, tmp_path, key, value):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="JSON integers"):
            load_povm(path)

    def test_rejects_negative_weight(self, povm_for, tmp_path):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        doc["elements"][0]["w"] = "-0.01"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            load_povm(path)

    def test_rejects_tampered_amplitude(self, povm_for, tmp_path):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        doc["elements"][0]["c"][0][0] = "2.0"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            load_povm(path)

    @pytest.mark.parametrize("field", ["c", "w"])
    def test_rejects_nan_value(self, povm_for, tmp_path, field):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        if field == "c":
            doc["elements"][0]["c"][0][0] = "nan"
        else:
            doc["elements"][0]["w"] = "nan"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            load_povm(path)

    def test_rejects_incomplete_family(self, tmp_path):
        # A single-element family passes local checks but fails the
        # completeness residual gate on load.
        lone = Povm(d=2, N=1, weights=np.array([1.0]), guesses=np.array([[1.0, 0.0]]))
        path = tmp_path / "lone.json"
        save_povm(lone, path)
        with pytest.raises(InputFormatError):
            load_povm(path)

    def test_rejects_weight_sum_away_from_one(self, povm_for, tmp_path):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        for element in doc["elements"]:
            element["w"] = repr(float(element["w"]) * 1.5)
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            load_povm(path)

    def test_missing_provenance_marked_unknown(self, povm_for, tmp_path):
        path = tmp_path / "povm.json"
        save_povm(povm_for(2, 1), path)
        doc = json.loads(path.read_text())
        del doc["provenance"]
        path.write_text(json.dumps(doc))
        loaded = load_povm(path)
        assert loaded.provenance == {"source": "unknown"}

    @pytest.mark.parametrize("text", GARBAGE_FILES.values(), ids=GARBAGE_FILES.keys())
    def test_rejects_garbage_file(self, tmp_path, text):
        path = tmp_path / "junk.json"
        path.write_text(text)
        with pytest.raises(InputFormatError, match="cannot read POVM file"):
            load_povm(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_povm(tmp_path / "nope.json")


class TestFileFormat:
    """save_povm against the generic json.dumps writer, and the round trip."""

    @staticmethod
    def _family(povm_for, family, seed, provenance):
        d, n_built, n = family
        povm = restrict_povm(povm_for(d, n_built), n)
        guesses = povm.guesses
        if seed is not None:
            # A unitary image of a certified family is certified too.
            rng = np.random.default_rng(seed)
            unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            guesses = guesses @ unitary.T
        return Povm(
            d=d,
            N=n,
            weights=povm.weights,
            guesses=guesses,
            provenance={**povm.provenance, **provenance},
        )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(povm=arbitrary_povms())
    def test_bytes_equal_reference_writer(self, tmp_path, povm):
        path = tmp_path / "povm.json"
        save_povm(povm, path)
        assert path.read_bytes() == povm_json_reference(povm).encode("utf-8")

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        family=st.sampled_from(ROUND_TRIP_FAMILIES),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        provenance=provenances,
    )
    def test_round_trip_is_exact_and_byte_identical(
        self, povm_for, tmp_path, family, seed, provenance
    ):
        povm = self._family(povm_for, family, seed, provenance)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_povm(povm, first)
        assert first.read_bytes() == povm_json_reference(povm).encode("utf-8")
        loaded = load_povm(first)
        assert (loaded.d, loaded.N) == (povm.d, povm.N)
        assert np.array_equal(loaded.weights, povm.weights)
        assert np.array_equal(loaded.guesses.view(np.float64), povm.guesses.view(np.float64))
        assert np.array_equal(np.signbit(loaded.guesses.view(np.float64)),
                              np.signbit(povm.guesses.view(np.float64)))
        assert loaded.provenance == {str(k): v for k, v in povm.provenance.items()}
        save_povm(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_signed_zero_exponent_form_and_elements_in_provenance(self, tmp_path):
        povm = Povm(
            d=2,
            N=1,
            weights=np.array([1e-300, 0.5]),
            guesses=np.array([[1.0, -0.0], [-0.0 - 0.0j, complex(0.0, -1.0)]]),
            provenance={"note": '"elements": []', "nested": {"elements": []}, 7: ["\x00", {"é": None}]},
        )
        path = tmp_path / "povm.json"
        save_povm(povm, path)
        text = path.read_text(encoding="utf-8")
        assert text == povm_json_reference(povm)
        assert '"-0"' in text and '"1e-300"' in text

    def test_non_contiguous_guesses(self, povm_for, tmp_path):
        povm = povm_for(3, 1)
        strided = np.asfortranarray(povm.guesses)
        copy = Povm(d=3, N=1, weights=povm.weights, guesses=strided, provenance=povm.provenance)
        path = tmp_path / "povm.json"
        save_povm(copy, path)
        assert path.read_text(encoding="utf-8") == povm_json_reference(povm)

    def test_unwritable_path_raises_input_error(self, povm_for, tmp_path):
        with pytest.raises(InputFormatError, match="cannot write POVM file"):
            save_povm(povm_for(2, 1), tmp_path / "missing_dir" / "povm.json")
