"""Optimal cloning in occupation coordinates against the dense full-space oracle."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from povmquad import (
    ClonerOutput,
    ConstructionError,
    InputFormatError,
    Povm,
    PureState,
    ResourceLimitError,
    clone,
    haar_random_state,
    optimal_fidelity,
    single_particle_fidelity,
    single_particle_reduced,
    sym_dim,
    two_step_components,
    two_step_estimate,
)
from povmquad.cloner import VALIDATION_TOL, _positive_definite

from _oracles import (
    clone_dense,
    compress_to_occupation,
    haar_random_unitary,
    lift_to_full_space,
    projector_bruteforce,
    reduced_dense,
    tensor_power,
    two_step_dense,
)


def werner_fidelity(d: int, n: int, m: int) -> float:
    """eta + (1 - eta)/d with shrinking factor eta = n(m+d)/(m(n+d))."""
    eta = n * (m + d) / (m * (n + d))
    return eta + (1.0 - eta) / d


@st.composite
def clone_cases(draw):
    """(d, N, M, seed) with a dense output of at most 729 x 729."""
    d = draw(st.integers(2, 6))
    top = max(m for m in range(1, 10) if d**m <= 729)
    m = draw(st.integers(1, top))
    n = draw(st.integers(1, m))
    return d, n, m, draw(st.integers(0, 2**32 - 1))


class TestCloneMap:
    def test_trivial_clone_returns_input_power(self):
        state = haar_random_state(2, 3)
        out = clone(state, 2, 2)
        psi = tensor_power(state.amplitudes, 2)
        lifted = lift_to_full_space(out.density, 2, 2)
        assert np.max(np.abs(lifted - np.outer(psi, psi.conj()))) < 1e-12

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2)])
    def test_output_is_valid_state(self, d, n, m):
        out = clone(haar_random_state(d, 40 + m), n, m)
        density = out.density
        assert np.max(np.abs(density - density.conj().T)) < 1e-12
        assert abs(np.trace(density).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(density)[0] > -1e-12

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2)])
    def test_output_supported_on_symmetric_subspace(self, d, n, m):
        state = haar_random_state(d, 50 + m)
        lifted = lift_to_full_space(clone(state, n, m).density, d, m)
        proj = projector_bruteforce(d, m)
        assert np.max(np.abs(proj @ lifted @ proj - lifted)) < 1e-10
        assert np.max(np.abs(lifted - clone_dense(state.amplitudes, n, m))) < 1e-12

    def test_unitary_covariance(self):
        state = haar_random_state(2, 61)
        u = haar_random_unitary(2, 62)
        rotated = PureState(u @ state.amplitudes)
        big_u = np.kron(u, u)
        direct = lift_to_full_space(clone(rotated, 1, 2).density, 2, 2)
        moved = big_u @ lift_to_full_space(clone(state, 1, 2).density, 2, 2) @ big_u.conj().T
        assert np.max(np.abs(direct - moved)) < 1e-12

    def test_rejects_shrinking(self):
        with pytest.raises(InputFormatError):
            clone(haar_random_state(2, 1), 3, 2)

    def test_thirteen_qubit_clones_need_no_full_space(self):
        # d^M = 8192 was refused by the full-space guard; d_M is 14.
        state = haar_random_state(2, 1)
        out = clone(state, 1, 13)
        assert out.density.shape == (14, 14)
        assert abs(single_particle_fidelity(out, state) - werner_fidelity(2, 1, 13)) < 1e-12

    def test_build_guard_refuses_clone(self, monkeypatch):
        # d_M^3 = 4^3 = 64 for three qubit clones.
        state = haar_random_state(2, 1)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "64")
        clone(state, 1, 3)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "63")
        with pytest.raises(ResourceLimitError, match="POVMQUAD_BUILD_GUARD"):
            clone(state, 1, 3)

    def test_huge_copy_number_refused_at_once(self, monkeypatch):
        # d_M for d = 1000 and M = 10**1000 has about a million digits; it
        # took about 3 s to form before the guard refused its cube.
        monkeypatch.delenv("POVMQUAD_BUILD_GUARD", raising=False)
        state = haar_random_state(1000, 1)
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError,
            match=r"^cloner output cost d_k\^3 lower bound for d=1000, k=about 10\^1000 = about 10\^3000 ",
        ):
            clone(state, 1, 10**1000)
        assert time.perf_counter() - start < 0.5

    def test_output_rejects_nan_density(self):
        density = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
        density[1, 1] = math.nan
        with pytest.raises(ConstructionError):
            ClonerOutput(d=2, N=1, M=2, density=density)

    def test_output_rejects_full_space_shape(self):
        with pytest.raises(InputFormatError):
            ClonerOutput(d=2, N=1, M=2, density=np.eye(4) / 4)

    def test_output_rejects_more_inputs_than_clones(self):
        with pytest.raises(InputFormatError):
            ClonerOutput(d=2, N=3, M=2, density=np.eye(3) / 3)

    @pytest.mark.parametrize(
        "diagonal",
        [[1.0, 0.5, 0.0], [1.5, -0.5, 0.0]],
        ids=["trace", "negative-eigenvalue"],
    )
    def test_output_rejects_non_state(self, diagonal):
        # Each diagonal is 0.5 away from a state, in trace or in its least eigenvalue.
        with pytest.raises(ConstructionError) as info:
            ClonerOutput(d=2, N=1, M=2, density=np.diag(diagonal).astype(np.complex128))
        assert info.value.residual == pytest.approx(0.5)


# (d, M) with d_M = 2, 6, 10, 15, 21, 45 and 70: one panel of the
# factorisation, and two and three.
PLANTED_SHAPES = [(2, 1), (3, 2), (2, 9), (3, 4), (6, 2), (3, 8), (2, 69)]
NON_FINITE = [math.nan, math.inf, -math.inf, complex(0, math.inf), complex(1, math.nan),
              complex(math.inf, -math.inf)]


def planted_density(spectrum: np.ndarray, seed: int) -> np.ndarray:
    """U diag(spectrum) U^dagger for an oracle Haar unitary U."""
    u = haar_random_unitary(spectrum.size, seed)
    return (u * spectrum) @ u.conj().T


@st.composite
def planted_states(draw):
    """(d, M, spectrum, seed): unit trace, the least eigenvalue planted first.

    The least eigenvalue is drawn anywhere in [-0.5, 1/d_M], or within
    1e-12 ... 1e-8 of the -1e-10 threshold on either side; the others
    share the remaining trace above it.
    """
    d, m = draw(st.sampled_from(PLANTED_SHAPES))
    n = sym_dim(d, m)
    least = draw(st.one_of(
        st.floats(-0.5, 1.0 / n),
        st.builds(lambda sign, exponent: -VALIDATION_TOL + sign * 10.0**exponent,
                  st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -8.0)),
    ))
    shares = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    spectrum = np.concatenate([[least], least + (1.0 - n * least) * shares / shares.sum()])
    return d, m, spectrum, draw(st.integers(0, 2**32 - 1))


class TestPositivityCertificate:
    """The LDL^H pivot certificate against LAPACK's eigvalsh, run only here."""

    @settings(max_examples=120, deadline=None)
    @given(planted_states())
    @example((2, 1, np.array([1.5, -0.5]), 0))
    @example((3, 8, np.concatenate([[-2e-10], np.full(44, (1 + 2e-10) / 44)]), 1))
    @example((3, 8, np.concatenate([[-5e-11], np.full(44, (1 + 5e-11) / 44)]), 1))
    def test_decision_and_residual_match_eigvalsh(self, case):
        d, m, spectrum, seed = case
        density = planted_density(spectrum, seed)
        least = float(np.linalg.eigvalsh(density)[0])
        assume(abs(least + VALIDATION_TOL) >= 1e-12)
        try:
            ClonerOutput(d=d, N=1, M=m, density=density)
        except ConstructionError as exc:
            assert least < -VALIDATION_TOL
            assert abs(exc.residual + least) <= 1e-12
        else:
            assert least >= -VALIDATION_TOL

    @pytest.mark.parametrize("panel", [1, 2, 7, 32, 64])
    def test_every_panel_width_decides_alike(self, monkeypatch, panel):
        # 45 x 45: the columns split into panels that end mid-matrix, or not at all.
        import povmquad.cloner as cloner

        monkeypatch.setattr(cloner, "_PANEL", panel)
        spectrum = np.linspace(-0.01, 0.05, 45)
        density = planted_density(spectrum / spectrum.sum(), 3)
        least = float(np.linalg.eigvalsh(density)[0])
        for gap in (-1e-9, -1e-11, 1e-11, 1e-9):
            assert _positive_definite(density, least + gap) == (gap < 0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PLANTED_SHAPES[:5]), st.integers(0, 2**32 - 1), st.data())
    def test_non_finite_entry_fails_closed(self, shape, seed, data):
        d, m = shape
        n = sym_dim(d, m)
        density = planted_density(np.full(n, 1.0 / n), seed)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        density[i, j] = data.draw(st.sampled_from(NON_FINITE))
        with pytest.raises(ConstructionError):
            ClonerOutput(d=d, N=1, M=m, density=density)
        # In what the certificate itself reads, the lower triangle and the
        # real part of the diagonal, the entry reaches a pivot.
        density[max(i, j), min(i, j)] = density[i, j]
        assume(i != j or not math.isfinite(density[i, i].real))
        with np.errstate(invalid="ignore", over="ignore"):
            assert not _positive_definite(density, -VALIDATION_TOL)

    def test_residual_of_a_large_eigenvalue_is_relative(self):
        # Trace 1, least eigenvalue -1e6: the bisection stops at a width
        # relative to it instead of at an absolute width below its ulp.
        with pytest.raises(ConstructionError) as info:
            ClonerOutput(d=2, N=1, M=1, density=np.diag([1e6 + 1.0, -1e6]).astype(np.complex128))
        assert info.value.residual == pytest.approx(1e6, rel=1e-12)


class TestDenseOracle:
    @settings(max_examples=40, deadline=None)
    @given(clone_cases())
    @example((2, 1, 9, 0))
    @example((3, 2, 6, 1))
    @example((5, 4, 4, 2))
    def test_occupation_output_matches_dense_path(self, case):
        d, n, m, seed = case
        state = haar_random_state(d, seed)
        out = clone(state, n, m)
        dense = clone_dense(state.amplitudes, n, m)
        gap = np.max(np.abs(out.density - compress_to_occupation(dense, d, m)))
        assert gap <= 1e-12
        reduced = single_particle_reduced(out)
        for which in range(1, m + 1):
            assert np.max(np.abs(reduced - reduced_dense(dense, d, m, which))) <= 1e-12
        assert abs(single_particle_fidelity(out, state) - werner_fidelity(d, n, m)) <= 1e-12


class TestSingleParticleFidelity:
    def test_one_to_two_qubit_value(self):
        # The classic one-to-two qubit figure: 5/6.
        for seed in (1, 2, 3):
            state = haar_random_state(2, seed)
            out = clone(state, 1, 2)
            assert abs(single_particle_fidelity(out, state) - 5.0 / 6.0) < 1e-10

    def test_basis_state_clone(self):
        state = PureState.basis_state(2, 0)
        out = clone(state, 1, 2)
        assert abs(single_particle_fidelity(out, state) - 5.0 / 6.0) < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InputFormatError):
            single_particle_fidelity(clone(haar_random_state(2, 1), 1, 2), haar_random_state(3, 1))

    @pytest.mark.parametrize(
        "d,n,m,expected",
        [
            (2, 1, 3, 7.0 / 9.0),
            (2, 2, 3, 11.0 / 12.0),
            (3, 1, 2, 3.0 / 4.0),
        ],
    )
    def test_other_known_values(self, d, n, m, expected):
        # N/M + (M-N)(N+1)/(M(N+d)) for the optimal symmetric cloner.
        state = haar_random_state(d, 10 * d + m)
        out = clone(state, n, m)
        assert abs(single_particle_fidelity(out, state) - expected) < 1e-10

    def test_reduced_state_independent_of_clone_index(self):
        state = haar_random_state(2, 8)
        reduced = single_particle_reduced(clone(state, 1, 3))
        dense = clone_dense(state.amplitudes, 1, 3)
        for which in (1, 2, 3):
            other = reduced_dense(dense, 2, 3, which)
            assert np.max(np.abs(reduced - other)) < 1e-12

    def test_reduced_state_is_density_matrix(self):
        out = clone(haar_random_state(3, 4), 1, 2)
        reduced = single_particle_reduced(out)
        assert reduced.shape == (3, 3)
        assert abs(np.trace(reduced).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(reduced)[0] > -1e-12

    @pytest.mark.parametrize("d,top", [(2, 5), (3, 4)])
    def test_fidelity_non_increasing_in_clone_count(self, d, top):
        state = haar_random_state(d, 70 + d)
        values = []
        for m in range(1, top + 1):
            out = clone(state, 1, m)
            values.append(single_particle_fidelity(out, state))
        assert abs(values[0] - 1.0) < 1e-12
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestTwoStepEstimate:
    @pytest.mark.parametrize(
        "d,n,m",
        [(2, 1, 2), (2, 1, 3), (3, 1, 2)],
    )
    def test_matches_direct_estimation_optimum(self, povm_for, d, n, m):
        povm_m = povm_for(d, m)
        expected = float(optimal_fidelity(n, d))
        for seed in (11, 12, 13):
            state = haar_random_state(d, seed)
            value = two_step_estimate(clone(state, n, m), state, povm_m)
            assert abs(value - expected) < 1e-8

    def test_pipeline_and_closed_form_agree(self, povm_for):
        state = haar_random_state(2, 19)
        pipeline, closed = two_step_components(clone(state, 1, 2), state, povm_for(2, 2))
        assert abs(pipeline - closed) < 1e-10

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 2, 5), (3, 1, 3), (4, 1, 2)])
    def test_pipeline_matches_dense_oracle(self, povm_for, d, n, m):
        povm_m = povm_for(d, m)
        state = haar_random_state(d, 23 + m)
        pipeline, _ = two_step_components(clone(state, n, m), state, povm_m)
        assert abs(pipeline - two_step_dense(state.amplitudes, n, povm_m)) < 1e-10

    @pytest.mark.parametrize("d,n,m", [(2, 1, 3), (3, 1, 2), (3, 2, 4)])
    def test_kept_embedding_gives_the_same_values(self, povm_for, d, n, m):
        # One Povm reused over states (its embedding formed once) against a
        # fresh copy per state (embedding formed per call): equal, not close.
        shared = povm_for(d, m)
        for seed in range(5):
            state = haar_random_state(d, 300 + seed)
            out = clone(state, n, m)
            fresh = Povm(d=d, N=m, weights=shared.weights, guesses=shared.guesses)
            assert two_step_components(out, state, shared) == two_step_components(out, state, fresh)

    def test_trivial_chain_is_pointwise_fidelity(self, povm_for):
        from povmquad import pointwise_fidelity

        povm = povm_for(2, 1)
        state = haar_random_state(2, 21)
        value = two_step_estimate(clone(state, 1, 1), state, povm)
        assert abs(value - pointwise_fidelity(povm, state)) < 1e-10

    def test_nan_pipeline_fails_closed(self, povm_for, monkeypatch):
        import povmquad.cloner

        monkeypatch.setattr(povmquad.cloner, "two_step_components", lambda *a: (math.nan, 0.5))
        state = haar_random_state(2, 1)
        with pytest.raises(ConstructionError):
            two_step_estimate(clone(state, 1, 2), state, povm_for(2, 2))

    def test_rejects_mismatched_povm(self, povm_for):
        state = haar_random_state(2, 1)
        with pytest.raises(InputFormatError):
            two_step_estimate(clone(state, 1, 3), state, povm_for(2, 2))

    def test_rejects_wrong_dimension(self, povm_for):
        qutrit = haar_random_state(3, 1)
        with pytest.raises(InputFormatError):
            two_step_estimate(clone(qutrit, 1, 2), qutrit, povm_for(2, 2))
        with pytest.raises(InputFormatError):
            two_step_estimate(clone(haar_random_state(2, 1), 1, 2), qutrit, povm_for(2, 2))
