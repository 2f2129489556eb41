"""Optimal cloning in occupation coordinates against the dense full-space oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from povmquad import (
    ClonerOutput,
    ConstructionError,
    InputFormatError,
    Povm,
    PureState,
    ResourceLimitError,
    clone,
    haar_random_state,
    haar_random_unitary,
    optimal_fidelity,
    single_particle_fidelity,
    single_particle_reduced,
    two_step_components,
    two_step_estimate,
)

from _oracles import (
    clone_dense,
    compress_to_occupation,
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
