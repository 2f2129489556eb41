"""Optimal cloning as a full-space reference and the clone-then-estimate chain."""

import math

import numpy as np
import pytest

from povmquad import (
    ClonerOutput,
    ConstructionError,
    InputFormatError,
    PureState,
    ResourceLimitError,
    clone,
    haar_random_state,
    haar_random_unitary,
    optimal_fidelity,
    single_particle_fidelity,
    single_particle_reduced,
    symmetric_projector_full,
    two_step_components,
    two_step_estimate,
)

from _oracles import tensor_power


class TestCloneMap:
    def test_trivial_clone_returns_input_power(self):
        state = haar_random_state(2, 3)
        out = clone(state, 2, 2)
        psi = tensor_power(state.amplitudes, 2)
        assert np.max(np.abs(out.density - np.outer(psi, psi.conj()))) < 1e-12

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2)])
    def test_output_is_valid_state(self, d, n, m):
        out = clone(haar_random_state(d, 40 + m), n, m)
        density = out.density
        assert np.max(np.abs(density - density.conj().T)) < 1e-12
        assert abs(np.trace(density).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(density)[0] > -1e-12

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2)])
    def test_output_supported_on_symmetric_subspace(self, d, n, m):
        out = clone(haar_random_state(d, 50 + m), n, m)
        proj = symmetric_projector_full(d, m)
        assert np.max(np.abs(proj @ out.density @ proj - out.density)) < 1e-10

    def test_unitary_covariance(self):
        state = haar_random_state(2, 61)
        u = haar_random_unitary(2, 62)
        rotated = PureState(u @ state.amplitudes)
        big_u = np.kron(u, u)
        direct = clone(rotated, 1, 2).density
        moved = big_u @ clone(state, 1, 2).density @ big_u.conj().T
        assert np.max(np.abs(direct - moved)) < 1e-12

    def test_rejects_shrinking(self):
        with pytest.raises(InputFormatError):
            clone(haar_random_state(2, 1), 3, 2)

    def test_full_space_guard(self):
        with pytest.raises(ResourceLimitError):
            clone(haar_random_state(2, 1), 1, 13)

    def test_output_rejects_nan_density(self):
        density = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
        density[1, 1] = math.nan
        with pytest.raises(ConstructionError):
            ClonerOutput(d=2, N=1, M=2, density=density)


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
        out = clone(haar_random_state(2, 8), 1, 3)
        first = single_particle_reduced(out, 1)
        for which in (2, 3):
            other = single_particle_reduced(out, which)
            assert np.max(np.abs(first - other)) < 1e-12

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

    def test_rejects_bad_clone_index(self):
        out = clone(haar_random_state(2, 1), 1, 2)
        with pytest.raises(InputFormatError):
            single_particle_reduced(out, 3)


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
            value = two_step_estimate(state, n, m, povm_m)
            assert abs(value - expected) < 1e-8

    def test_pipeline_and_closed_form_agree(self, povm_for):
        state = haar_random_state(2, 19)
        pipeline, closed = two_step_components(state, 1, 2, povm_for(2, 2))
        assert abs(pipeline - closed) < 1e-10

    def test_trivial_chain_is_pointwise_fidelity(self, povm_for):
        from povmquad import pointwise_fidelity

        povm = povm_for(2, 1)
        state = haar_random_state(2, 21)
        value = two_step_estimate(state, 1, 1, povm)
        assert abs(value - pointwise_fidelity(povm, state)) < 1e-10

    def test_nan_pipeline_fails_closed(self, povm_for, monkeypatch):
        import povmquad.cloner

        monkeypatch.setattr(povmquad.cloner, "two_step_components", lambda *a: (math.nan, 0.5))
        with pytest.raises(ConstructionError):
            two_step_estimate(haar_random_state(2, 1), 1, 2, povm_for(2, 2))

    def test_rejects_mismatched_povm(self, povm_for):
        with pytest.raises(InputFormatError):
            two_step_estimate(haar_random_state(2, 1), 1, 3, povm_for(2, 2))

    def test_rejects_wrong_dimension(self, povm_for):
        with pytest.raises(InputFormatError):
            two_step_estimate(haar_random_state(3, 1), 1, 2, povm_for(2, 2))
