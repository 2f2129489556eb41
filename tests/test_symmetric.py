"""Symmetric-subspace embedding against brute-force full-space algebra."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmquad import (
    InputFormatError,
    PureState,
    ResourceLimitError,
    fidelity,
    frame_operator,
    haar_random_state,
    haar_random_states,
    haar_random_unitary,
    moment_value,
    occupation_basis,
    overlap,
    sym_dim,
    sym_embed,
    sym_embed_batch,
    sym_isometry,
    symmetric_projector_full,
)

from _oracles import (
    projector_bruteforce,
    sym_basis_bruteforce,
    sym_embed_per_column,
    tensor_power,
)

RT2 = 1.0 / math.sqrt(2.0)


class TestPureState:
    def test_accepts_unit_vectors(self):
        state = PureState(np.array([RT2, RT2 * 1j]))
        assert state.d == 2
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15

    def test_rejects_non_unit_norm(self):
        with pytest.raises(InputFormatError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(InputFormatError):
            PureState(np.array([np.nan, 0.0]))

    def test_rejects_d_below_two(self):
        with pytest.raises(InputFormatError):
            PureState(np.array([1.0]))

    def test_amplitudes_frozen(self):
        state = PureState.basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_basis_state(self):
        state = PureState.basis_state(3, 1)
        assert np.array_equal(state.amplitudes, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(InputFormatError):
            PureState.basis_state(3, 3)


class TestSymDim:
    @pytest.mark.parametrize(
        "d,n,expected",
        [(2, 1, 2), (2, 2, 3), (2, 3, 4), (3, 1, 3), (3, 2, 6), (4, 1, 4), (2, 10, 11)],
    )
    def test_values(self, d, n, expected):
        assert sym_dim(d, n) == expected

    def test_pascal_recurrence(self):
        for d in range(2, 6):
            for n in range(2, 6):
                assert sym_dim(d, n) == sym_dim(d - 1, n) + sym_dim(d, n - 1)

    def test_degenerate_edges(self):
        # Single-level systems and zero copies are one-dimensional;
        # the Pascal recursion bottoms out on them.
        assert sym_dim(1, 5) == 1
        assert sym_dim(3, 0) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputFormatError):
            sym_dim(0, 2)
        with pytest.raises(InputFormatError):
            sym_dim(2, -1)


class TestOccupationBasis:
    def test_qubit_two_copies(self):
        assert occupation_basis(2, 2) == ((2, 0), (1, 1), (0, 2))

    def test_qutrit_one_copy(self):
        assert occupation_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (3, 3), (4, 2)])
    def test_count_sums_and_order(self, d, n):
        occs = occupation_basis(d, n)
        assert len(occs) == sym_dim(d, n)
        assert all(sum(occ) == n for occ in occs)
        assert list(occs) == sorted(occs, reverse=True)


class TestSymEmbed:
    def test_basis_state_two_copies(self):
        coords = sym_embed(PureState.basis_state(2, 0), 2)
        assert np.allclose(coords, [1.0, 0.0, 0.0], atol=1e-15)

    def test_equal_superposition_two_copies(self):
        coords = sym_embed(PureState(np.array([RT2, RT2])), 2)
        assert np.allclose(coords, [0.5, RT2, 0.5], atol=1e-12)

    def test_complex_superposition_two_copies(self):
        coords = sym_embed(PureState(np.array([RT2, RT2 * 1j])), 2)
        assert np.allclose(coords, [0.5, RT2 * 1j, -0.5], atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_preserves_norm(self, d, n):
        states = haar_random_states(d, 20, 1234)
        coords = sym_embed_batch(states, n)
        assert np.max(np.abs(np.linalg.norm(coords, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
    def test_overlap_is_single_copy_overlap_power(self, d, n):
        a, b = haar_random_state(d, 5), haar_random_state(d, 6)
        va, vb = sym_embed(a, n), sym_embed(b, n)
        assert abs(np.vdot(va, vb) - overlap(a, b) ** n) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_matches_full_space_coordinates(self, d, n):
        states = haar_random_states(d, 8, seed_for(d, n))
        basis = sym_basis_bruteforce(d, n)
        for amps in states:
            expected = basis.conj() @ tensor_power(amps, n)
            got = sym_embed(PureState(amps), n)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_rejects_bad_copy_count(self):
        with pytest.raises(InputFormatError):
            sym_embed(PureState.basis_state(2, 0), 0)


def seed_for(d, n):
    return 1000 * d + n


# For each d, the first N whose POVM build the default guard refuses.
GUARD_EDGE = {2: 100, 3: 12, 4: 6, 5: 4, 6: 4}


class TestEmbeddingOracle:
    @pytest.mark.parametrize("d", sorted(GUARD_EDGE))
    def test_matches_per_column_formula(self, d):
        # Repeated products against binary powers: a few ulps apart.  The
        # oracle is the looser side at n = 100, where numpy's complex **
        # leaves binary exponentiation for exp(n log a).
        states = haar_random_states(d, 64, 7 + d)
        for n in range(1, GUARD_EDGE[d] + 1):
            got = sym_embed_batch(states, n)
            want = sym_embed_per_column(states, n)
            assert np.all(np.abs(got - want) <= 4 * (n + 1) * 2.0**-52 * np.abs(want)), (d, n)

    @pytest.mark.parametrize("d", sorted(GUARD_EDGE))
    def test_basis_states_match_exactly(self, d):
        basis = np.eye(d, dtype=np.complex128)
        for n in range(1, GUARD_EDGE[d] + 1):
            assert np.array_equal(sym_embed_batch(basis, n), sym_embed_per_column(basis, n))

    @pytest.mark.parametrize("d,n", sorted(GUARD_EDGE.items()))
    def test_peak_memory_is_one_temporary_over_output(self, d, n):
        # The output, one gathered operand of its size and the power
        # tables, which are d(N+1)/d_N of the output: at most 2.5x the
        # output for d >= 3.  At d = 2 the tables alone are twice it.
        states = haar_random_states(d, 2048, 3)
        sym_embed_batch(states[:8], n)
        tracemalloc.start()
        try:
            out = sym_embed_batch(states, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = states.shape[0] * d * (n + 1) * 16
        assert peak <= 2 * out.nbytes + tables + 65536
        if d >= 3:
            assert peak <= 2.5 * out.nbytes


class TestOverlapFidelity:
    def test_hermitian_symmetry(self):
        a, b = haar_random_state(3, 1), haar_random_state(3, 2)
        assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-15

    def test_fidelity_bounds_and_self(self):
        a, b = haar_random_state(2, 3), haar_random_state(2, 4)
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert abs(fidelity(a, a) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputFormatError):
            overlap(haar_random_state(2, 1), haar_random_state(3, 1))


class TestProjector:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_projector_properties(self, d, n):
        proj = symmetric_projector_full(d, n)
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        assert abs(np.trace(proj).real - sym_dim(d, n)) < 1e-9

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_bruteforce_basis_sum(self, d, n):
        proj = symmetric_projector_full(d, n)
        assert np.max(np.abs(proj - projector_bruteforce(d, n))) < 1e-10

    def test_fixes_tensor_powers(self):
        amps = haar_random_state(2, 9).amplitudes
        vec = tensor_power(amps, 3)
        proj = symmetric_projector_full(2, 3)
        assert np.max(np.abs(proj @ vec - vec)) < 1e-12

    def test_full_space_guard(self):
        with pytest.raises(ResourceLimitError):
            symmetric_projector_full(2, 13)

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("POVMQUAD_FULL_SPACE_GUARD", "16")
        with pytest.raises(ResourceLimitError):
            symmetric_projector_full(2, 5)


ISOMETRY_SPACES = [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (4, 2)]


class TestIsometry:
    @settings(max_examples=40, deadline=None)
    @given(space=st.sampled_from(ISOMETRY_SPACES), seed=st.integers(0, 2**32 - 1))
    def test_maps_embedding_to_tensor_power(self, space, seed):
        d, m = space
        state = haar_random_state(d, seed)
        got = sym_isometry(d, m) @ sym_embed(state, m)
        assert np.max(np.abs(got - tensor_power(state.amplitudes, m))) < 1e-12

    @pytest.mark.parametrize("d,m", ISOMETRY_SPACES)
    def test_columns_are_orthonormal(self, d, m):
        iso = sym_isometry(d, m)
        assert iso.shape == (d**m, sym_dim(d, m))
        assert np.max(np.abs(iso.T @ iso - np.eye(sym_dim(d, m)))) < 1e-12

    def test_projector_without_permutation_sum(self):
        # A 12!-term permutation average would take hours; V V^T does not.
        proj = symmetric_projector_full(2, 12)
        assert abs(np.trace(proj) - 13.0) < 1e-9

    def test_guard_names_its_variable(self):
        with pytest.raises(ResourceLimitError, match="POVMQUAD_FULL_SPACE_GUARD"):
            sym_isometry(2, 13)


class TestFrameOperator:
    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_matches_dense_tensor_power_average(self, povm_for, d, n):
        povm = povm_for(d, n)
        dense = np.zeros((d**n, d**n), dtype=np.complex128)
        for w, amps in zip(povm.weights, povm.guesses):
            psi = tensor_power(amps, n)
            dense += w * np.outer(psi, psi.conj())
        iso = sym_isometry(d, n)
        got = iso @ frame_operator(povm.guesses, povm.weights, n) @ iso.T
        assert np.max(np.abs(got - dense)) < 1e-12

    def test_build_guard(self, povm_for, monkeypatch):
        povm = povm_for(2, 1)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        with pytest.raises(ResourceLimitError, match="POVMQUAD_BUILD_GUARD"):
            frame_operator(povm.guesses, povm.weights, 1)


class TestHaarSampling:
    def test_states_unit_norm_and_deterministic(self):
        a = haar_random_states(3, 50, 42)
        b = haar_random_states(3, 50, 42)
        assert np.array_equal(a, b)
        assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12

    def test_single_state_seeded(self):
        s1 = haar_random_state(2, 7)
        s2 = haar_random_state(2, 7)
        assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_single_state_golden_amplitudes(self):
        # random.Random(12345).gauss gives the same stream on Python 3.10 to
        # 3.13, so a drift of the generator or of the draw order fails here.
        golden = [
            -0.11492570042213002 + 0.06639744507302758j,
            0.3558860261567978 - 0.696230885488194j,
            -0.4124993604601448 + 0.44814666211953086j,
        ]
        amps = haar_random_state(3, 12345).amplitudes
        assert np.max(np.abs(amps - golden)) < 1e-15

    @pytest.mark.parametrize("seed", [-1, -3, True, False, 1.5, 2.0, "3", None])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: haar_random_state(2, seed),
            lambda seed: haar_random_states(2, 3, seed),
            lambda seed: haar_random_unitary(2, seed),
        ],
        ids=["state", "states", "unitary"],
    )
    def test_bad_seed_is_input_error(self, draw, seed):
        with pytest.raises(InputFormatError, match="seed"):
            draw(seed)

    def test_index_seeds_draw_as_their_int(self):
        assert np.array_equal(
            haar_random_state(3, np.int64(5)).amplitudes, haar_random_state(3, 5).amplitudes
        )
        assert np.array_equal(haar_random_states(3, 4, np.uint8(5)), haar_random_states(3, 4, 5))
        assert np.array_equal(haar_random_unitary(3, np.int32(5)), haar_random_unitary(3, 5))

    def test_unitary_is_unitary_and_deterministic(self):
        u1 = haar_random_unitary(4, 11)
        u2 = haar_random_unitary(4, 11)
        assert np.array_equal(u1, u2)
        assert np.max(np.abs(u1 @ u1.conj().T - np.eye(4))) < 1e-12

    def test_unitary_rotation_preserves_embedding_overlap(self):
        u = haar_random_unitary(2, 3)
        a, b = haar_random_state(2, 21), haar_random_state(2, 22)
        ra = PureState(u @ a.amplitudes)
        rb = PureState(u @ b.amplitudes)
        va, vb = sym_embed(a, 3), sym_embed(b, 3)
        wa, wb = sym_embed(ra, 3), sym_embed(rb, 3)
        assert abs(np.vdot(va, vb) - np.vdot(wa, wb)) < 1e-12


# Monomials prod c_i prod conj(c_j), 1-based, as (i, j); unequal lengths
# average to zero by phase invariance.
SINGLE_STATE_MONOMIALS = [
    ((1,), (1,)),
    ((2,), (2,)),
    ((1,), (2,)),
    ((1, 1), (1, 1)),
    ((1, 2), (1, 2)),
    ((1, 1), (2, 2)),
    ((1, 2), (1, 1)),
    ((1, 2), ()),
]


class TestSingleStateMoments:
    """haar_random_state over 4000 seeds against the exact moments.

    The mean of each monomial X is compared with moment_value, separately
    for its real and imaginary parts.  The standard error comes from exact
    moments too: Var Re X = (E|X|^2 + Re E[X^2])/2 - (Re EX)^2 and
    Var Im X = (E|X|^2 - Re E[X^2])/2, so the 5 sigma bound is fixed by the
    oracle and not by the sample.
    """

    SEEDS = range(4000)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_moments_within_five_sigma(self, d):
        amps = np.array([haar_random_state(d, seed).amplitudes for seed in self.SEEDS])
        n = amps.shape[0]
        for i, j in SINGLE_STATE_MONOMIALS:
            i = tuple(min(k, d) for k in i)
            j = tuple(min(k, d) for k in j)
            x = np.prod(amps[:, [k - 1 for k in i]], axis=1) * np.prod(
                amps[:, [k - 1 for k in j]].conj(), axis=1
            )
            mean = moment_value(d, i, j)
            abs_sq = moment_value(d, i + j, j + i)
            square = moment_value(d, i + i, j + j)
            var_re = (abs_sq + square) / 2 - mean**2
            var_im = (abs_sq - square) / 2
            assert var_re >= 0 and var_im >= 0
            for part, exact, var in (
                (x.real, mean, var_re),
                (x.imag, Fraction(0), var_im),
            ):
                # The 1e-12 covers rounding where the variance is 0 (Im |c_1|^2).
                bound = 5.0 * math.sqrt(var / n) + 1e-12
                assert abs(float(part.mean()) - float(exact)) <= bound, (i, j, exact)
