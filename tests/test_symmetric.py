"""Symmetric-subspace embedding against brute-force full-space algebra."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from povmquad import (
    InputFormatError,
    PureState,
    ResourceLimitError,
    fidelity,
    frame_operator,
    haar_random_state,
    haar_random_states,
    moment_value,
    occupation_basis,
    overlap,
    sym_dim,
    sym_embed,
    sym_embed_batch,
    sym_isometry,
    symmetric_projector_full,
)
from povmquad.symmetric import NORM_TOL, _uniform, _uniforms

from _oracles import (
    haar_random_unitary,
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

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=12).filter(
            lambda v: len(v) % 2 == 0 and max(map(abs, v)) > 1e-3
        ),
        offset=st.one_of(
            st.floats(-3e-12, 3e-12),
            st.sampled_from([-1e-12, 1e-12]).flatmap(lambda t: st.floats(t - 2e-15, t + 2e-15)),
            st.floats(-0.5, 0.5),
        ),
    )
    def test_accepts_exactly_as_the_vdot_norm(self, parts, offset):
        # Squared norm scaled to about 1 + offset.  Kept 1e-15 away from
        # the bounds 1 +- NORM_TOL, a margin far above the rounding of
        # either sum, the exact squared norm decides for both formulas.
        amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        amps *= math.sqrt(1.0 + offset) / np.linalg.norm(amps)
        exact = sum(Fraction(x) ** 2 for x in amps.view(np.float64).tolist())
        gap = abs(exact - 1) - Fraction(NORM_TOL)
        assume(abs(gap) >= Fraction(1e-15))
        vdot_accepts = abs(float(np.vdot(amps, amps).real) - 1.0) <= NORM_TOL
        assert vdot_accepts == (gap <= 0)
        try:
            PureState(amps)
        except InputFormatError:
            assert not vdot_accepts
        else:
            assert vdot_accepts

    @pytest.mark.parametrize("part", [1.7e154, 1e300, -1.7e308])
    def test_rejects_huge_finite_amplitudes(self, part):
        # The squared norm overflows to inf: refused, with no overflow warning.
        with pytest.raises(InputFormatError, match="norm"):
            PureState(np.array([part, 0.5j]))

    def test_norm_calls_no_blas_dot(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.vdot called")

        monkeypatch.setattr(np, "vdot", refuse)
        PureState(np.array([RT2, RT2 * 1j]))
        PureState.basis_state(3, 2)
        haar_random_state(4, 7)
        with pytest.raises(InputFormatError):
            PureState(np.array([1.0, 1.0]))

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


@pytest.mark.parametrize(
    "call",
    [
        lambda: occupation_basis(0, 1),
        lambda: sym_embed_batch(np.array([1.0, 0.0]), 1),
        lambda: sym_isometry(1, 2),
        lambda: haar_random_states(2, 0, 1),
        lambda: haar_random_state(1, 1),
        lambda: haar_random_unitary(1, 1),
    ],
    ids=["occupation-basis-d0", "embed-batch-1d", "isometry-d1", "haar-states-count0",
         "haar-state-d1", "haar-unitary-d1"],
)
def test_rejects_bad_arguments(call):
    with pytest.raises(InputFormatError):
        call()


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

    @pytest.mark.parametrize("m", [10**7, 10**8])
    def test_huge_copy_number_refused_at_once(self, monkeypatch, m):
        # 3**m took over 3 s (m = 10**7) and over a minute (10**8) to form
        # before the guard refused it.
        monkeypatch.delenv("POVMQUAD_FULL_SPACE_GUARD", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"lower bound max\(d, M\+1\)"):
            sym_isometry(3, m)
        assert time.perf_counter() - start < 0.5


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

    def test_huge_level_refused_at_once(self, monkeypatch):
        # d_k for d = 1000 and k = 10**1000 has about a million digits.
        monkeypatch.delenv("POVMQUAD_BUILD_GUARD", raising=False)
        amps = np.eye(1000, dtype=np.complex128)[:1]
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError,
            match=r"^frame operator cost A\*d_k\^2 lower bound for d=1000, k=about 10\^1000 = about 10\^2000 ",
        ):
            frame_operator(amps, np.ones(1), 10**1000)
        assert time.perf_counter() - start < 0.5

    def test_one_level_rows_charge_one_column(self, monkeypatch):
        # d_k = 1 for d = 1, below max(d, k+1): A = 2 entries of cost 1.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "2")
        gram = frame_operator(np.ones((2, 1)), np.full(2, 0.5), 3)
        assert gram.shape == (1, 1) and abs(gram[0, 0] - 1.0) < 1e-15


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
        # random.Random(12345).getrandbits gives the same bits on every
        # Python 3 release, so a drift of the stream, of the draw order or
        # of the polar map from uniforms to amplitudes fails here.
        golden = [
            0.40083383382375937 - 0.5158253915698927j,
            0.47434396651267347 - 0.21674626797919522j,
            -0.06963123980322208 + 0.5444508703891422j,
        ]
        amps = haar_random_state(3, 12345).amplitudes
        assert np.max(np.abs(amps - golden)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 7])
    def test_single_state_is_first_row_of_batch(self, d, seed):
        assert np.array_equal(
            haar_random_state(d, seed).amplitudes, haar_random_states(d, 1, seed)[0]
        )

    def test_blocks_read_one_stream(self):
        # Consecutive draws from one stream equal one draw of all the rows,
        # which is how the Monte Carlo kernel reads its blocks.
        stream = random.Random(77)
        blocks = [haar_random_states(3, count, stream) for count in (1, 5, 10)]
        assert np.array_equal(np.concatenate(blocks), haar_random_states(3, 16, 77))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**128), d=st.integers(2, 6), count=st.integers(1, 40))
    def test_any_seed_gives_unit_rows_and_repeats(self, seed, d, count):
        rows = haar_random_states(d, count, seed)
        norm_sq = np.sum(rows.real**2 + rows.imag**2, axis=1)
        assert np.max(np.abs(norm_sq - 1.0)) <= NORM_TOL
        assert np.array_equal(rows, haar_random_states(d, count, seed))

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_entries_have_haar_moments(self, d):
        # Weingarten values for U(d): E|U_11|^2 = 1/d, E|U_11|^4 =
        # 2/(d(d+1)), E|U_11|^2 |U_22|^2 = 1/(d^2-1) and
        # E U_11 U_22 conj(U_12 U_21) = -1/(d(d^2-1)), each within five
        # sample standard errors over 10,000 unitaries from one stream.
        stream = random.Random(8_200 + d)
        u = np.array([haar_random_unitary(d, stream) for _ in range(10_000)])
        a11, a22 = np.abs(u[:, 0, 0]) ** 2, np.abs(u[:, 1, 1]) ** 2
        cross = u[:, 0, 0] * u[:, 1, 1] * np.conj(u[:, 0, 1] * u[:, 1, 0])
        for values, exact in (
            (a11, 1 / d),
            (a11**2, 2 / (d * (d + 1))),
            (a11 * a22, 1 / (d * d - 1)),
            (cross.real, -1 / (d * (d * d - 1))),
            (cross.imag, 0.0),
        ):
            stderr = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean() - exact) <= 5 * stderr, exact

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
    """haar_random_state over 4000 seeds against the exact moments."""

    SEEDS = range(4000)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_moments_within_five_sigma(self, d):
        amps = np.array([haar_random_state(d, seed).amplitudes for seed in self.SEEDS])
        monomials = [
            (tuple(min(k, d) for k in i), tuple(min(k, d) for k in j))
            for i, j in SINGLE_STATE_MONOMIALS
        ]
        _assert_monomial_means(amps, monomials)


def _assert_monomial_means(amps, monomials):
    """Each monomial's mean over the rows of amps within five sigma of moment_value.

    A monomial X = prod c_i prod conj(c_j) is given as (i, j), 1-based.
    Its real and imaginary parts are compared separately.  The standard
    error comes from exact moments too: Var Re X = (E|X|^2 + Re E[X^2])/2
    - (Re EX)^2 and Var Im X = (E|X|^2 - Re E[X^2])/2, so the bound is
    fixed by the oracle and not by the sample.
    """
    n, d = amps.shape
    for i, j in monomials:
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


class _FixedWords(random.Random):
    """A stream whose getrandbits repeats one 64-bit word."""

    def __init__(self, word):
        super().__init__(0)
        self.word = word

    def getrandbits(self, k):
        return sum(self.word << (64 * j) for j in range(k // 64))


class TestUniformStream:
    def test_values_lie_on_the_grid_in_the_unit_interval(self):
        u = _uniforms(random.Random(3), 100_000)
        k = u * 2.0**53
        assert np.array_equal(k, np.floor(k))
        assert k.min() >= 1.0 and k.max() <= 2.0**53
        assert 0.0 < u.min() and u.max() <= 1.0

    @pytest.mark.parametrize(
        "word,value",
        [(2**64 - 1, 1.0), (0, 2.0**-53), (2**11 - 1, 2.0**-53), (2**11, 2 * 2.0**-53),
         (2**63, 0.5 + 2.0**-53)],
    )
    def test_top_53_bits_set_the_value(self, word, value):
        assert _uniforms(_FixedWords(word), 3).tolist() == [value] * 3
        assert _uniform(_FixedWords(word)) == value

    def test_scalar_draws_continue_the_same_stream(self):
        a, b = random.Random(5), random.Random(5)
        assert [_uniform(a) for _ in range(10)] == _uniforms(b, 10).tolist()
        assert _uniforms(a, 3).tolist() == [_uniform(b) for _ in range(3)]

    def test_first_values_are_a_shorter_draw(self):
        assert np.array_equal(_uniforms(random.Random(8), 9)[:4], _uniforms(random.Random(8), 4))
        assert _uniforms(random.Random(8), 0).shape == (0,)

    def test_uniform_bins(self):
        # 64 equal bins and the low bits' 64 residues, each against a
        # flat distribution.
        u = _uniforms(random.Random(2718), 200_000)
        bins = np.bincount(np.minimum((u * 64).astype(int), 63), minlength=64)
        assert scipy.stats.chisquare(bins).pvalue > 1e-3
        low = np.bincount((u * 2.0**53).astype(np.int64) % 64, minlength=64)
        assert scipy.stats.chisquare(low).pvalue > 1e-3


class TestBatchMoments:
    """Second and fourth moments of haar_random_states against the exact ones.

    Every monomial prod c_i prod conj(c_j) with |i| = |j| = 1 or 2 is
    averaged over 20,000 rows of one draw, as TestSingleStateMoments
    averages single states.
    """

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_moments_within_five_sigma(self, d):
        amps = haar_random_states(d, 20_000, 6_100 + d)
        monomials = []
        for length in (1, 2):
            tuples = itertools.combinations_with_replacement(range(1, d + 1), length)
            monomials += itertools.product(list(tuples), repeat=2)
        _assert_monomial_means(amps, monomials)
