"""Estimation statistics: probabilities, sampling, and fidelity averages."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from povmquad import (
    InputFormatError,
    ResourceLimitError,
    Povm,
    PureState,
    haar_random_state,
    haar_random_states,
    haar_random_unitary,
    majority_vote_fidelity_mc,
    mean_fidelity_exact,
    mean_fidelity_mc,
    optimal_fidelity,
    outcome_probs,
    pointwise_fidelity,
    restrict_povm,
    sample_outcomes,
    sym_dim,
)

from povmquad.estimation import _MC_BLOCK

from _oracles import (
    ACCEPTANCE_PAIRS,
    mean_fidelity_mc_whole_block,
    pointwise_fidelity_direct,
    tensor_power,
)


class TestOptimalFidelity:
    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (1, 2, Fraction(2, 3)),
            (2, 2, Fraction(3, 4)),
            (3, 2, Fraction(4, 5)),
            (1, 3, Fraction(1, 2)),
            (2, 3, Fraction(3, 5)),
            (1, 4, Fraction(2, 5)),
        ],
    )
    def test_known_values(self, n, d, expected):
        value = optimal_fidelity(n, d)
        assert isinstance(value, Fraction)
        assert value == expected

    def test_monotone_in_copies(self):
        values = [optimal_fidelity(n, 3) for n in range(1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputFormatError):
            optimal_fidelity(0, 2)
        with pytest.raises(InputFormatError):
            optimal_fidelity(1, 1)


class TestOutcomeProbs:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2)])
    def test_normalised_and_nonnegative(self, povm_for, d, n):
        povm = povm_for(d, n)
        for seed in (1, 2, 3):
            probs = outcome_probs(povm, haar_random_state(d, seed))
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_matches_full_space_born_rule(self, povm_for):
        # p_a = tr(E_a rho^{tensor N}) with E_a assembled densely in the
        # d^N-dimensional space: d_N w_a |<phi_a^{tensor N}|psi^{tensor N}>|^2.
        povm = povm_for(2, 2)
        state = haar_random_state(2, 17)
        psi = tensor_power(state.amplitudes, 2)
        dim = sym_dim(2, 2)
        expected = np.empty(povm.n_outcomes)
        for a in range(povm.n_outcomes):
            phi = tensor_power(povm.guesses[a], 2)
            expected[a] = dim * povm.weights[a] * abs(np.vdot(phi, psi)) ** 2
        got = outcome_probs(povm, state)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_full_space_elements_sum_to_symmetric_projector(self, povm_for):
        from povmquad import symmetric_projector_full

        povm = povm_for(2, 2)
        dim = sym_dim(2, 2)
        total = np.zeros((4, 4), dtype=np.complex128)
        for a in range(povm.n_outcomes):
            phi = tensor_power(povm.guesses[a], 2)
            total += dim * povm.weights[a] * np.outer(phi, phi.conj())
        assert np.max(np.abs(total - symmetric_projector_full(2, 2))) < 1e-10

    def test_global_phase_invariance(self, povm_for):
        povm = povm_for(2, 2)
        state = haar_random_state(2, 5)
        rotated = PureState(np.exp(0.71j) * state.amplitudes)
        assert np.max(np.abs(outcome_probs(povm, state) - outcome_probs(povm, rotated))) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(
        pair=st.sampled_from(ACCEPTANCE_PAIRS),
        u_seed=st.integers(0, 2**32 - 1),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_unitary_covariance(self, povm_for, pair, u_seed, state_seed):
        # The family {U phi_a} at U phi gives the outcome law of {phi_a} at phi.
        povm = povm_for(*pair)
        u = haar_random_unitary(povm.d, u_seed)
        rotated_povm = Povm(
            d=povm.d, N=povm.N, weights=povm.weights, guesses=povm.guesses @ u.T,
        )
        state = haar_random_state(povm.d, state_seed)
        rotated_state = PureState(u @ state.amplitudes)
        base = outcome_probs(povm, state)
        moved = outcome_probs(rotated_povm, rotated_state)
        assert np.max(np.abs(base - moved)) < 1e-10

    def test_dimension_mismatch(self, povm_for):
        with pytest.raises(InputFormatError):
            outcome_probs(povm_for(2, 1), haar_random_state(3, 1))


class TestSampling:
    def test_counts_sum_and_determinism(self, povm_for):
        povm = povm_for(2, 1)
        state = haar_random_state(2, 9)
        a = sample_outcomes(povm, state, 5000, seed=101)
        b = sample_outcomes(povm, state, 5000, seed=101)
        assert np.array_equal(a, b)
        assert a.sum() == 5000
        assert a.shape == (povm.n_outcomes,)

    def test_seed_changes_draw(self, povm_for):
        povm = povm_for(2, 1)
        state = haar_random_state(2, 9)
        a = sample_outcomes(povm, state, 5000, seed=101)
        b = sample_outcomes(povm, state, 5000, seed=102)
        assert not np.array_equal(a, b)

    def test_goodness_of_fit(self, povm_for):
        povm = povm_for(2, 1)
        state = haar_random_state(2, 23)
        shots = 200_000
        counts = sample_outcomes(povm, state, shots, seed=71)
        probs = outcome_probs(povm, state)
        expected = probs * shots
        # Pool outcomes with tiny expectation so the chi-square
        # approximation applies.
        big = expected >= 5.0
        if np.all(big):
            obs, exp = counts.astype(float), expected
        else:
            obs = np.append(counts[big], counts[~big].sum()).astype(float)
            exp = np.append(expected[big], expected[~big].sum())
        exp = exp * obs.sum() / exp.sum()
        result = scipy.stats.chisquare(obs, exp)
        assert result.pvalue > 1e-3

    def test_rejects_bad_shots(self, povm_for):
        with pytest.raises(InputFormatError):
            sample_outcomes(povm_for(2, 1), haar_random_state(2, 1), 0, seed=1)


class TestPointwiseFidelity:
    def test_universal_estimator_is_constant(self, povm_for):
        restricted = restrict_povm(povm_for(2, 2), 1)
        values = [
            pointwise_fidelity(restricted, haar_random_state(2, seed))
            for seed in range(40)
        ]
        assert np.std(values) < 1e-12
        assert abs(values[0] - 2.0 / 3.0) < 1e-10

    def test_minimal_estimator_varies(self, povm_for):
        povm = povm_for(2, 1)
        values = [
            pointwise_fidelity(povm, haar_random_state(2, seed)) for seed in range(40)
        ]
        assert np.std(values) > 1e-3

    def test_matches_direct_sum(self, povm_for):
        povm = povm_for(2, 2)
        state = haar_random_state(2, 13)
        fids = np.abs(povm.guesses @ state.amplitudes.conj()) ** 2
        expected = sym_dim(2, 2) * float(povm.weights @ fids**3)
        assert abs(pointwise_fidelity(povm, state) - expected) < 1e-12


# (d, built N, N after restrict_povm or None): built families are merely
# optimal, restricted ones universal.
ORACLE_FAMILIES = [(2, 1, None), (2, 3, None), (3, 2, None), (2, 3, 1), (3, 2, 1)]


def _oracle_family(povm_for, d, n, restricted):
    povm = povm_for(d, n)
    return povm if restricted is None else restrict_povm(povm, restricted)


def _direct_values(povm, samples, seed):
    """The direct-sum pointwise fidelity at the Monte Carlo kernel's states.

    The states are redrawn as the kernel draws them: fixed-size blocks,
    one spawned seed each.
    """
    seeds = np.random.SeedSequence(seed).spawn(-(-samples // _MC_BLOCK))
    states = np.concatenate([
        haar_random_states(povm.d, min(_MC_BLOCK, samples - b * _MC_BLOCK),
                           np.random.default_rng(block_seed))
        for b, block_seed in enumerate(seeds)
    ])
    return pointwise_fidelity_direct(povm.guesses, povm.weights, povm.N, states)


class TestFrameOperatorFidelity:
    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(ORACLE_FAMILIES), seed=st.integers(0, 2**32 - 1))
    def test_pointwise_matches_direct_sum(self, povm_for, family, seed):
        povm = _oracle_family(povm_for, *family)
        state = haar_random_state(povm.d, seed)
        expected = pointwise_fidelity_direct(
            povm.guesses, povm.weights, povm.N, state.amplitudes[None, :]
        )[0]
        assert abs(pointwise_fidelity(povm, state) - expected) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(ORACLE_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(100, 2 * _MC_BLOCK + 700),
    )
    def test_monte_carlo_matches_direct_sum(self, povm_for, family, seed, samples):
        povm = _oracle_family(povm_for, *family)
        report = mean_fidelity_mc(povm, samples, seed)
        direct = _direct_values(povm, samples, seed)
        assert abs(report.value - direct.mean()) < 1e-12

    @pytest.mark.parametrize(
        "family,tol",
        [((2, 3, 2), 1e-15), ((3, 3, 2), 1e-15), ((2, 1, None), 1e-9),
         ((3, 2, None), 1e-9), ((2, 8, None), 1e-9)],
        ids=["2-3-restricted", "3-3-restricted", "2-1", "3-2", "2-8"],
    )
    def test_monte_carlo_stderr_matches_two_pass_spread(self, povm_for, family, tol):
        # Universal families (restricted) have a constant integrand: the
        # tolerance is absolute.  Minimal ones vary: it is relative.
        povm = _oracle_family(povm_for, *family)
        samples = 20_000
        report = mean_fidelity_mc(povm, samples, seed=5)
        direct = _direct_values(povm, samples, seed=5)
        expected = np.std(direct, ddof=1) / math.sqrt(samples)
        scale = 1.0 if family[2] is not None else expected
        assert abs(report.stderr - expected) <= tol * scale

    @pytest.mark.parametrize("samples", [100, _MC_BLOCK + 1500, 2 * _MC_BLOCK + 700])
    @pytest.mark.parametrize("family", ORACLE_FAMILIES + [(3, 4, None)], ids=str)
    def test_chunked_kernel_equals_whole_block_oracle(self, povm_for, family, samples):
        # Same draws, same per-row arithmetic, same block sums: equal bits.
        povm = _oracle_family(povm_for, *family)
        report = mean_fidelity_mc(povm, samples, seed=23)
        assert report.value == mean_fidelity_mc_whole_block(povm, samples, 23, _MC_BLOCK)

    def test_monte_carlo_working_set_is_bounded(self, povm_for):
        # 20,000 states on (3,4), d_{N+1} = 21: evaluating a whole
        # 4096-state block holds about 4 MB of arrays at once.
        povm = povm_for(3, 4)
        mean_fidelity_mc(povm, 100, seed=1)
        tracemalloc.start()
        try:
            mean_fidelity_mc(povm, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_monte_carlo_refused_under_build_guard(self, povm_for, monkeypatch):
        # G_2 of the 2-element qubit family costs 2 * 3^2 = 18; G_1 costs 8.
        povm = povm_for(2, 1)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "10")
        with pytest.raises(ResourceLimitError, match="POVMQUAD_BUILD_GUARD"):
            mean_fidelity_mc(povm, samples=1000, seed=1)


class TestMeanFidelity:
    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_exact_average_hits_optimum(self, povm_for, d, n):
        report = mean_fidelity_exact(povm_for(d, n))
        assert report.method == "analytic"
        assert report.stderr == 0.0
        assert abs(report.value - float(optimal_fidelity(n, d))) < 1e-12

    def test_monte_carlo_confirms_exact(self, povm_for):
        povm = povm_for(2, 1)
        exact = mean_fidelity_exact(povm).value
        report = mean_fidelity_mc(povm, samples=20_000, seed=5)
        assert report.samples == 20_000
        assert report.stderr > 0.0
        assert abs(report.value - exact) < 3 * report.stderr

    def test_monte_carlo_deterministic(self, povm_for):
        povm = povm_for(2, 1)
        a = mean_fidelity_mc(povm, samples=4096 * 2 + 100, seed=9)
        b = mean_fidelity_mc(povm, samples=4096 * 2 + 100, seed=9)
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_rejects_tiny_sample_counts(self, povm_for):
        with pytest.raises(InputFormatError):
            mean_fidelity_mc(povm_for(2, 1), samples=10, seed=1)

    def test_shuffled_guesses_fall_below_optimum(self, povm_for):
        # Keeping the measurement but reporting the wrong guess for
        # each outcome must lose fidelity: the optimum is a maximum.
        # A derangement: with two outcomes a random permutation is the
        # identity half of the time.
        povm = povm_for(2, 1)
        perm = np.roll(np.arange(povm.n_outcomes), 1)
        samples = 20_000
        states = haar_random_states(2, samples, 3141)
        values = np.empty(samples)
        for k, amps in enumerate(states):
            probs = outcome_probs(povm, PureState(amps))
            fids = np.abs(povm.guesses[perm] @ amps.conj()) ** 2
            values[k] = probs @ fids
        mean = values.mean()
        stderr = values.std(ddof=1) / math.sqrt(samples)
        assert mean + 5 * stderr < float(optimal_fidelity(1, 2))


SEEDED_ENTRY_POINTS = {
    "mean_fidelity_mc": lambda povm, seed: mean_fidelity_mc(povm, 100, seed),
    "sample_outcomes": lambda povm, seed: sample_outcomes(
        povm, PureState.basis_state(2, 0), 10, seed
    ),
    "majority_vote_fidelity_mc": lambda povm, seed: majority_vote_fidelity_mc(2, 100, seed),
}


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
    @pytest.mark.parametrize("entry", sorted(SEEDED_ENTRY_POINTS))
    def test_bad_seed_is_input_error(self, povm_for, entry, seed):
        with pytest.raises(InputFormatError, match="seed"):
            SEEDED_ENTRY_POINTS[entry](povm_for(2, 1), seed)

    @pytest.mark.parametrize("entry", sorted(SEEDED_ENTRY_POINTS))
    def test_index_seed_draws_as_its_int(self, povm_for, entry):
        def drawn(result):
            # Counts, or a report's value and standard error.
            if isinstance(result, np.ndarray):
                return result
            return np.array([result.value, result.stderr])

        call = SEEDED_ENTRY_POINTS[entry]
        first, second = call(povm_for(2, 1), np.int64(5)), call(povm_for(2, 1), 5)
        assert np.array_equal(drawn(first), drawn(second))


class TestMajorityBaseline:
    @pytest.mark.parametrize("n,analytic", [(2, 2 / 3), (3, 0.7), (4, 0.7)])
    def test_matches_analytic_value(self, n, analytic):
        report = majority_vote_fidelity_mc(n, samples=40_000, seed=400 + n)
        assert abs(report.value - analytic) < 4 * report.stderr

    def test_single_copy_matches_optimum(self):
        # With one copy the majority vote *is* the optimal basis
        # strategy on average.
        report = majority_vote_fidelity_mc(1, samples=40_000, seed=405)
        assert abs(report.value - 2.0 / 3.0) < 4 * report.stderr

    def test_rejects_no_copies(self):
        with pytest.raises(InputFormatError):
            majority_vote_fidelity_mc(0, 100, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strictly_below_joint_optimum(self, n):
        report = majority_vote_fidelity_mc(n, samples=40_000, seed=500 + n)
        gap = float(optimal_fidelity(n, 2)) - report.value
        assert gap > 3 * report.stderr

    def test_deterministic(self):
        a = majority_vote_fidelity_mc(2, samples=1000, seed=8)
        b = majority_vote_fidelity_mc(2, samples=1000, seed=8)
        assert a.value == b.value
