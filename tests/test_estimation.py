"""Estimation statistics: probabilities, sampling, and fidelity averages."""

import math
import random
import time
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
    majority_vote_fidelity,
    mean_fidelity_exact,
    mean_fidelity_mc,
    optimal_fidelity,
    outcome_probs,
    pointwise_fidelity,
    restrict_povm,
    sample_outcomes,
    sym_dim,
)

from povmquad import sampling
from povmquad.estimation import MAX_SHOTS, _MC_BLOCK
from povmquad.sampling import _log_binomial_ratio, binomial

from _oracles import (
    ACCEPTANCE_PAIRS,
    haar_random_unitary,
    majority_vote_beta_sum,
    majority_vote_values,
    mean_fidelity_exact_fraction,
    mean_fidelity_mc_whole_block,
    pointwise_fidelity_direct,
    tensor_power,
)
from test_povm import weight_values

# Every subnormal double, the smallest (2^-1074) included.
SUBNORMAL_WEIGHTS = st.floats(5e-324, 2.0**-1022, exclude_max=True)


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
        with pytest.raises(InputFormatError, match="shots"):
            sample_outcomes(povm_for(2, 1), haar_random_state(2, 1), MAX_SHOTS + 1, seed=1)

    def test_golden_counts(self, povm_for):
        # random.Random(2024) gives the same bits on every Python 3
        # release, so a drift of the stream, of the conditional chain or of
        # either binomial branch fails here.
        povm = povm_for(3, 2)
        counts = sample_outcomes(povm, PureState.basis_state(3, 1), 1000, seed=2024)
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            12, 16, 9, 14, 13, 7, 13, 133, 110, 131, 128, 107, 130, 106,
            1, 3, 0, 1, 0, 1, 1, 5, 10, 11, 4, 9, 11, 14,
        ]

    @pytest.mark.parametrize("shots,draws", [(30, 2000), (1_000_000, 1)])
    def test_many_outcome_counts_follow_outcome_probs(self, povm_for, shots, draws):
        # 28 outcomes; small draws take the geometric branch, a large one
        # the rejection branch.  Summed draws are one multinomial draw.
        povm = povm_for(3, 2)
        state = haar_random_state(3, 4_401)
        counts = sum(sample_outcomes(povm, state, shots, seed=4_500 + k) for k in range(draws))
        probs = outcome_probs(povm, state)
        assert _pooled_chi_square_pvalue(counts, probs / probs.sum() * shots * draws) > 1e-3

    def test_billion_shots_cost_stays_with_the_outcome_count(self, povm_for, monkeypatch):
        # One binomial per outcome: the uniforms drawn do not grow with the
        # shot count (numpy's multinomial was O(A) too).
        povm = povm_for(3, 4)
        state = haar_random_state(3, 8)
        uniform = sampling._uniform
        drawn = 0

        def counting(stream):
            nonlocal drawn
            drawn += 1
            return uniform(stream)

        monkeypatch.setattr(sampling, "_uniform", counting)
        for shots in (10**4, 10**9, MAX_SHOTS):
            drawn = 0
            counts = sample_outcomes(povm, state, shots, seed=3)
            assert counts.sum() == shots
            assert 0 < drawn <= 12 * povm.n_outcomes, shots


def _pooled_chi_square_pvalue(counts, expected):
    """Chi-square p-value with the cells expecting fewer than 5 pooled into one."""
    big = expected >= 5.0
    obs, exp = counts[big].astype(float), expected[big]
    if not np.all(big):
        obs = np.append(obs, counts[~big].sum())
        exp = np.append(exp, expected[~big].sum())
    return scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


def _binomial_pmf(n, p):
    """Exact Binomial(n, p) probabilities from math.comb, in floats."""
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])


class TestBinomialSampler:
    @pytest.mark.parametrize(
        "n,p",
        [(2, 0.3), (20, 0.2), (30, 0.01), (40, 0.24), (60, 0.9),
         (200, 0.3), (1000, 0.45), (120, 0.75)],
        ids=["pair", "geometric", "geometric-rare", "geometric-edge", "geometric-mirrored",
             "btrs", "btrs-wide", "btrs-mirrored"],
    )
    def test_chi_square_against_exact_pmf(self, n, p):
        draws = 20_000
        stream = random.Random(n * 1_000 + round(p * 100))
        counts = np.bincount([binomial(stream, n, p) for _ in range(draws)], minlength=n + 1)
        assert _pooled_chi_square_pvalue(counts, draws * _binomial_pmf(n, p)) > 1e-3

    @pytest.mark.parametrize("n,p,value", [(0, 0.3, 0), (0, 1.0, 0), (17, 0.0, 0), (17, 1.0, 17)])
    def test_certain_outcomes_draw_nothing(self, n, p, value):
        stream = random.Random(1)
        state = stream.getstate()
        assert binomial(stream, n, p) == value
        assert stream.getstate() == state

    @pytest.mark.parametrize("n", [20, 150, 1000, 5000])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5])
    def test_log_ratio_against_comb(self, n, p):
        # The acceptance test's log f(k)/f(mode) against logs of exact
        # binomial coefficients.
        mode = math.floor((n + 1) * p)
        lpq = math.log(p / (1.0 - p))
        for k in range(max(0, mode - 80), min(n, mode + 80) + 1):
            exact = math.log(math.comb(n, k)) - math.log(math.comb(n, mode)) + (k - mode) * lpq
            assert abs(_log_binomial_ratio(n, k, mode, lpq) - exact) < 1e-9, k

    @pytest.mark.parametrize("n", [10**15, MAX_SHOTS])
    def test_huge_n_stays_normal(self, n):
        # At these n the Binomial(n, 0.3) law is the normal one to ~1e-8,
        # so the standardised draws follow N(0, 1).  The direct lgamma
        # form of the acceptance test widens them by 18% at 1e15.  Every
        # integer stays reachable: k taken from the float n p would be a
        # multiple of 1024 at n = 2^63 - 1.
        stream = random.Random(n % 1_000_003)
        draws = [binomial(stream, n, 0.3) for _ in range(20_000)]
        assert all(isinstance(k, int) and 0 <= k <= n for k in draws)
        assert len({k % 1024 for k in draws}) > 1000
        z = (np.array(draws, dtype=float) - n * 0.3) / math.sqrt(n * 0.3 * 0.7)
        assert scipy.stats.kstest(z, "norm").pvalue > 1e-3

    def test_single_trial_is_one_uniform(self):
        a, b = random.Random(6), random.Random(6)
        draws = [binomial(a, 1, 0.3) for _ in range(200)]
        assert draws == [int(u <= 0.3) for u in (sampling._uniform(b) for _ in range(200))]


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

    The states are drawn at once from random.Random(seed): a draw of n
    rows is the first n rows of any longer draw, so these are the rows
    the kernel draws block by block.
    """
    states = haar_random_states(povm.d, samples, random.Random(seed))
    return pointwise_fidelity_direct(povm.guesses, povm.weights, povm.N, states)


def _assert_stderr_is_two_pass_spread(povm_for, family, tol, samples, seed):
    """The kernel's merged stderr against the two-pass spread of its draws.

    Universal families (restricted) have a constant integrand: the
    tolerance is absolute.  Minimal ones vary: it is relative.
    """
    povm = _oracle_family(povm_for, *family)
    report = mean_fidelity_mc(povm, samples, seed)
    expected = np.std(_direct_values(povm, samples, seed), ddof=1) / math.sqrt(samples)
    scale = 1.0 if family[2] is not None else expected
    assert abs(report.stderr - expected) <= tol * scale


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
        samples=st.integers(100, 8892),
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
        _assert_stderr_is_two_pass_spread(povm_for, family, tol, 20_000, seed=5)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.integers(100, 8892))
    @pytest.mark.parametrize(
        "family,tol", [((2, 3, 2), 1e-15), ((3, 2, None), 1e-9)], ids=["2-3-restricted", "3-2"]
    )
    def test_monte_carlo_stderr_matches_two_pass_spread_at_any_count(
        self, povm_for, family, tol, seed, samples
    ):
        # Every block count, a partial last block included.
        _assert_stderr_is_two_pass_spread(povm_for, family, tol, samples, seed)

    @pytest.mark.parametrize("samples", [100, 256, 257, 5596, 8892])
    @pytest.mark.parametrize("family", ORACLE_FAMILIES + [(3, 4, None)], ids=str)
    def test_chunked_kernel_equals_whole_block_oracle(self, povm_for, family, samples):
        # Same draws, same per-row arithmetic, same block sums: equal bits.
        povm = _oracle_family(povm_for, *family)
        report = mean_fidelity_mc(povm, samples, seed=23)
        assert report.value == mean_fidelity_mc_whole_block(povm, samples, 23, _MC_BLOCK)

    def test_monte_carlo_working_set_is_bounded(self, povm_for):
        # 20,000 states on (3,4), d_{N+1} = 21: evaluating 4096 of
        # them at once holds about 4 MB of arrays.
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
    @pytest.mark.parametrize("d,n", [*ACCEPTANCE_PAIRS, (3, 4), (4, 2), (3, 8), (2, 40)])
    def test_exact_average_hits_optimum(self, povm_for, d, n):
        povm = povm_for(d, n)
        report = mean_fidelity_exact(povm)
        assert report.method == "analytic"
        assert report.stderr == 0.0
        assert abs(report.value - float(optimal_fidelity(n, d))) < 1e-12
        assert report.value == mean_fidelity_exact_fraction(povm)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 4),
        n=st.integers(1, 4),
        weights=st.lists(st.one_of(weight_values, SUBNORMAL_WEIGHTS), min_size=1, max_size=60),
    )
    def test_exact_sum_equals_fraction_oracle(self, d, n, weights):
        # Bit for bit: both round the same exact rational once.  Weights
        # from 1e-300 down to the smallest subnormal stretch the common
        # denominator to 2^1074.
        guesses = np.zeros((len(weights), d), dtype=np.complex128)
        guesses[:, 0] = 1.0
        povm = Povm(d=d, N=n, weights=weights, guesses=guesses)
        assert mean_fidelity_exact(povm).value == mean_fidelity_exact_fraction(povm)

    def test_exact_sum_keeps_what_float_addition_drops(self):
        # Each 2^-54 is half an ulp of 0.75, so float addition drops all
        # four; exactly they add 2^-52, and (2/3)(0.75 + 2^-52) rounds to
        # 0.5 + 2^-53.  The smallest subnormal changes nothing.
        weights = [0.75, *[2.0**-54] * 4, 5e-324]
        guesses = np.zeros((len(weights), 2), dtype=np.complex128)
        guesses[:, 0] = 1.0
        povm = Povm(d=2, N=1, weights=weights, guesses=guesses)
        assert sum(weights) == 0.75
        assert mean_fidelity_exact(povm).value == 0.5 + 2.0**-53
        assert mean_fidelity_exact_fraction(povm) == 0.5 + 2.0**-53

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
}


class TestSeedValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda povm, seed: haar_random_states(2, 3, seed),
            lambda povm, seed: haar_random_unitary(2, seed),
            *SEEDED_ENTRY_POINTS.values(),
        ],
        ids=["haar_random_states", "haar_random_unitary", *SEEDED_ENTRY_POINTS],
    )
    def test_numpy_generator_is_refused(self, povm_for, call):
        # Every draw comes from random.Random: a numpy Generator is not a
        # seed, and no stream is silently built from it.
        generator = np.random.default_rng(0)
        with pytest.raises(InputFormatError, match="seed"):
            call(povm_for(2, 1), generator)

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
        # The exact value, and the protocol simulated by the oracle within 4 sigma of it.
        assert float(majority_vote_fidelity(n)) == analytic
        vals = majority_vote_values(n, 40_000, 400 + n)
        assert abs(vals.mean() - analytic) < 4 * vals.std(ddof=1) / math.sqrt(vals.size)

    def test_single_copy_matches_optimum(self):
        # With one copy the majority vote *is* the optimal basis
        # strategy on average.
        assert majority_vote_fidelity(1) == optimal_fidelity(1, 2) == Fraction(2, 3)

    def test_rejects_no_copies(self):
        with pytest.raises(InputFormatError, match="need N >= 1, got 0"):
            majority_vote_fidelity(0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strictly_below_joint_optimum(self, n):
        assert majority_vote_fidelity(n) < optimal_fidelity(n, 2)

    def test_below_joint_optimum_for_every_n_from_two(self):
        for n in range(2, 301):
            assert majority_vote_fidelity(n) < optimal_fidelity(n, 2), n

    def test_equals_the_beta_sum_oracle(self):
        for n in range(1, 301):
            assert majority_vote_fidelity(n) == majority_vote_beta_sum(n), n

    @pytest.mark.parametrize(
        "n,expected",
        [(1, Fraction(2, 3)), (2, Fraction(2, 3)), (3, Fraction(7, 10)), (4, Fraction(7, 10)),
         (5, Fraction(5, 7))],
    )
    def test_first_values(self, n, expected):
        value = majority_vote_fidelity(n)
        assert type(value) is Fraction and value == expected

    def test_huge_copy_number_is_immediate(self):
        m = (10**18 + 1) // 2
        start = time.perf_counter()
        value = majority_vote_fidelity(10**18)
        assert time.perf_counter() - start < 0.1
        assert value == Fraction(3 * m + 1, 2 * (2 * m + 1))
