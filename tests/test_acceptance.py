"""Acceptance gate: every criterion at its stated tolerance.

Each test records one [PASS]/[FAIL] line (printed in the terminal
summary) and then asserts.  Monte Carlo checks use frozen seeds with
statistical tolerances derived from their own standard errors.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np

from povmquad import (
    Povm,
    PureState,
    build_povm,
    check_completeness,
    check_universality,
    clone,
    haar_random_state,
    haar_random_states,
    majority_vote_fidelity,
    mean_fidelity_exact,
    mean_fidelity_mc,
    moment_value,
    optimal_fidelity,
    outcome_probs,
    pointwise_fidelity,
    restrict_povm,
    single_particle_fidelity,
    sym_dim,
    sym_embed,
    sym_embed_batch,
    two_step_estimate,
)

from _oracles import (
    ACCEPTANCE_PAIRS,
    clone_dense,
    gram_residual_states,
    haar_random_unitary,
    lift_to_full_space,
    majority_vote_values,
    moment_tensor_mc,
    moment_tensor_numeric,
    projector_bruteforce,
    record,
    sym_basis_bruteforce,
    tensor_power,
    truncate_lattice,
    two_step_dense,
)


@contextmanager
def criterion(name):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        record(name, False, info["detail"] or "raised before completion")
        raise
    record(name, True, info["detail"])


def test_criterion_1_mean_fidelity_reaches_optimum(povm_for):
    with criterion("criterion 1: mean fidelity equals (N+1)/(N+d)") as info:
        start = time.perf_counter()
        worst_exact = 0.0
        worst_sigma = 0.0
        for d, n in ACCEPTANCE_PAIRS:
            povm = build_povm(d, n)  # built fresh: this criterion is timed
            target = Fraction(n + 1, n + d)
            assert optimal_fidelity(n, d) == target
            exact = mean_fidelity_exact(povm)
            gap = abs(exact.value - float(target))
            worst_exact = max(worst_exact, gap)
            assert gap < 1e-12, f"(d={d}, N={n}) analytic gap {gap:.3e}"
            mc = mean_fidelity_mc(povm, samples=20_000, seed=91_000 + 10 * d + n)
            sigmas = abs(mc.value - exact.value) / mc.stderr
            worst_sigma = max(worst_sigma, sigmas)
            assert sigmas < 3.0, f"(d={d}, N={n}) Monte Carlo off by {sigmas:.2f} sigma"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"six-pair build and check took {elapsed:.1f} s"
        info["detail"] = (
            f"worst analytic gap {worst_exact:.2e}, worst MC pull "
            f"{worst_sigma:.2f} sigma, {elapsed:.1f} s"
        )


def test_criterion_2_grid_exactness_with_negative_control(rule_for):
    from povmquad import verify_exactness

    with criterion("criterion 2: degree-2N exactness, truncated-grid control") as info:
        worst = 0.0
        worst_control = math.inf
        for d, n in ACCEPTANCE_PAIRS:
            rule = rule_for(d, n)
            residual = verify_exactness(rule, n)
            worst = max(worst, residual)
            assert residual <= 1e-10, f"(d={d}, N={n}) residual {residual:.3e}"
            states, weights = truncate_lattice(rule)
            broken = gram_residual_states(states, weights, n, sym_embed_batch)
            worst_control = min(worst_control, broken)
            assert broken > 1e-3, f"(d={d}, N={n}) control residual {broken:.3e}"
        info["detail"] = (
            f"worst residual {worst:.2e}, weakest control {worst_control:.2e}"
        )


def test_criterion_3_completeness_and_weights(povm_for):
    with criterion("criterion 3: completeness, weight sum, positivity") as info:
        worst_comp = 0.0
        worst_sum = 0.0
        for d, n in ACCEPTANCE_PAIRS:
            povm = povm_for(d, n)
            comp = check_completeness(povm)
            gap = abs(math.fsum(povm.weights) - 1.0)
            worst_comp = max(worst_comp, comp)
            worst_sum = max(worst_sum, gap)
            assert comp <= 1e-10, f"(d={d}, N={n}) completeness {comp:.3e}"
            assert gap <= 1e-12, f"(d={d}, N={n}) weight sum off by {gap:.3e}"
            assert np.all(povm.weights > 0.0), f"(d={d}, N={n}) non-positive weight"
        info["detail"] = (
            f"worst completeness {worst_comp:.2e}, worst weight sum gap {worst_sum:.2e}"
        )


def test_criterion_4_universal_estimators_are_pointwise_constant(povm_for):
    with criterion("criterion 4: level-(N+1) grids give constant pointwise fidelity") as info:
        worst_residual = 0.0
        worst_var = 0.0
        worst_dev = 0.0
        for n, d in [(1, 2), (2, 2), (1, 3)]:
            parent = povm_for(d, n + 1)
            estimator = restrict_povm(parent, n)
            residual = check_universality(estimator)
            worst_residual = max(worst_residual, residual)
            assert residual <= 1e-10, f"(N={n}, d={d}) universality {residual:.3e}"
            target = float(optimal_fidelity(n, d))
            states = haar_random_states(d, 100, 7_000 + 10 * d + n)
            values = np.array(
                [pointwise_fidelity(estimator, PureState(amps)) for amps in states]
            )
            var = float(np.var(values))
            dev = float(np.max(np.abs(values - target)))
            worst_var = max(worst_var, var)
            worst_dev = max(worst_dev, dev)
            assert var <= 1e-20, f"(N={n}, d={d}) variance {var:.3e}"
            assert dev <= 1e-8, f"(N={n}, d={d}) deviation {dev:.3e}"
        info["detail"] = (
            f"worst universality {worst_residual:.2e}, pointwise variance "
            f"{worst_var:.1e}, deviation {worst_dev:.1e}"
        )


def test_criterion_5_majority_vote_baseline_is_suboptimal():
    with criterion("criterion 5: majority-vote baseline falls short for N >= 2") as info:
        gaps = []
        for n, expected_gap in ((2, Fraction(1, 12)), (3, Fraction(1, 10)), (4, Fraction(2, 15))):
            baseline = majority_vote_fidelity(n)
            gap = optimal_fidelity(n, 2) - baseline
            gaps.append(f"N={n}: {gap}")
            assert gap == expected_gap, f"N={n} gap {gap}, expected {expected_gap}"
            # The protocol itself, simulated by the oracle, lands on the value.
            vals = majority_vote_values(n, 20_000, 5_500 + n)
            stderr = vals.std(ddof=1) / math.sqrt(vals.size)
            pull = abs(vals.mean() - float(baseline)) / stderr
            assert pull < 4, f"N={n} simulated vote {vals.mean():.4f} is {pull:.1f} sigma off {baseline}"
        info["detail"] = "optimum minus baseline " + ", ".join(gaps)


def test_criterion_6_cloner_and_two_step_chain(povm_for):
    with criterion("criterion 6: cloner figures and clone-then-estimate") as info:
        for seed in (1, 2, 3, 4):
            state = haar_random_state(2, seed)
            out = clone(state, 1, 2)
            gap = abs(single_particle_fidelity(out, state) - 5.0 / 6.0)
            assert gap <= 1e-10, f"one-to-two clone fidelity off by {gap:.3e}"

        worst_oracle = 0.0
        for d, n, m in [(2, 1, 2), (2, 1, 3), (3, 1, 2)]:
            state = haar_random_state(d, 60 + m)
            sigma = clone(state, n, m).density
            lifted = lift_to_full_space(sigma, d, m)
            gap = float(np.max(np.abs(lifted - clone_dense(state.amplitudes, n, m))))
            worst_oracle = max(worst_oracle, gap)
            assert gap <= 1e-10, f"(d={d}, M={m}) dense-oracle gap {gap:.3e}"
            proj = projector_bruteforce(d, m)
            support = float(np.max(np.abs(proj @ lifted @ proj - lifted)))
            assert support <= 1e-10, f"(d={d}, M={m}) support leak {support:.3e}"
            for density in (lifted, sigma):
                assert abs(np.trace(density).real - 1.0) <= 1e-10
                assert np.linalg.eigvalsh(density)[0] >= -1e-10

        worst_two_step = 0.0
        for d, n, m in [(2, 1, 2), (2, 1, 3), (3, 1, 2)]:
            povm_m = povm_for(d, m)
            target = float(optimal_fidelity(n, d))
            states = haar_random_states(d, 50, 8_800 + 10 * d + m)
            for amps in states:
                state = PureState(amps)
                value = two_step_estimate(clone(state, n, m), state, povm_m)
                worst_two_step = max(worst_two_step, abs(value - target))
                gap = abs(value - two_step_dense(amps, n, povm_m))
                worst_oracle = max(worst_oracle, gap)
                assert gap <= 1e-10, f"(d={d}, M={m}) two-step dense-oracle gap {gap:.3e}"
        assert worst_two_step <= 1e-8, f"two-step deviation {worst_two_step:.3e}"
        info["detail"] = (
            f"1->2 qubit fidelity 5/6, two-step deviation {worst_two_step:.1e} "
            f"over 150 states, dense-oracle gap {worst_oracle:.1e}"
        )


def test_criterion_7_moment_table_against_independent_integration():
    with criterion("criterion 7: exact moments vs dense and Monte Carlo integrals") as info:
        worst_numeric = 0.0
        worst_pull = 0.0
        for d in (2, 3):
            for length in (1, 2, 3):
                numeric = moment_tensor_numeric(d, length)
                mc_mean, err_re, err_im = moment_tensor_mc(
                    d, length, samples=1_000_000, seed=40_000 + 100 * d + length
                )
                for fi, i in enumerate(product(range(1, d + 1), repeat=length)):
                    for fj, j in enumerate(product(range(1, d + 1), repeat=length)):
                        exact = float(moment_value(d, i, j))
                        gap = abs(numeric[fi, fj] - exact)
                        worst_numeric = max(worst_numeric, gap)
                        assert gap <= 1e-6, f"d={d} {i}|{j}: numeric gap {gap:.2e}"
                        pull_re = abs(mc_mean[fi, fj].real - exact) / (
                            err_re[fi, fj] + 1e-12
                        )
                        pull_im = abs(mc_mean[fi, fj].imag) / (err_im[fi, fj] + 1e-12)
                        worst_pull = max(worst_pull, pull_re, pull_im)
                        assert pull_re <= 4.0 and pull_im <= 4.0, (
                            f"d={d} {i}|{j}: Monte Carlo pull "
                            f"{max(pull_re, pull_im):.2f} sigma"
                        )
        info["detail"] = (
            f"worst dense-integration gap {worst_numeric:.1e}, worst MC pull "
            f"{worst_pull:.2f} sigma over 903 moment pairs"
        )


def test_criterion_8_structural_properties(povm_for):
    with criterion("criterion 8: sampled Gram identity, covariance, embeddings") as info:
        # (a) The Haar average of embedded projectors is I/d_N.
        d, n = 2, 2
        states = haar_random_states(d, 20_000, 31_337)
        emb = sym_embed_batch(states, n)
        gram = emb.T @ emb.conj() / states.shape[0]
        dim = sym_dim(d, n)
        gram[np.diag_indices(dim)] -= 1.0 / dim
        sampled_dev = float(np.max(np.abs(gram)))
        assert sampled_dev < 0.02, f"sampled Gram deviation {sampled_dev:.3f}"

        # (b) Outcome probabilities are unitarily covariant.
        worst_cov = 0.0
        for d, n in [(2, 2), (3, 1)]:
            povm = povm_for(d, n)
            u = haar_random_unitary(d, 600 + d)
            rotated = Povm(
                d=d, N=n, weights=povm.weights, guesses=povm.guesses @ u.T
            )
            for seed in range(5):
                state = haar_random_state(d, 700 + seed)
                moved = PureState(u @ state.amplitudes)
                dev = float(
                    np.max(np.abs(outcome_probs(povm, state) - outcome_probs(rotated, moved)))
                )
                worst_cov = max(worst_cov, dev)
        assert worst_cov <= 1e-10, f"covariance deviation {worst_cov:.3e}"

        # (c) Occupation-coordinate embedding agrees with brute-force
        # full-space coordinates for every d <= 3, N <= 4.
        worst_emb = 0.0
        for d in (2, 3):
            for n in (1, 2, 3, 4):
                basis = sym_basis_bruteforce(d, n)
                for amps in haar_random_states(d, 5, 900 + 10 * d + n):
                    expected = basis.conj() @ tensor_power(amps, n)
                    got = sym_embed(PureState(amps), n)
                    worst_emb = max(worst_emb, float(np.max(np.abs(got - expected))))
        assert worst_emb <= 1e-10, f"embedding deviation {worst_emb:.3e}"
        info["detail"] = (
            f"sampled Gram {sampled_dev:.3f}, covariance {worst_cov:.1e}, "
            f"embedding {worst_emb:.1e}"
        )
