"""Estimation statistics and fidelity benchmarks for optimal POVMs.

For input rho = |phi><phi| measured with E_a = d_N w_a rho_a^{tensor N},
the outcome probabilities are p_a = d_N w_a |<phi_a|phi>|^{2N} and the
mean estimation fidelity obeys the closed forms

    F(phi) = d_N u^dagger G_{N+1} u                        (pointwise)
    F_mean = (d_N / d_{N+1}) sum_a w_a                     (state average)
    F_optimal(N, d) = (N+1) / (N+d)                        (optimum)

with u the (N+1)-copy embedding of phi and G_{N+1} the family's frame
operator (symmetric.frame_operator); expanded, F(phi) is
d_N sum_a w_a |<phi_a|phi>|^{2(N+1)}.  G_{N+1} is formed once per call,
so the per-state cost does not grow with the outcome count A.  An
optimal POVM with unit weight sum meets the optimum exactly.  The Monte
Carlo estimator and the deliberately suboptimal per-copy baseline exist
to check those closed forms from the operational side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputFormatError
from .povm import Povm
from .symmetric import PureState, frame_operator, haar_random_states, sym_dim, sym_embed_batch

MC_MIN_SAMPLES = 100
_MC_BLOCK = 4096


@dataclass(frozen=True)
class FidelityReport:
    """A fidelity value with its statistical and provenance context.

    stderr is 0 for analytic methods; samples/seed are None unless the
    value came from Monte Carlo.
    """

    value: float
    stderr: float
    method: str
    samples: int | None = None
    seed: int | None = None


def optimal_fidelity(N: int, d: int) -> Fraction:
    """Best achievable mean fidelity (N+1)/(N+d), exact."""
    if d < 2 or N < 1:
        raise InputFormatError(f"need d >= 2 and N >= 1, got d={d}, N={N}")
    return Fraction(N + 1, N + d)


def _check_state(povm: Povm, state: PureState) -> None:
    if state.d != povm.d:
        raise InputFormatError(f"state dimension {state.d} != POVM dimension {povm.d}")


def outcome_probs(povm: Povm, state: PureState) -> np.ndarray:
    """Born probabilities p_a = d_N w_a |<phi_a|phi>|^{2N}, shape (A,)."""
    _check_state(povm, state)
    d_n = sym_dim(povm.d, povm.N)
    overlaps = np.abs(povm.guesses @ state.amplitudes.conj()) ** 2
    return d_n * povm.weights * overlaps**povm.N


def sample_outcomes(povm: Povm, state: PureState, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts for `shots` measurements, shape (A,)."""
    if shots < 1:
        raise InputFormatError(f"need shots >= 1, got {shots}")
    probs = outcome_probs(povm, state)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


def _pointwise_batch(povm: Povm, frame: np.ndarray, states: np.ndarray) -> np.ndarray:
    """d_N u^dagger G_{N+1} u for each row's (N+1)-copy embedding u, shape (n,)."""
    u = sym_embed_batch(states, povm.N + 1)
    return sym_dim(povm.d, povm.N) * ((u.conj() @ frame) * u).sum(axis=1).real


def pointwise_fidelity(povm: Povm, state: PureState) -> float:
    """Mean fidelity of the estimate for one specific input state."""
    _check_state(povm, state)
    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    return float(_pointwise_batch(povm, frame, state.amplitudes[None, :])[0])


def mean_fidelity_exact(povm: Povm) -> FidelityReport:
    """State-averaged fidelity (d_N/d_{N+1}) sum_a w_a.

    The weight sum is accumulated in exact rational arithmetic over the
    stored double-precision weights, so the only deviation from
    (N+1)/(N+d) for a built POVM is the normalisation rounding of the
    weights themselves (well below 1e-12).
    """
    total = Fraction(0)
    for w in povm.weights:
        total += Fraction(float(w))
    ratio = Fraction(sym_dim(povm.d, povm.N), sym_dim(povm.d, povm.N + 1))
    return FidelityReport(value=float(ratio * total), stderr=0.0, method="analytic")


def mean_fidelity_mc(povm: Povm, samples: int, seed: int) -> FidelityReport:
    """Monte Carlo average of the pointwise fidelity over Haar states.

    Deterministic for fixed seed: sampling runs in fixed-size blocks
    with independent generators spawned from the seed, accumulated in
    block order.  G_{N+1} is formed once per call; refused when its
    cost A*d_{N+1}^2 exceeds the build guard.
    """
    if samples < MC_MIN_SAMPLES:
        raise InputFormatError(f"need samples >= {MC_MIN_SAMPLES}, got {samples}")
    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK
    seeds = np.random.SeedSequence(seed).spawn(n_blocks)
    total = 0.0
    total_sq = 0.0
    done = 0
    for b in range(n_blocks):
        count = min(_MC_BLOCK, samples - done)
        states = haar_random_states(povm.d, count, np.random.default_rng(seeds[b]))
        vals = _pointwise_batch(povm, frame, states)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += count
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return FidelityReport(
        value=mean, stderr=stderr, method="monte-carlo", samples=samples, seed=seed
    )


def majority_vote_fidelity_mc(N: int, samples: int, seed: int) -> FidelityReport:
    """Suboptimal baseline: per-copy basis measurements, majority guess.

    d = 2 only.  Each of the N copies is measured separately in the
    computational basis and the guess is the basis state that won the
    vote (ties broken by a fair coin).  For N >= 2 this strategy is
    strictly below the joint-measurement optimum (N+1)/(N+2).
    """
    if N < 1:
        raise InputFormatError(f"need N >= 1, got N={N}")
    if samples < MC_MIN_SAMPLES:
        raise InputFormatError(f"need samples >= {MC_MIN_SAMPLES}, got {samples}")
    rng = np.random.default_rng(seed)
    states = haar_random_states(2, samples, rng)
    p0 = np.abs(states[:, 0]) ** 2
    zeros = rng.binomial(N, p0)
    guess_zero = zeros * 2 > N
    ties = zeros * 2 == N
    if np.any(ties):
        guess_zero = np.where(ties, rng.random(samples) < 0.5, guess_zero)
    vals = np.where(guess_zero, p0, 1.0 - p0)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return FidelityReport(
        value=mean, stderr=stderr, method="majority-vote-mc", samples=samples, seed=seed
    )
