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

The Monte Carlo kernel draws its states in blocks of _MC_BLOCK, one
spawned generator per block, and evaluates each block in chunks of
_MC_CHUNK rows, so its working set is a few _MC_CHUNK x d_{N+1} arrays
whatever the sample count.  _MC_CHUNK is 256 rows: at 1024 those arrays
set a fidelity command's peak about 0.5 MB higher on (3,4), and smaller
chunks pay the fixed cost of the dozen numpy calls per chunk more often,
which the small families feel first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputFormatError
from .povm import Povm
from .symmetric import (
    PureState,
    _check_seed,
    _generator,
    frame_operator,
    haar_random_states,
    sym_dim,
    sym_embed_batch,
)

MC_MIN_SAMPLES = 100
_MC_BLOCK = 4096
_MC_CHUNK = 256


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


def check_samples(samples: int) -> None:
    """Refuse a Monte Carlo sample count below MC_MIN_SAMPLES."""
    if samples < MC_MIN_SAMPLES:
        raise InputFormatError(f"need samples >= {MC_MIN_SAMPLES}, got {samples}")


def check_shots(shots: int) -> None:
    """Refuse a measurement shot count below 1."""
    if shots < 1:
        raise InputFormatError(f"need shots >= 1, got {shots}")


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
    """Multinomial outcome counts for `shots` measurements, shape (A,).

    Raises InputFormatError unless seed is a non-negative integer.
    """
    check_shots(shots)
    rng = _generator(seed)
    probs = outcome_probs(povm, state)
    probs = probs / probs.sum()
    return rng.multinomial(shots, probs)


def _pointwise_batch(povm: Povm, frame: np.ndarray, states: np.ndarray) -> np.ndarray:
    """d_N u^dagger G_{N+1} u for each row's (N+1)-copy embedding u, shape (n,).

    Evaluates ((u* @ G) * u).sum(axis=1) with u conjugated in place and
    back, so only u and one product of its shape are alive at a time.
    """
    u = sym_embed_batch(states, povm.N + 1)
    np.conjugate(u, out=u)
    prod = u @ frame
    np.conjugate(u, out=u)
    prod *= u
    return sym_dim(povm.d, povm.N) * prod.sum(axis=1).real


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

    Deterministic for fixed seed: states are drawn in blocks of
    _MC_BLOCK, each from its own generator spawned from the seed, and
    each block is evaluated in chunks of _MC_CHUNK rows into one array
    of the block's length.  The value is the block-order sum of the
    block sums over samples.  The standard error combines each block's
    mean and sum of squared deviations by the pairwise update of Chan,
    Golub & LeVeque, so a constant integrand (a universal estimator)
    reports the spread of its rounding, not a cancellation residue.
    G_{N+1} is formed once per call; refused when its cost
    A*d_{N+1}^2 exceeds the build guard.  Raises InputFormatError, before
    any work, unless seed is a non-negative integer.
    """
    check_samples(samples)
    root = np.random.SeedSequence(_check_seed(seed))
    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK
    seeds = root.spawn(n_blocks)
    total = 0.0
    mean = 0.0
    m2 = 0.0
    done = 0
    for b in range(n_blocks):
        count = min(_MC_BLOCK, samples - done)
        states = haar_random_states(povm.d, count, np.random.default_rng(seeds[b]))
        vals = np.empty(count)
        for lo in range(0, count, _MC_CHUNK):
            rows = slice(lo, lo + _MC_CHUNK)
            vals[rows] = _pointwise_batch(povm, frame, states[rows])
        block_sum = float(np.sum(vals))
        total += block_sum
        block_mean = block_sum / count
        block_m2 = float(np.sum((vals - block_mean) ** 2))
        delta = block_mean - mean
        merged = done + count
        mean += delta * count / merged
        m2 += block_m2 + delta * delta * done * count / merged
        done = merged
    stderr = math.sqrt(m2 / (samples - 1) / samples)
    return FidelityReport(
        value=total / samples, stderr=stderr, method="monte-carlo", samples=samples, seed=seed
    )


def majority_vote_fidelity_mc(N: int, samples: int, seed: int) -> FidelityReport:
    """Suboptimal baseline: per-copy basis measurements, majority guess.

    d = 2 only.  Each of the N copies is measured separately in the
    computational basis and the guess is the basis state that won the
    vote (ties broken by a fair coin).  For N >= 2 this strategy is
    strictly below the joint-measurement optimum (N+1)/(N+2).  Raises
    InputFormatError unless seed is a non-negative integer.
    """
    if N < 1:
        raise InputFormatError(f"need N >= 1, got N={N}")
    check_samples(samples)
    rng = _generator(seed)
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
