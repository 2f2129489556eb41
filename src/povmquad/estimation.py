"""Estimation statistics and fidelity benchmarks for optimal POVMs.

For input rho = |phi><phi| measured with E_a = d_N w_a rho_a^{tensor N},
the outcome probabilities are p_a = d_N w_a |<phi_a|phi>|^{2N} and the
mean estimation fidelity obeys the closed forms

    F(phi) = d_N u^dagger G_{N+1} u                        (pointwise)
    F_mean = (d_N / d_{N+1}) sum_a w_a                     (state average)
    F_optimal(N, d) = (N+1) / (N+d)                        (optimum)

with u the (N+1)-copy embedding of phi and G_{N+1} the family's frame
operator (symmetric.frame_operator); the optimum is kept as the reduced
integer pair ((N+1)/g, (N+d)/g), g = gcd(N+1, d-1), which the CLI prints
as p/q and optimal_fidelity turns into a Fraction.  Expanded, F(phi) is
d_N sum_a w_a |<phi_a|phi>|^{2(N+1)}.  G_{N+1} is formed once per call,
so the per-state cost does not grow with the outcome count A.  An
optimal POVM with unit weight sum meets the optimum exactly.  The Monte
Carlo estimator and the deliberately suboptimal per-copy baseline exist
to check those closed forms from the operational side.

The Monte Carlo kernel takes its states in blocks of _MC_BLOCK for the
statistics and draws and evaluates them _MC_CHUNK rows at a time, one
draw after another from one random.Random(seed) stream.  A draw of n
states is the first n of any longer draw, so the values are those of
one draw per block, and the working set is a few _MC_CHUNK x d_{N+1}
arrays and one chunk's uniforms whatever the sample count; a whole
block's getrandbits integer, bytes and uniforms (about 200 KB each at
d = 3) set a fidelity command's peak when drawn at once.  _MC_CHUNK is
256 rows: at 1024 the arrays set the peak of fidelity on (3,4) about
0.5 MB higher, and smaller chunks pay the fixed cost of the dozen numpy
calls per chunk more often, which the small families feel first.

Shot counts are a chain of conditional binomials, count_a ~
Binomial(shots - count_1 - ... - count_{a-1}, p_a / (p_a + ... + p_A)),
each drawn exactly in O(1) expected uniforms by sampling.binomial, so
a draw costs O(A) whatever the shot count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BUILD_GUARD_ENV, InputFormatError, check_cost
from .povm import Povm
from .symmetric import (
    PureState,
    _check_family,
    _check_seed,
    _uniforms,
    frame_operator,
    haar_random_states,
    sym_dim,
    sym_embed_batch,
)

if TYPE_CHECKING:
    from fractions import Fraction

MC_MIN_SAMPLES = 100
# Counts are int64, as numpy's were.
MAX_SHOTS = 2**63 - 1
_MC_BLOCK = 4096
_MC_CHUNK = 256
# A sample's draw and embedding, in entries of its G_{N+1} product:
# about 0.5 us against about 0.5 ns per entry on one core.
_MC_SAMPLE_OVERHEAD = 1024
# Samples per charged unit: the smallest power of two at which the
# default build guard admits 20,000 samples on every family whose
# G_{N+1} it admits; (44,1), with d_2 = 990, is the tightest.
_MC_SAMPLES_PER_CHARGE = 512
_VOTE_UNIFORMS = 1 << 16


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


def _optimal_ratio(N: int, d: int) -> tuple[int, int]:
    """(N+1)/(N+d) in lowest terms, as the pair (numerator, denominator).

    gcd(N+1, N+d) = gcd(N+1, d-1), so the pair is ((N+1)/g, (N+d)/g)
    with g = gcd(N+1, d-1).  The fidelity command prints it as p/q from
    these integers, so it loads neither fractions nor decimal.
    """
    d, N = _check_family(d, N)
    g = math.gcd(N + 1, d - 1)
    return (N + 1) // g, (N + d) // g


def optimal_fidelity(N: int, d: int) -> Fraction:
    """Best achievable mean fidelity (N+1)/(N+d), exact."""
    # Imported here: fractions loads decimal and numbers, which only the
    # moments command and library callers need.
    from fractions import Fraction

    return Fraction(*_optimal_ratio(N, d))


def check_samples(samples: int) -> None:
    """Refuse a Monte Carlo sample count below MC_MIN_SAMPLES."""
    if samples < MC_MIN_SAMPLES:
        raise InputFormatError(f"need samples >= {MC_MIN_SAMPLES}, got {samples}")


def check_sample_cost(samples: int, families: list[tuple[int, int]]) -> None:
    """Charge units * (d_{N+1}^2 + _MC_SAMPLE_OVERHEAD), summed over the (d, N) families.

    units = ceil(samples / _MC_SAMPLES_PER_CHARGE).  mean_fidelity_mc
    spends about 0.5 ns per entry of its product with G_{N+1} (d_{N+1}^2
    entries per sample) and about _MC_SAMPLE_OVERHEAD entries' worth per
    sample on its draw and embedding.  A build's charge bounds work
    whose memory grows with it; the kernel's memory is flat in the
    sample count, so only its time is bounded, and the charge counts
    units of samples, not samples.  At the default guard the largest
    admitted sample count runs for about 10-20 s on one core.  As
    d_{N+1} = C(N+d, d-1) >= N+d, (N+d)^2 stands in for d_{N+1}^2 in a
    first charge, so d_{N+1} is formed only for sizes the guard can
    admit.  Raises InputFormatError unless every d >= 2 and N >= 1.
    """
    families = [_check_family(d, n) for d, n in families]
    units = -(-samples // _MC_SAMPLES_PER_CHARGE)
    which = f"for samples={samples}, (d, N) in {families}"
    check_cost(
        f"Monte Carlo cost lower bound units*((N+d)^2+{_MC_SAMPLE_OVERHEAD}) {which}",
        units * sum((n + d) ** 2 + _MC_SAMPLE_OVERHEAD for d, n in families),
        BUILD_GUARD_ENV,
    )
    check_cost(
        f"Monte Carlo cost units*(d_(N+1)^2+{_MC_SAMPLE_OVERHEAD}) {which}",
        units * sum(sym_dim(d, n + 1) ** 2 + _MC_SAMPLE_OVERHEAD for d, n in families),
        BUILD_GUARD_ENV,
    )


def check_shots(shots: int) -> None:
    """Refuse a measurement shot count below 1 or above MAX_SHOTS."""
    if not 1 <= shots <= MAX_SHOTS:
        raise InputFormatError(f"need 1 <= shots <= {MAX_SHOTS}, got {shots}")


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
    """Multinomial outcome counts for `shots` measurements, shape (A,), int64.

    Outcome a gets a Binomial(shots left, p_a / sum_{b >= a} p_b) draw
    from random.Random(seed), a = 1 .. A-1, and the last outcome the
    rest; the chain stops once no shot is left.  Raises InputFormatError
    unless seed is a non-negative integer.
    """
    # Imported here, not with the module: commands that draw no shot
    # counts then neither compile nor load the sampler.  Compiled at
    # import, it raised a clone command's peak by ~0.07 MB when run
    # without cached bytecode.
    from .sampling import binomial

    check_shots(shots)
    stream = random.Random(_check_seed(seed))
    probs = outcome_probs(povm, state)
    probs = (probs / probs.sum()).tolist()
    # tails[a] = p_a + ... + p_A, summed from the end, so small tails keep
    # their relative precision and tails[a] >= p_a holds in floating point.
    tails = np.cumsum(probs[::-1])[::-1].tolist()
    counts = np.zeros(len(probs), dtype=np.int64)
    left = shots
    for a in range(len(probs) - 1):
        if left == 0:
            break
        k = binomial(stream, left, probs[a] / tails[a])
        counts[a] = k
        left -= k
    counts[-1] = left
    return counts


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

    The weight sum is exact: each stored double is num / 2^k, every
    numerator is shifted onto the largest denominator 2^K and summed as
    an integer, and the one division d_N * sum / (d_{N+1} * 2^K) rounds
    the exact rational once (CPython's int / int is correctly rounded).
    So the only deviation from (N+1)/(N+d) for a built POVM is the
    normalisation rounding of the weights themselves (well below 1e-12).
    """
    ratios = [w.as_integer_ratio() for w in povm.weights.tolist()]
    top = max(den for _, den in ratios).bit_length()
    total = sum(num << (top - den.bit_length()) for num, den in ratios)
    value = sym_dim(povm.d, povm.N) * total / (sym_dim(povm.d, povm.N + 1) << (top - 1))
    return FidelityReport(value=value, stderr=0.0, method="analytic")


def mean_fidelity_mc(povm: Povm, samples: int, seed: int) -> FidelityReport:
    """Monte Carlo average of the pointwise fidelity over Haar states.

    Deterministic for fixed seed: the states of each block of _MC_BLOCK
    are drawn and evaluated _MC_CHUNK rows at a time, one draw after
    another from one random.Random(seed), into one array of the block's
    length.  The value is the block-order sum of the
    block sums over samples.  The standard error combines each block's
    mean and sum of squared deviations by the pairwise update of Chan,
    Golub & LeVeque, so a constant integrand (a universal estimator)
    reports the spread of its rounding, not a cancellation residue.
    G_{N+1} is formed once per call; refused when its cost
    A*d_{N+1}^2 exceeds the build guard.  Raises InputFormatError, before
    any work, unless seed is a non-negative integer.
    """
    check_samples(samples)
    stream = random.Random(_check_seed(seed))
    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK
    total = 0.0
    mean = 0.0
    m2 = 0.0
    done = 0
    for b in range(n_blocks):
        count = min(_MC_BLOCK, samples - done)
        vals = np.empty(count)
        for lo in range(0, count, _MC_CHUNK):
            rows = min(_MC_CHUNK, count - lo)
            states = haar_random_states(povm.d, rows, stream)
            vals[lo : lo + rows] = _pointwise_batch(povm, frame, states)
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
    strictly below the joint-measurement optimum (N+1)/(N+2).

    One random.Random(seed) stream gives the states, then N + 1
    uniforms per state: the copies found in |0> are the first N at or
    below p_0 = |c_0|^2, an exact Binomial(N, p_0), and the last one,
    at or below 1/2, breaks a tie.  The uniforms are drawn for at most
    _VOTE_UNIFORMS of them at a time.  Raises InputFormatError unless
    seed is a non-negative integer.
    """
    if N < 1:
        raise InputFormatError(f"need N >= 1, got N={N}")
    check_samples(samples)
    stream = random.Random(_check_seed(seed))
    p0 = np.abs(haar_random_states(2, samples, stream)[:, 0]) ** 2
    guess_zero = np.empty(samples, dtype=bool)
    step = max(1, _VOTE_UNIFORMS // (N + 1))
    for lo in range(0, samples, step):
        rows = p0[lo : lo + step]
        u = _uniforms(stream, rows.size * (N + 1)).reshape(rows.size, N + 1)
        twice_zeros = 2 * np.count_nonzero(u[:, :N] <= rows[:, None], axis=1)
        guess_zero[lo : lo + step] = (twice_zeros > N) | ((twice_zeros == N) & (u[:, N] <= 0.5))
    vals = np.where(guess_zero, p0, 1.0 - p0)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return FidelityReport(
        value=mean, stderr=stderr, method="majority-vote-mc", samples=samples, seed=seed
    )
