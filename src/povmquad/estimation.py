"""Estimation statistics and fidelity benchmarks for optimal POVMs.

For input rho = |phi><phi| measured with E_a = d_N w_a rho_a^{tensor N},
the outcome probabilities are p_a = d_N w_a |<phi_a|phi>|^{2N} and the
mean estimation fidelity obeys the closed forms

    F(phi) = d_N u^dagger G_{N+1} u                        (pointwise)
    F_mean = (N+1) / (N+d) sum_a w_a                       (state average)
    F_optimal(N, d) = (N+1) / (N+d)                        (optimum)

with u the (N+1)-copy embedding of phi and G_{N+1} the family's frame
operator (symmetric.frame_operator); the optimum is kept as the reduced
integer pair ((N+1)/g, (N+d)/g), g = gcd(N+1, d-1), which the CLI prints
as p/q and optimal_fidelity turns into a Fraction.  Expanded, F(phi) is
d_N sum_a w_a |<phi_a|phi>|^{2(N+1)}.  G_{N+1} is formed once per call,
so the per-state cost does not grow with the outcome count A.  An
optimal POVM with unit weight sum meets the optimum exactly.  The Monte
Carlo estimator checks those closed forms from the operational side.
The per-copy majority-vote baseline on qubits, the deliberately
suboptimal strategy the optimum is compared with, is kept as its exact
value (majority_vote_fidelity).

mean_fidelity_mc draws its states _MC_BLOCK rows (or fewer) at a time,
each block after the one before from one random.Random(seed) stream,
and merges each block's sum, mean and squared deviations into the
running statistics.  A draw of n rows is the first n of any longer
draw, so the block size fixes only the order in which sums are added,
and the working set is a few block-sized arrays and one block's
uniforms whatever the sample count.  _MC_BLOCK is 256 rows: at 1024
the arrays set the peak of fidelity on (3,4) about 0.5 MB higher, and
smaller blocks pay the fixed cost of the dozen numpy calls per block
more often, which the small families feel first.

Shot counts are a chain of conditional binomials, count_a ~
Binomial(shots - count_1 - ... - count_{a-1}, p_a / (p_a + ... + p_A)),
each drawn exactly in O(1) expected uniforms by sampling.binomial, so
a draw costs O(A) whatever the shot count.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from ._numpy import np
from .errors import BUILD_GUARD_ENV, _charge_dim, check_cost, check_int, sym_dim
from .povm import Povm
from .symmetric import (
    PureState,
    _check_family,
    _Record,
    _squared_overlaps,
    frame_operator,
    haar_random_states,
    sym_embed_batch,
)

if TYPE_CHECKING:
    from fractions import Fraction

MC_MIN_SAMPLES = 100
# Counts are int64, as numpy's were.
MAX_SHOTS = 2**63 - 1
_MC_BLOCK = 256
# A sample's draw and embedding, in entries of its G_{N+1} product:
# about 0.5 us against about 0.5 ns per entry on one core.
_MC_SAMPLE_OVERHEAD = 1024
# Samples per charged unit: the smallest power of two at which the
# default build guard admits 20,000 samples on every family whose
# G_{N+1} it admits; (44,1), with d_2 = 990, is the tightest.
_MC_SAMPLES_PER_CHARGE = 512


class FidelityReport(_Record):
    """A fidelity value with its statistical and provenance context.

    stderr is 0 for analytic methods; samples/seed are None unless the
    value came from Monte Carlo.  Reports compare and hash field by field.
    """

    _fields = ("value", "stderr", "method", "samples", "seed")

    def __init__(
        self,
        value: float,
        stderr: float,
        method: str,
        samples: int | None = None,
        seed: int | None = None,
    ):
        for name, arg in zip(self._fields, (value, stderr, method, samples, seed)):
            object.__setattr__(self, name, arg)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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


def check_samples(samples: int) -> int:
    """samples as a plain int; refused unless an integer >= MC_MIN_SAMPLES."""
    return check_int("samples", samples, MC_MIN_SAMPLES)


def check_sample_cost(samples: int, families: list[tuple[int, int]]) -> None:
    """Charge units * (d_{N+1}^2 + _MC_SAMPLE_OVERHEAD), summed over the (d, N) families.

    units = ceil(samples / _MC_SAMPLES_PER_CHARGE).  mean_fidelity_mc
    spends about 0.5 ns per entry of its product with G_{N+1} (d_{N+1}^2
    entries per sample) and about _MC_SAMPLE_OVERHEAD entries' worth per
    sample on its draw and embedding.  A build's charge bounds work
    whose memory grows with it; the kernel's memory is flat in the
    sample count, so only its time is bounded, and the charge counts
    units of samples, not samples.  At the default guard the largest
    admitted sample count runs for about 10-20 s on one core.  Each
    family's units*d_{N+1}^2, at most the sum, is charged first through
    _charge_dim, so d_{N+1} is formed only for sizes the guard can
    admit.  Raises InputFormatError unless check_samples passes samples
    and every d >= 2 and N >= 1.
    """
    samples = check_samples(samples)
    families = [_check_family(d, n) for d, n in families]
    units = -(-samples // _MC_SAMPLES_PER_CHARGE)
    dims = [
        _charge_dim("Monte Carlo cost units*d_k^2", units, d, n + 1, 2, samples=samples)
        for d, n in families
    ]
    cost = units * sum(dim * dim + _MC_SAMPLE_OVERHEAD for dim in dims)
    # The sum over the families; 1024 is _MC_SAMPLE_OVERHEAD.
    check_cost("Monte Carlo cost units*(d_(N+1)^2+1024)", cost, BUILD_GUARD_ENV, samples=samples)


def check_sweep_floor(samples: int, families: int) -> None:
    """Charge check_sample_cost's sum over `families` families at its least, d_(N+1) = 3.

    Every d_(N+1) is at least 3 (d >= 2, N >= 1), so this lower bound
    never refuses what check_sample_cost admits.  It needs only the
    family count, so a sweep too large for the guard is refused before
    its families are listed.
    """
    units = -(-check_samples(samples) // _MC_SAMPLES_PER_CHARGE)
    cost = families * units * (3**2 + _MC_SAMPLE_OVERHEAD)
    check_cost("Monte Carlo cost units*(d_(N+1)^2+1024) lower bound", cost, BUILD_GUARD_ENV, samples=samples)


def check_shots(shots: int) -> int:
    """shots as a plain int; refused unless an integer in [1, MAX_SHOTS]."""
    return check_int("shots", shots, 1, MAX_SHOTS)


def outcome_probs(povm: Povm, state: PureState) -> np.ndarray:
    """Born probabilities p_a = d_N w_a |<phi_a|phi>|^{2N}, shape (A,).

    d_N is formed through _charge_dim at the family's level-N frame
    operator cost A*d_N^2, the charge load_povm's completeness check
    makes, so every family a file can hold has its probabilities, and a
    d_N too huge to admit is refused before it is formed.
    """
    check_int("state dimension", state.d, povm.d, povm.d)
    d_n = _charge_dim("outcome probability cost A*d_k^2", povm.n_outcomes, povm.d, povm.N, 2)
    return d_n * povm.weights * _squared_overlaps(povm.guesses, state) ** povm.N


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

    shots = check_shots(shots)
    stream = random.Random(check_int("seed", seed, 0))
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
    # The out-of-place ((u.conj() @ frame) * u) raised the peak of
    # fidelity on (3,4) by 0.1-0.2 MB (29.61 -> 29.71 MB, 29.60 -> 29.80 MB).
    np.conjugate(u, out=u)
    prod = u @ frame
    np.conjugate(u, out=u)
    prod *= u
    return sym_dim(povm.d, povm.N) * prod.sum(axis=1).real


def pointwise_fidelity(povm: Povm, state: PureState) -> float:
    """Mean fidelity of the estimate for one specific input state."""
    check_int("state dimension", state.d, povm.d, povm.d)
    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    return float(_pointwise_batch(povm, frame, state.amplitudes[None, :])[0])


def mean_fidelity_exact(povm: Povm) -> FidelityReport:
    """State-averaged fidelity (d_N/d_{N+1}) sum_a w_a = (N+1)/(N+d) sum_a w_a.

    The weight sum is exact: each stored double is num / 2^k, every
    numerator is shifted onto the largest denominator 2^K and summed as
    an integer, and the one division p * sum / (q * 2^K), p/q = (N+1)/(N+d)
    in lowest terms, rounds the exact rational once (CPython's int / int
    is correctly rounded), so no d_N is formed.
    So the only deviation from (N+1)/(N+d) for a built POVM is the
    normalisation rounding of the weights themselves (well below 1e-12).
    """
    ratios = [w.as_integer_ratio() for w in povm.weights.tolist()]
    top = max(den for _, den in ratios).bit_length()
    total = sum(num << (top - den.bit_length()) for num, den in ratios)
    p, q = _optimal_ratio(povm.N, povm.d)
    value = p * total / (q << (top - 1))
    return FidelityReport(value=value, stderr=0.0, method="analytic")


def mean_fidelity_mc(povm: Povm, samples: int, seed: int) -> FidelityReport:
    """Monte Carlo average of the pointwise fidelity over Haar states.

    Deterministic for fixed seed, drawn as the module docstring
    describes.  The mean is the block-order sum of the block sums over
    samples.  The standard error combines each block's mean and sum of
    squared deviations by the pairwise update of Chan, Golub & LeVeque,
    so a constant integrand (a universal estimator) reports the spread
    of its rounding, not a cancellation residue.
    G_{N+1} is formed once per call; refused when its cost A*d_{N+1}^2
    exceeds the build guard.  Raises InputFormatError, before any work,
    unless seed is a non-negative integer.
    """
    samples = check_samples(samples)
    seed = check_int("seed", seed, 0)
    stream = random.Random(seed)
    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    total = 0.0
    mean = 0.0
    m2 = 0.0
    for done in range(0, samples, _MC_BLOCK):
        count = min(_MC_BLOCK, samples - done)
        # No local: a block's states are freed before the next draw.
        vals = _pointwise_batch(povm, frame, haar_random_states(povm.d, count, stream))
        block_sum = float(vals.sum())
        total += block_sum
        block_mean = block_sum / count
        delta = block_mean - mean
        merged = done + count
        mean += delta * count / merged
        m2 += float(((vals - block_mean) ** 2).sum()) + delta * delta * done * count / merged
    return FidelityReport(
        value=total / samples,
        stderr=math.sqrt(m2 / (samples - 1) / samples),
        method="monte-carlo",
        samples=samples,
        seed=seed,
    )


def majority_vote_fidelity(N: int) -> Fraction:
    """Mean fidelity of the per-copy majority vote on qubits, exact.

    Each of the N copies is measured separately in the computational
    basis, and the guess is the basis state that won the vote, a fair
    coin breaking a tie.  For a Haar state p_0 = |c_0|^2 is uniform on
    [0, 1], so Beta integrals over the vote counts sum to
    (3m+1) / (2(2m+1)) with m = ceil(N/2): 2/3 at N = 1, the optimum
    (N+1)/(N+2), and strictly below it for every N >= 2.
    """
    from fractions import Fraction

    m = (check_int("N", N, 1) + 1) // 2
    return Fraction(3 * m + 1, 2 * (2 * m + 1))
