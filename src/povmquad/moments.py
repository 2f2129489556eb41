"""Exact moments of amplitudes under the unitary-invariant state measure.

For a Haar-random pure state with amplitudes c_1, ..., c_d, the average
of c_{i_1} ... c_{i_l} conj(c_{j_1}) ... conj(c_{j_l}) equals

    (d-1)! / (d+l-1)!  *  (number of pairings sigma with i_k = j_{sigma(k)})

and any moment mixing unequal counts of c and conj(c) averages to zero
by phase invariance.  All values are exact rationals.  Summed over an
orthonormal symmetric basis, the l = N case gives the operator identity
mean of rho^{tensor N} = S_N / d_N, which is identity / d_N in
occupation coordinates: the target the quadrature certification
(symmetric.frame_residual) compares the frame operator against.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .errors import check_int

if TYPE_CHECKING:
    from fractions import Fraction


def contraction_count(i: Sequence[int], j: Sequence[int]) -> int:
    """Number of bijections sigma of positions with i_k = j_{sigma(k)}.

    Zero unless i and j are equal as multisets, in which case the count
    is the product of the factorials of the shared multiplicities.
    """
    if len(i) != len(j):
        return 0
    multiplicities = Counter(i)
    if multiplicities != Counter(j):
        return 0
    return math.prod(math.factorial(m) for m in multiplicities.values())


def denominator_digits_floor(d: int, i: Sequence[int], j: Sequence[int]) -> float:
    """A lower bound on the digits of moment_value(d, i, j)'s reduced denominator.

    The count is at most l!, so the reduced denominator of
    count / (d (d+1) ... (d+l-1)) is at least d^l / l!: it has more than
    l*log10(d) - log10(l!) digits.  0 for a moment that vanishes, whose
    denominator is 1.  No big integer is formed, and no entry is checked.
    """
    if not contraction_count(i, j):
        return 0.0
    l = len(i)
    return l * math.log10(d) - math.lgamma(l + 1) / math.log(10)


def moment_value(d: int, i: Sequence[int], j: Sequence[int]) -> Fraction:
    """Exact moment <c_{i_1}..c_{i_l} conj(c_{j_1})..conj(c_{j_l})>.

    d is an integer >= 2 and every index an integer in 1..d.  Unequal
    lengths of i and j are allowed and give exactly zero.
    """
    # Imported here, as in estimation.optimal_fidelity: only the callers
    # that need an exact rational load fractions and decimal.
    from fractions import Fraction

    d = check_int("d", d, 2)
    i = tuple(check_int("i entry", k, 1, d) for k in i)
    j = tuple(check_int("j entry", k, 1, d) for k in j)
    if len(i) != len(j):
        return Fraction(0)
    l = len(i)
    count = contraction_count(i, j)
    if count == 0:
        return Fraction(0)
    # (d-1)!/(d+l-1)! = 1/(d (d+1) ... (d+l-1)): O(l) multiplications, not O(d).
    return Fraction(count, math.prod(range(d, d + l)))
