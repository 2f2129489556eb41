"""Exact binomial draws from a random.Random stream.

binomial(stream, n, p) is the algorithm of CPython 3.12's
random.binomialvariate, ported because the package supports Python
3.10: the geometric method of Devroye (1988, doi:10.1145/42372.42381)
when n p < 10, and otherwise the transformed rejection with squeeze,
BTRS, of Hormann ("The generation of binomial random variates",
J. Statist. Comput. Simul. 46, 1993).  Either takes O(1) expected
uniforms, read through symmetric._uniform, whatever n is.
estimation.sample_outcomes chains one draw per outcome into multinomial
shot counts, and is the only caller.
"""

from __future__ import annotations

import math
import random

from .symmetric import _uniform


def binomial(stream: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, 0 <= p <= 1, from the stream's uniforms.

    random.binomialvariate of CPython 3.12 on uniforms u in (0, 1]: a
    single trial succeeds when u <= p.  Where the original takes the
    log of 0 or divides by 0 with probability 2^-53, every step here
    stays finite: the geometric gaps are log u / log1p(-p), compared
    with the trials left before they are rounded down, so a gap too
    large for an int ends the count, and BTRS rejects u = 1, whose
    |u - 1/2| is 1/2.  log1p(-p) also keeps a small p's precision,
    which log2(1 - p) loses.  So that draws stay exact up to n = 2^63,
    BTRS offsets its candidates from the exact integer part of n p, and
    its acceptance test uses _log_binomial_ratio in place of four lgamma
    values: the original's draws are 18% too wide at n = 1e15 and three
    times too wide at 1e18.
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return int(_uniform(stream) <= p)
    if p > 0.5:
        return n - binomial(stream, n, 1.0 - p)
    if n * p < 10.0:
        # Devroye's geometric method: successes are the trials at which
        # the running sum of Geometric(p) gaps stays within n.
        log_q = math.log1p(-p)
        successes = trials = 0
        while True:
            gap = math.log(_uniform(stream)) / log_q
            if gap >= n - trials:
                return successes
            trials += math.floor(gap) + 1
            successes += 1
    # Hormann's BTRS.  The acceptance test compares log(v) with the log
    # of the rescaled pmf; the paper omits the log, as CPython notes.
    # n p = whole + rest / den exactly, so k and the mode are exact
    # integers for every n, where the float n p rounds above 2**53.
    num, den = p.as_integer_ratio()
    whole, rest = divmod(n * num, den)
    mode = (n + 1) * num // den
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = rest / den + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    while True:
        u = _uniform(stream) - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = whole + math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = _uniform(stream)
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= _log_binomial_ratio(n, k, mode, lpq):
            return k


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(x: int) -> float:
    """lgamma(x + 1) - ((x + 1/2) log(x + 1) - (x + 1) + log(2 pi) / 2).

    Below 100 from lgamma itself, from there on from the Stirling series
    1/(12 z) - 1/(360 z^3) + 1/(1260 z^5), z = x + 1, whose next term is
    below 1e-17.
    """
    if x < 100:
        return math.lgamma(x + 1) - (x + 0.5) * math.log(x + 1) + (x + 1) - _HALF_LOG_2PI
    z = 1.0 / (x + 1)
    z2 = z * z
    return z * (1.0 / 12.0 - z2 * (1.0 / 360.0 - z2 / 1260.0))


def _log_binomial_ratio(n: int, k: int, m: int, lpq: float) -> float:
    """log(f(k) / f(m)) for the Binomial(n, p) pmf f, lpq = log(p / (1 - p)).

    The direct form lgamma(m+1) + lgamma(n-m+1) - lgamma(k+1) -
    lgamma(n-k+1) + (k-m) lpq subtracts values near 1e20 at n = 2^63,
    whose rounding alone is ~1e4.  Writing lgamma(x + 1) as its Stirling
    form plus _stirling_tail(x) turns each difference into log1p terms
    of the gap k - m, which keep their precision at every n.
    """
    return (
        (m + 0.5) * math.log1p((m - k) / (k + 1))
        + (n - m + 0.5) * math.log1p((k - m) / (n - k + 1))
        + (m - k) * (math.log((k + 1) / (n - k + 1)) - lpq)
        + _stirling_tail(m) - _stirling_tail(k) + _stirling_tail(n - m) - _stirling_tail(n - k)
    )
