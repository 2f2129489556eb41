"""Exact quadratures for the frame operator of pure states in C^d.

Write a state as c_i = sqrt(x_i) e^{i theta_i}.  Under the uniform
measure, x is uniform on the simplex sum x_i = 1 and the phases are
independent and uniform (Hurwitz).  An entry of the level-N frame
operator sum_a w_a (|phi_a><phi_a|)^{tensor N} is a multiple of the
average of prod_i c_i^{n_i} conj(c_i)^{m_i}, n and m occupation tuples
of N.  It is a phase part e^{i k.theta}, k = n - m, times a moduli part
prod_i x_i^{(n_i+m_i)/2}, and sphere_grid is a product of one rule for
each part:

Phases.  The entry is invariant under a global phase, so theta_d = 0
and only the first d-1 coordinates k' of k matter; k' = 0 iff k = 0.
A rank-1 lattice theta_j = 2 pi t z_j / M, t = 0..M-1, averages
e^{i k.theta} to 1 if k'.z = 0 (mod M) and to 0 otherwise.  The Korobov
generator z = (1, g, g^2, ...) mod M is chosen with k'.z != 0 (mod M)
for every n != m, so every off-diagonal entry sums to exactly 0,
whatever its moduli part, and every diagonal phase part to 1.  The
search tries M = d_N, d_N + 1, ... and, for each, g = 1, 2, ..., in
Python integers.  The rows that share a tail (n_2, ..., n_{d-1}) have
n_1 = 0, 1, ..., so their residues n'.z are consecutive from the
tail's; each tail's residue is formed once per g, the residues taken
are the bits of one Python integer, and g stops at its first repeat.
A g prime to M separates exactly when its inverse does, so the inverse
of a g that fails is not tried.
The phase index t z_j mod M is formed in Python integers too, and the
phase exp(i 2 pi (t z_j mod M) (1/M)) by math.cos and math.sin, bit for
bit what numpy's complex division by M and exp gave.

Moduli.  On the diagonal the moduli part is x^n, of degree N.  In
collapsed (Duffy/Stroud) coordinates x_j = u_j prod_{i<j} (1-u_i),
x_d = prod_{i<d} (1-u_i), the simplex measure is
prod_j (1-u_j)^{d-1-j} du_j and x^n has degree <= N in each u_j.  The
n-node Gauss-Jacobi rule for (1-u)^{d-1-j} on [0, 1] is exact through
degree 2n-1, so n = ceil((N+1)/2) nodes per coordinate suffice.  Its
nodes are the eigenvalues of the Golub-Welsch Jacobi matrix, found by
Sturm-sequence bisection in Python floats (Barth, Martin & Wilkinson
1967) and polished by one Newton step, so building a grid calls no
LAPACK routine.

A = n^{d-1} M, and every weight is positive.  Only phase-invariant
moments are exact: the average of c_d, say, is positive on the grid.

The grid is assembled in Python floats, each operation in the order
numpy's outer products and elementwise loops took, so it equals that
construction bit for bit (tests/_oracles.py keeps it), and building a
grid loads no numpy: the import would be most of the time and memory of
a build whose certificate is small (see symmetric.frame_residual).

An exact grid is already the optimal POVM (see povm), so sphere_grid
returns the Povm record itself, uncertified; povm.build_povm certifies
that same object.  Povm lives here so that this module needs nothing
from povm.  It is a frozen record (symmetric._Record) that compares by
identity.  It is also the one owner of what is derived from its frozen
buffers at level N: the residual max |G_N - I/d_N| that
povm.check_optimality returns and the occupation embedding that the
cloner's two-step check applies, each formed on first access and kept
in the instance __dict__.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Callable
from functools import cached_property, partial
from operator import itemgetter, lt, mul

from ._numpy import np
from .errors import BUILD_GUARD_ENV, ConstructionError, InputFormatError, check_cost, exceeds
from .errors import _charge_dim, _worst, check_int
from .symmetric import NORM_TOL, _check_family, _Record, frame_residual, occupation_basis
from .symmetric import sym_embed_batch

NEWTON_TOL = 1e-14
# Sturm brackets are halved until their width is at most _BRACKET_TOL
# times their larger end (4 ulps), or _BRACKET_FLOOR near 0, where a
# relative width alone would bisect into the subnormals.
_BRACKET_TOL = 2.0**-50
_BRACKET_FLOOR = 2.0**-60
_LEAST_PIVOT = 5e-324


def _recurrence(jacobi: tuple[list[float], list[float]], x: float) -> tuple[float, float, float]:
    """q_n(x), q_n'(x) and sum_{k<n} q_k(x)^2 for jacobi = (diag, off), n = len(off).

    q_k are the orthonormal polynomials of the Jacobi matrix scaled to
    q_0 = 1: off_k q_k = (x - diag_{k-1}) q_{k-1} - off_{k-1} q_{k-2}.
    """
    q_prev = dq_prev = dq = squares = 0.0
    q = 1.0
    b_prev = 0.0
    for a, b in zip(*jacobi):
        squares = squares + q * q
        dq_prev, dq = dq, (q + (x - a) * dq - b_prev * dq_prev) / b
        q_prev, q = q, ((x - a) * q - b_prev * q_prev) / b
        b_prev = b
    return q, dq, squares


def _sturm_count(rows: list[tuple[float, float]], x: float) -> int:
    """Eigenvalues below x of the symmetric tridiagonal matrix with rows (a_k, b_k^2).

    The count of negative pivots d_k = a_k - x - b_k^2/d_{k-1} of the
    LDL^T factorisation of T - xI (Sylvester's law of inertia).  A zero
    pivot is taken as the least positive float, the limit from above, so
    the next pivot is -inf.
    """
    below = 0
    pivot = 1.0
    for a, b2 in rows:
        pivot = a - x - b2 / pivot
        if pivot < 0.0:
            below += 1
        elif pivot == 0.0:
            pivot = _LEAST_PIVOT
    return below


def _bisect(count: Callable[[float], int], n: int, lo: float, hi: float) -> list[float]:
    """Lower ends of the brackets of the n least eigenvalues in (lo, hi), ascending.

    count(x) is the number of eigenvalues below x, a Sturm count, say.
    Barth, Martin & Wilkinson: eigenvalue k lies above every x whose
    count is <= k and below every x whose count is > k, and a count
    c > k at x also bounds eigenvalue c-1, and so every one below it, by
    x.  Each bracket is halved down to the width _BRACKET_TOL sets.
    """
    upper = [hi] * n
    ends = []
    for k in range(n):
        hi = min(upper[k:])
        while hi - lo > _BRACKET_FLOOR and hi - lo > _BRACKET_TOL * max(hi, -lo):
            mid = 0.5 * (lo + hi)
            below = count(mid)
            if below > k:
                hi = upper[below - 1] = mid
            else:
                lo = mid
        ends.append(lo)
    return ends


def _gauss_jacobi(n: int, alpha: int) -> tuple[list[float], list[float]]:
    """n-point Gauss rule on [-1, 1] for the weight (1-x)^alpha, alpha >= 0.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix J
    (with s = 2k+alpha: diagonal -alpha^2/(s(s+2)), k = 0..n-1, and
    off-diagonal 2k(k+alpha)/(s sqrt(s^2-1)), k = 1..n), found by Sturm
    bisection in Python floats to brackets 4 ulps wide, polished by one
    Newton step from each bracket's lower end.  The step's result moves
    at rounding level with its start point; from the lower end, the
    rules of the seven benchmark families equal bit for bit those
    started from LAPACK's eigenvalues (tests/_oracles.py keeps that
    construction, and the numpy form of this one).  For alpha = 0 the
    diagonal is zero, so J^2 splits into its even- and odd-indexed rows,
    and the odd block, of size n//2, has the squares of the positive
    nodes as its eigenvalues (the zero node of an odd n lies in the even
    block); bisecting that block is a quarter of the work.  A zero
    diagonal also makes negation exact, q_k(-x) = (-1)^k q_k(x) bit for
    bit, so from mirrored start points the nodes and weights are exactly
    symmetric.  The weights are
    mu_0/sum_{k<n} q_k(x)^2, mu_0 = 2^(alpha+1)/(alpha+1).  Certified
    fail-closed by the root residual |q_n/q_n'| (the Newton correction,
    free of the scale of q_n) at the final nodes, and by the nodes
    ascending strictly inside (-1, 1): n distinct roots, one to each
    bracket.  Exact for polynomials of degree <= 2n-1.  Every step is a
    Python float operation in the order numpy's elementwise form took,
    squares written x*x, so the rules equal that form's bit for bit.
    """
    diag = [0.0] * n
    if alpha:
        diag = [-alpha**2 / (s * (s + 2.0)) for s in (2.0 * k + alpha for k in range(n))]
    off = []
    for k in range(1, n + 1):
        s = 2.0 * k + alpha
        # One rounding of an exact integer ratio; at alpha = 0 the square is Legendre's k^2/(4k^2-1).
        ratio = 2.0 * k * (k + alpha)
        off.append(math.sqrt(ratio * ratio / (s * s * (s * s - 1.0))))
    jacobi = (diag, off)
    # c2[j] = off_j^2 couples rows j and j+1 of J; the last row couples to none.
    c2 = [b * b for b in off[:-1]] + [0.0]
    if alpha:
        rows = list(zip(diag, [0.0, *c2[:-1]]))
        roots = _bisect(partial(_sturm_count, rows), n, -1.0, 1.0)
    else:
        # Row 2i+1 of J^2: diagonal c2[2i] + c2[2i+1], coupled to row 2i+3 by off_{2i+1} off_{2i+2}.
        half = range(n // 2)
        couplings = [c2[2 * i + 1] * c2[2 * i + 2] for i in half[:-1]]
        rows = list(zip([c2[2 * i] + c2[2 * i + 1] for i in half], [0.0, *couplings]))
        positive = [math.sqrt(x) for x in _bisect(partial(_sturm_count, rows), len(rows), 0.0, 1.0)]
        roots = [-x for x in reversed(positive)] + [0.0] * (n % 2) + positive
    start = [_recurrence(jacobi, x) for x in roots]
    roots = [x - p / dp for x, (p, dp, _) in zip(roots, start)]
    final = [_recurrence(jacobi, x) for x in roots]
    residual = _worst([abs(p / dp) for p, dp, _ in final])
    if exceeds(residual, NEWTON_TOL):
        raise ConstructionError(
            f"Gauss root residual {residual:.3e} exceeds {NEWTON_TOL:g}", residual
        )
    if not (-1.0 < roots[0] and roots[-1] < 1.0 and all(map(lt, roots, roots[1:]))):
        raise ConstructionError("Gauss nodes are not strictly ascending inside (-1, 1)")
    mu_0 = 2.0 ** (alpha + 1) / (alpha + 1)
    return roots, [mu_0 / squares for _, _, squares in final]


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2n-1.
    """
    nodes, weights = _gauss_jacobi(check_int("n", n, 1), 0)
    return np.array(nodes), np.array(weights)


class Povm(_Record):
    """Weighted family of guess states defining an optimal-form POVM.

    weights has shape (A,) with finite, strictly positive entries;
    guesses has shape (A, d) with finite, unit-norm rows; both are
    copied on construction; provenance defaults to a fresh dict.
    Completeness and optimality are not re-verified on construction
    (tests build deliberately broken instances); build_povm and
    load_povm are the certifying entry points.

    The data is kept once, in two buffers of doubles, read-only flat
    memoryviews (_doubles): _weights, and _parts, the guesses' real and
    imaginary parts interleaved, row by row.  Given as such a pair
    (weights, then parts), they are kept as they are, not copied:
    sphere_grid and povm.load_povm pack them so, and restrict_povm
    shares them.  Any other input is copied into them by numpy.  The
    checks run on the buffers in Python floats, so a Povm of buffers
    loads no numpy.  weights and guesses are numpy views of the buffers,
    formed on first read, and read-only as the buffers are.  (The stdlib
    array module would do as well, but it is a shared library that no
    command loads otherwise: it raised clone's peak by 0.12 MB.)  The
    level-N residual and embedding are cached properties: formed on
    first access, then kept on the instance.  The residual charges
    POVMQUAD_BUILD_GUARD before G_N is formed, and a refused first
    access keeps nothing.
    """

    _fields = ("d", "N", "weights", "guesses", "provenance")

    def __init__(
        self,
        d: int,
        N: int,
        weights: np.ndarray | memoryview,
        guesses: np.ndarray | memoryview,
        provenance: dict | None = None,
    ):
        d, N = _check_family(d, N)
        if not (_is_doubles(weights) and _is_doubles(guesses)):
            weights = np.array(weights, dtype=np.float64).reshape(-1)
            guesses = np.array(guesses, dtype=np.complex128, order="C")
            if guesses.ndim != 2 or guesses.shape != (weights.size, d):
                raise InputFormatError("guesses must have shape (len(weights), d)")
            weights, guesses = _doubles(weights.tobytes()), _doubles(guesses.tobytes())
        width = 2 * d
        if len(guesses) != width * len(weights):
            raise InputFormatError("guesses must have shape (len(weights), d)")
        if not weights:
            raise InputFormatError("POVM must have at least one element")
        # A sum is finite iff every term is, unless it overflows; all() settles that case.
        if not all(
            math.isfinite(sum(values)) or all(map(math.isfinite, values)) for values in (weights, guesses)
        ):
            raise InputFormatError("weights and guess amplitudes must be finite")
        if not min(weights) > 0.0:
            raise InputFormatError("all weights must be strictly positive")
        # Each row's norm is math.hypot of its 2d parts, taken from one
        # iterator; hypot scales, so no finite part overflows it.
        norms = map(math.hypot, *[iter(guesses)] * width)
        worst = max(abs(norm - 1.0) for norm in norms)
        if exceeds(worst, 10 * NORM_TOL):
            raise InputFormatError(f"guess norm deviates from 1 by {worst:.3e}")
        provenance = {} if provenance is None else provenance
        fields = {"d": d, "N": N, "_weights": weights, "_parts": guesses, "provenance": provenance}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n_outcomes(self) -> int:
        return len(self._weights)

    @cached_property
    def weights(self) -> np.ndarray:
        """The weights, shape (A,), a read-only view of _weights."""
        return np.frombuffer(self._weights)

    @cached_property
    def guesses(self) -> np.ndarray:
        """The guesses, shape (A, d), a read-only complex view of _parts."""
        return np.frombuffer(self._parts, dtype=np.complex128).reshape(-1, self.d)

    def _residual(self, level: int) -> float:
        """max |G_level - I/d_level| of the family, by symmetric.frame_residual.

        The weights go in as their buffer and the guesses as _Guesses,
        so numpy loads only if the cost takes frame_residual to its numpy
        form.
        """
        return frame_residual(_Guesses(self), self._weights, level)

    @cached_property
    def _level_n_residual(self) -> float:
        """max |G_N - I/d_N|, read through povm.check_optimality."""
        return self._residual(self.N)

    @cached_property
    def _level_n_embedding(self) -> np.ndarray:
        """Read-only sym_embed_batch(guesses, N), read by the cloner's two-step check."""
        emb = sym_embed_batch(self.guesses, self.N)
        emb.setflags(write=False)
        return emb


class _Guesses:
    """A Povm's guesses as symmetric.frame_residual reads them.

    shape is (A, d); tolist() forms the rows in Python complex numbers
    from the interleaved parts, for the Python Gram; numpy reads the
    Povm's read-only view (__array__), formed only then.
    """

    __slots__ = ("_povm",)

    def __init__(self, povm: Povm):
        self._povm = povm

    @property
    def shape(self) -> tuple[int, int]:
        return self._povm.n_outcomes, self._povm.d

    def tolist(self) -> list[list[complex]]:
        parts, d = iter(self._povm._parts), self._povm.d
        flat = list(map(complex, parts, parts))
        return [flat[k : k + d] for k in range(0, len(flat), d)]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self._povm.guesses


def _doubles(data: bytes) -> memoryview:
    """data, packed doubles, as the read-only flat memoryview a Povm keeps."""
    return memoryview(data).cast("d")


def _is_doubles(values) -> bool:
    """True iff values is a buffer as _doubles forms it, which a Povm keeps as it is."""
    return (
        isinstance(values, memoryview) and values.readonly and values.format == "d" and values.ndim == 1
    )


def _lattice_generator(runs: list[tuple[Callable, int]], d: int, M: int) -> tuple[int, ...] | None:
    """First Korobov z = (1, g, g^2, ...) mod M, g = 1..M-1, with the row.z distinct mod M.

    runs holds one (pick, mask) pair per tail (n_2, ..., n_{d-1}) of the
    occupation tuples, from _korobov_lattice.  The rows sharing a tail
    have n_1 = 0, 1, ..., so their residues are consecutive from the
    tail's sum(pick(z)), and the run of them is mask, as many low bits
    as rows, shifted there and folded mod M.  One Python integer holds
    the residues taken as bits, and g stops at the first run that meets
    them.  A g prime to M separates exactly when its inverse h does:
    h^(d-2) n'.z(g) = rev(n').z(h), and reversing the projected tuples
    n' (those of sum <= N) permutes them.  So a g that fails refutes h,
    and a refuted h is not tried.
    """
    full = (1 << M) - 1
    # Column j holds g^j mod M for every g = 0..M-1; the last, theta_d's, is 0.
    columns = [[1] * M]
    for _ in range(d - 2):
        columns.append([power * g % M for g, power in enumerate(columns[-1])])
    columns.append([0] * M)
    refuted = {0}  # 0 is no generator
    for g, z in enumerate(zip(*columns)):
        if g in refuted:
            continue
        taken = 0
        for pick, mask in runs:
            run = mask << (sum(pick(z)) % M)
            if run > full:
                run = (run & full) | (run >> M)
            if taken & run:
                break
            taken |= run
        else:
            return z[:-1]
        # Measured in process, the search took 17 vs 23 ms at (6,3) and
        # 9.6 vs 12.3 ms at (4,5) without this skip, and found the same
        # (M, z) on all 123 families the default guard admits at d <= 7.
        if math.gcd(g, M) == 1:
            refuted.add(pow(g, -1, M))
    return None


def _korobov_lattice(d: int, N: int, moduli_nodes: int, dim: int) -> tuple[int, tuple[int, ...]]:
    """Smallest exact Korobov lattice (M, z), the first g for that M.

    dim is d_N.  d_N distinct residues need M >= d_N, so the search
    starts there, and each M is tested by _lattice_generator in Python
    integers, so no numpy integer kernel is paged in.  The rows of
    occupation_basis(d, N) are grouped once by their tail
    (n_2, ..., n_{d-1}), and each tail's residue is formed once per g:
    an itemgetter picks z_j n_j times for each j of the tail, and twice
    the zero entry of theta_d, so that it always returns a tuple.  Each
    M is charged A*d_N^2 against POVMQUAD_BUILD_GUARD before it is
    tried, so the guard ends any search.  Without it the search would
    still end by M = (N+1)^(d-1) with g = N+1: then |k'.z| < M, and
    k'.z = 0 only for k' = 0 by uniqueness of balanced base-(N+1)
    digits.  That bound is a theorem, not a check; a test pins it for
    every (d, N) the default guard admits at d <= 4.
    """
    moduli = moduli_nodes ** (d - 1)
    counts: dict[tuple[int, ...], int] = {}
    for row in occupation_basis(d, N):
        tail = tuple(j for j in range(1, d - 1) for _ in range(row[j]))
        counts[tail] = counts.get(tail, 0) + 1
    runs = [(itemgetter(d - 1, d - 1, *tail), (1 << count) - 1) for tail, count in counts.items()]
    for M in itertools.count(dim):
        cost = moduli * M * dim * dim
        check_cost("construction cost A*d_N^2", cost, BUILD_GUARD_ENV, d=d, N=N, M=M)
        z = _lattice_generator(runs, d, M)
        if z is not None:
            return M, z


def sphere_grid(d: int, N: int) -> Povm:
    """Moduli x phase-lattice grid exact for the level-N frame operator.

    Returns an uncertified Povm at level N whose provenance names the
    construction: "moduli-lattice", the Gauss node count per simplex
    coordinate and the phase lattice {"M": M, "z": [...]}.  Rows run
    moduli-major, lattice point fastest; the weights sum to 1.  Raises
    ResourceLimitError, before the grid is formed, when d_N^3 or, at the
    first lattice size M that does, A*d_N^2 exceeds POVMQUAD_BUILD_GUARD.
    """
    d, N = _check_family(d, N)
    # A >= M >= d_N bounds A*d_N^2 from below by d_N^3, charged before
    # n^(d-1) or the search bound, each huge for a huge d, is formed.
    dim = _charge_dim("construction cost d_k^3", 1, d, N, 3)
    n = (N + 2) // 2
    M, z = _korobov_lattice(d, N, n, dim)
    # One simplex coordinate at a time, the new one fastest: x_j = u_j * rest
    # and rest *= 1 - u_j, for u_j = (1+t)/2 at the Gauss-Jacobi nodes t of
    # (1-t)^(d-1-j); x_d is the rest.  Each rule's weights are scaled by the
    # power of two that brings their sum into [1/2, 1), so their product
    # stays finite at any d (the rule masses 2^(a+1)/(a+1) multiply to inf
    # from d = 51) and no bit of a normalised weight changes.
    points = [((), 1.0, 1.0)]
    for j in range(1, d):
        nodes, w = _gauss_jacobi(n, d - 1 - j)
        scale = -math.frexp(math.fsum(w))[1]
        rule = [(0.5 * (1.0 + t), math.ldexp(wk, scale)) for t, wk in zip(nodes, w)]
        points = [
            ((*x, rest * u), rest * (1.0 - u), weight * wk)
            for x, rest, weight in points
            for u, wk in rule
        ]
    # The phases exp(i theta), theta = 2 pi (t z_j mod M) (1/M), as numpy
    # formed them: it divides a complex array by M as a product with 1/M,
    # and its exp of a zero real part is (cos theta, sin theta).  Then row
    # by row, each modulus sqrt(x_j) times its phase's two parts.
    step, inverse = 2.0 * math.pi, 1.0 / M
    phases = []
    for t in range(M):
        for zj in (*z, 0):
            theta = step * (t * zj % M) * inverse
            phases += (math.cos(theta), math.sin(theta))
    rows = struct.Struct(f"{2 * d * M}d")
    parts = []
    for x, rest, _ in points:
        moduli = [math.sqrt(xj) for xj in (*x, rest) for _ in range(2)]
        parts.append(rows.pack(*map(mul, moduli * M, phases)))
    weights = [weight for _, _, weight in points for _ in range(M)]
    total = math.fsum(weights)
    weights = struct.pack(f"{len(weights)}d", *[w / total for w in weights])
    provenance = {
        "construction": "moduli-lattice",
        "moduli_nodes": n,
        "lattice": {"M": M, "z": list(z)},
    }
    return Povm(d, N, _doubles(weights), _doubles(b"".join(parts)), provenance)


def verify_exactness(family: Povm, N: int) -> float:
    """Max-modulus residual of the degree-2N moment identity at any level N.

    The level-N frame operator sum_a w_a v_a v_a^dagger of an exact
    family equals identity/d_N: the weighted average of rho_a^{tensor N}
    matches the uniform state average.  Returns max |G_N - I/d_N|.
    """
    return family._residual(N)
