"""Symmetric subspace of N copies of a d-level system.

The totally symmetric subspace of (C^d)^{tensor N} has dimension
d_N = C(N+d-1, d-1) and an orthonormal occupation-number basis labelled
by tuples n = (n_1, ..., n_d) with sum N.  A product state
|phi>^{tensor N} lies inside the subspace; its occupation coordinates
are sqrt(N!/prod n_i!) * prod c_i^{n_i} where c are the amplitudes of
|phi>.  sym_embed_batch forms them for a whole batch from power tables
c_i^0, ..., c_i^N, gathered through the occupation table, so its numpy
call count does not grow with d_N.  Certification and the fidelity
formulas all run on one primitive in these coordinates,
frame_operator, and the cloner works in them too; d_N is errors.sym_dim.
sym_isometry and symmetric_projector_full are the one bridge to the d^M
full space, for callers that need dense operators there.

A PureState's squared norm is sum_i |c_i|^2 taken elementwise in numpy,
the formula Povm applies to its rows, and overlap and _squared_overlaps
form <a|b> = sum_i conj(a_i) b_i the same way: a product and a sum, so
no state-sized contraction calls a BLAS level-1 or level-2 routine
(np.vdot would call zdotc, a matrix times a vector zgemv).  Each such
routine's first call faults in its own pages of the library, which a
command's peak memory counts.  PureState and the package's other
records (quadrature.Povm, estimation.FidelityReport,
cloner.ClonerOutput) are plain classes on _Record, frozen after their
__init__.  The standard library's record decorator would import two
more modules (it and copy) and compile about twenty generated methods
when these modules load, in every command.

Haar-random inputs come from one stream, the interpreter's own Mersenne
Twister (random.Random(seed)), so no command loads numpy.random.  The
stream is read through _uniforms, which turns one getrandbits(64 n)
call into n doubles on (0, 1], each with 53 random bits.  A state takes
2d of them per row: d give Exp(1) variables E_i = -log u, d give phases
theta_i = u, and c_i = sqrt(E_i / sum_j E_j) e^{2 pi i theta_i}.  These
are d standard complex normals, normalised, so the state is exactly
Haar distributed, and it comes in the moduli x phase coordinates of the
grid: the moduli x_i = |c_i|^2 are uniform on the simplex.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .errors import FULL_SPACE_GUARD_ENV, InputFormatError, check_cost
from .errors import _charge_dim, check_int, exceeds

# Normalisation slack accepted on state amplitudes.
NORM_TOL = 1e-12


class _Record:
    """Base of the package's frozen records.

    A record sets its fields once, through object.__setattr__ in its
    __init__; afterwards setting or deleting any attribute raises
    AttributeError.  The repr lists _fields in order.  Equality and hash
    are by identity unless a record defines its own.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class PureState(_Record):
    """Unit vector of complex amplitudes in C^d, d >= 2.

    Amplitudes are copied and frozen on construction; the squared norm
    must equal 1 within NORM_TOL.
    """

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        check_int("state dimension", amps.size, 2)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InputFormatError("state amplitudes must be finite")
        # The formula Povm uses for its rows; np.vdot would call BLAS zdotc.
        # A part past 1e154 squares to inf, which is refused below.
        with np.errstate(over="ignore"):
            norm_sq = float(np.sum((amps.conj() * amps).real))
        if exceeds(abs(norm_sq - 1.0), NORM_TOL):
            raise InputFormatError(
                f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e} (tol {NORM_TOL:g})"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def d(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis_state(cls, d: int, index: int) -> "PureState":
        """Computational basis vector |index> in C^d, 0 <= index <= d-1."""
        d = check_int("d", d, 2)
        index = check_int("index", index, 0, d - 1)
        amps = np.zeros(d, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)


# typed: 2.0 and True hash and compare as 2 and 1, so an untyped cache
# would answer them from an integer call's entry without the check.
@lru_cache(maxsize=None, typed=True)
def occupation_basis(d: int, N: int) -> tuple[tuple[int, ...], ...]:
    """Occupation tuples (n_1, ..., n_d), sum N, lexicographically descending."""
    d, N = check_int("d", d, 1), check_int("N", N, 0)
    if d == 1:
        return ((N,),)
    out = []
    for first in range(N, -1, -1):
        for rest in occupation_basis(d - 1, N - first):
            out.append((first, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def _embedding_coefficients(d: int, N: int) -> np.ndarray:
    """sqrt(N!/prod n_i!) for each occupation tuple, in basis order."""
    basis = occupation_basis(d, N)
    fact_n = math.factorial(N)
    coeffs = [math.sqrt(fact_n / math.prod(math.factorial(k) for k in n)) for n in basis]
    arr = np.asarray(coeffs, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _occupation_table(d: int, N: int) -> np.ndarray:
    """occupation_basis(d, N) as a read-only d_N x d integer array."""
    table = np.asarray(occupation_basis(d, N), dtype=np.intp)
    table.setflags(write=False)
    return table


def sym_embed_batch(amplitudes: np.ndarray, N: int) -> np.ndarray:
    """Occupation-basis coordinates of |phi>^{tensor N} for many states.

    Works on power tables: powers[p, i] holds a_i^p for every state and
    is filled by doubling, powers[t+1 .. t+s] = powers[1 .. s] * powers[t],
    so ceil(log2 N) slab products form every power.  Column k is the
    product of a_i^{n_i} over the k-th row n of the occupation table,
    taken in order i = 0, ..., d-1 by one gather of whole rows per
    variable, then scaled once by sqrt(N!/prod n_i!) and copied out
    transposed.  A batch thus costs about 2d + log2 N numpy calls
    whatever d_N is, and holds the output, one gathered operand of its
    size and the power tables.  numpy's complex ** takes a different
    product tree below exponent 100 and exp(n log a) from there on, so
    entries differ from the per-column formula sqrt(N!/prod n_i!)
    prod_i a_i**n_i by a few ulps, and not at all on computational basis
    states.

    Args:
        amplitudes: complex array of shape (batch, d), rows unit norm.
        N: number of copies, >= 1.

    Returns:
        Complex array of shape (batch, d_N).
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 2:
        raise InputFormatError("amplitudes must have shape (batch, d)")
    d = amps.shape[1]
    N = check_int("N", N, 1)
    table = _occupation_table(d, N)
    powers = np.empty((N + 1, d, amps.shape[0]), dtype=np.complex128)
    powers[0] = 1.0
    powers[1] = amps.T
    top = 1
    while top < N:
        step = min(top, N - top)
        np.multiply(powers[1 : step + 1], powers[top], out=powers[top + 1 : top + step + 1])
        top += step
    cols = powers[table[:, 0], 0]
    for i in range(1, d):
        cols *= powers[table[:, i], i]
    cols *= _embedding_coefficients(d, N)[:, None]
    return np.ascontiguousarray(cols.T)


def sym_embed(state: PureState, N: int) -> np.ndarray:
    """Occupation-basis coordinates of |state>^{tensor N}, shape (d_N,)."""
    return sym_embed_batch(state.amplitudes[None, :], N)[0]


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    check_int("state dimension", b.d, a.d, a.d)
    return complex((a.amplitudes.conj() * b.amplitudes).sum())


def _squared_overlaps(rows: np.ndarray, state: PureState) -> np.ndarray:
    """|<phi_a|state>|^2 for each row phi_a of rows (shape (A, d)), shape (A,)."""
    return np.abs((rows * state.amplitudes.conj()).sum(axis=1)) ** 2


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2."""
    return abs(overlap(a, b)) ** 2


def frame_operator(amplitudes: np.ndarray, weights: np.ndarray, level: int) -> np.ndarray:
    """Level-k frame operator G = sum_a w_a v_a v_a^dagger, shape (d_k, d_k).

    v_a are the occupation coordinates of |phi_a>^{tensor k} for the rows
    of amplitudes (shape (A, d)).  A family is an optimal N-copy POVM iff
    G_N = I/d_N and universal iff also G_{N+1} = I/d_{N+1}; its pointwise
    fidelity is d_N u^dagger G_{N+1} u.  weights has shape (A,).  The
    cost A*d_k^2 is charged to the build guard through _charge_dim.
    """
    amps, weights = np.asarray(amplitudes, dtype=np.complex128), np.asarray(weights)
    check_int("weights ndim", weights.ndim, 1, 1)
    check_int("weight count", weights.size, amps.shape[0], amps.shape[0])
    level = check_int("level", level, 1)
    _charge_dim("frame operator cost A*d_k^2", amps.shape[0], amps.shape[-1], level, 2)
    emb = sym_embed_batch(amps, level)
    return (emb * weights[:, None]).T @ emb.conj()


def frame_residual(amplitudes: np.ndarray, weights: np.ndarray, level: int) -> float:
    """Max-modulus of G_level - I/d_level for the weighted family."""
    gram = frame_operator(amplitudes, weights, level)
    dim = gram.shape[0]
    gram[np.diag_indices(dim)] -= 1.0 / dim
    return float(np.max(np.abs(gram)))


def sym_isometry(d: int, M: int) -> np.ndarray:
    """Real d^M x d_M isometry from occupation coordinates to the full space.

    Column k is the normalised symmetric basis vector of occupation n_k:
    V[x, k] = sqrt(prod n_k! / M!) when the base-d digits of x (most
    significant first, the kron convention |x_1> kron ... kron |x_M>)
    have occupation n_k, and 0 otherwise.  Hence V^T V = I, V V^T is the
    symmetric projector and V sym_embed(phi, M) = |phi>^{tensor M}.
    Refused when the lower bound max(d, M+1) or d^M exceeds the
    full-space guard.
    """
    d, M = check_int("d", d, 2), check_int("M", M, 1)
    # d^M >= max(d, M+1) bounds it from below before d^M, huge for a huge M, is formed.
    check_cost("full-space dimension lower bound max(d, M+1)", max(d, M + 1), FULL_SPACE_GUARD_ENV, d=d, M=M)
    dim = d**M
    check_cost("full-space dimension d^M", dim, FULL_SPACE_GUARD_ENV, d=d, M=M)
    digits = np.arange(dim)[:, None] // d ** np.arange(M - 1, -1, -1) % d
    occupations = np.stack([np.count_nonzero(digits == i, axis=1) for i in range(d)], axis=1)
    column_of = {n: k for k, n in enumerate(occupation_basis(d, M))}
    cols = np.array([column_of[tuple(n)] for n in occupations.tolist()])
    iso = np.zeros((dim, len(column_of)), dtype=np.float64)
    iso[np.arange(dim), cols] = 1.0 / _embedding_coefficients(d, M)[cols]
    return iso


def symmetric_projector_full(d: int, M: int) -> np.ndarray:
    """Projector S_M = V V^T onto the symmetric subspace of (C^d)^{tensor M}."""
    iso = sym_isometry(d, M)
    return iso @ iso.T


def _check_family(d, N) -> tuple[int, int]:
    """(d, N) as plain ints, or InputFormatError unless integers d >= 2, N >= 1."""
    return check_int("d", d, 2), check_int("N", N, 1)


def _stream(seed_or_stream: random.Random | int) -> random.Random:
    """seed_or_stream itself, or a fresh random.Random from an integer seed >= 0.

    random.Random seeds by absolute value, so a negative seed is refused
    rather than drawing the stream of its absolute value.
    """
    if isinstance(seed_or_stream, random.Random):
        return seed_or_stream
    return random.Random(check_int("seed", seed_or_stream, 0))


# Spacing of the uniforms' grid: they take the values k * 2**-53, k = 1..2**53.
_UNIFORM_STEP = 2.0**-53


def _uniforms(stream: random.Random, n: int) -> np.ndarray:
    """n doubles on (0, 1] with 53 random bits each, from one getrandbits call.

    Word j of getrandbits(64 n) is bits 64j .. 64j+63; its top 53 bits
    are k - 1 for the j-th value k 2^-53.  The Mersenne Twister fills
    those bits from its 32-bit outputs in order, so the first m values
    of a draw of n are a draw of m: drawing in blocks or at once reads
    the same stream.  No value is 0, so log u is always finite.
    """
    words = np.frombuffer(stream.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")
    u = (words >> 11).astype(np.float64)
    u += 1.0
    u *= _UNIFORM_STEP
    return u


def _uniform(stream: random.Random) -> float:
    """_uniforms(stream, 1)[0] as a Python float, without numpy."""
    return ((stream.getrandbits(64) >> 11) + 1) * _UNIFORM_STEP


def haar_random_states(d: int, count: int, seed_or_stream: random.Random | int) -> np.ndarray:
    """count rows of Haar-distributed unit vectors in C^d.

    seed_or_stream is a non-negative integer seed, for a fresh
    random.Random, or a random.Random whose stream continues.  Row r
    reads the uniforms 2dr .. 2dr+2d-1 of one _uniforms draw, first d
    for the moduli E_i = -log u_i, then d for the phases, as the module
    docstring describes.  count rows drawn at once equal the same rows
    drawn in consecutive blocks.
    """
    d, count = check_int("d", d, 2), check_int("count", count, 1)
    u = _uniforms(_stream(seed_or_stream), 2 * count * d).reshape(count, 2, d)
    moduli = np.log(u[:, 0])
    moduli /= moduli.sum(axis=1, keepdims=True)
    np.sqrt(moduli, out=moduli)
    # The same numpy loops as the grid's moduli x phase product in
    # quadrature: separate cos and sin loops, or an in-place product,
    # raised a clone command's peak by ~0.06 MB.
    return moduli * np.exp(2j * math.pi * u[:, 1])


def haar_random_state(d: int, seed: int) -> PureState:
    """One Haar-distributed pure state: haar_random_states(d, 1, seed)[0]."""
    return PureState(haar_random_states(d, 1, seed)[0])
