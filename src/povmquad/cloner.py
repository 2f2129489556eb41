"""Optimal N -> M cloning in the occupation coordinates of M copies.

The cloning map is T(rho^{tensor N}) = (d_N/d_M) S_M (rho^{tensor N}
kron 1^{tensor (M-N)}) S_M with S_M the symmetric projector on M
copies (Werner, PRA 58, 1827, 1998).  T is supported on the symmetric
subspace, so it is stored as the d_M x d_M matrix sigma = V^T T V in
the occupation basis of M copies (V as in symmetric.sym_isometry):

    sigma = (d_N/d_M) sum_k mult(k) s_k s_k^dagger,
    s_k[r+k] = c_N[r] e_N[r] / c_M[r+k],

with k over the occupations of the M-N padding copies, mult(k) =
c_{M-N}[k]^2 the number of basis strings with occupation k, r over
the occupations of N copies, e_N = sym_embed(phi, N) and c the
embedding coefficients sqrt(n!/prod n_i!).  Each padding string of
occupation k contributes the same vector s_k, hence the multiplicity.
Nothing here forms the d^M full space; the dense construction lives in
the test oracles, which check sigma against it.

The output is permutation symmetric, so every clone has the same
reduced state rho_ij = <a_j^dagger a_i>/M.  Feeding the M clones to the
optimal M-copy estimator ("measure the clones instead of the
originals") reproduces exactly the N-copy optimum (N+1)/(N+d), which is
also the universality statement in operational form.  The reduced
state, its fidelity and the sums of clone-then-estimate are each an
elementwise product and a sum: @ multiplies only matrices (zgemm, which
every frame operator loads), so cloning calls no BLAS level-1 or
level-2 routine and no einsum, each of which would fault in its own
pages on first call.

Every output is certified positive semidefinite within -1e-10 by the
pivots of an LDL^H factorisation of sigma + 1e-10 I, formed by numpy
row updates and matrix products: no command runs a LAPACK routine.
A failure reports the least eigenvalue, to a 4-ulp bracket, from the
bisection that finds the Gauss nodes, with these pivots as its count.
That check costs O(d_M^3), so ClonerOutput charges d_M^3 through
errors._charge_dim, as clone does, before it forms d_M.
"""

from __future__ import annotations

from functools import lru_cache

from ._numpy import np
from .errors import ConstructionError, InputFormatError, _charge_dim, exceeds
from .errors import check_int, sym_dim
from .povm import Povm
from .quadrature import _bisect
from .symmetric import (
    PureState,
    _embedding_coefficients,
    _Record,
    _squared_overlaps,
    occupation_basis,
    sym_embed,
)

VALIDATION_TOL = 1e-10
TWO_STEP_AGREEMENT_TOL = 1e-8
# Columns eliminated one by one before a matrix product updates the rest.
# Measured in process: 20 vs 104 ms at d_M = 368 without panels, 1.9 vs
# 2.9 ms at 100, about equal up to 56; no benchmark clone exceeds d_M = 15.
_PANEL = 32


def _positive_definite(matrix: np.ndarray, shift: float) -> bool:
    """True iff every LDL^H pivot of matrix - shift I is in (0, inf).

    That is every eigenvalue above shift (Sylvester's law of inertia).
    Like eigvalsh it reads the lower triangle and the diagonal's real part.
    """
    n = matrix.shape[0]
    a = np.array(matrix, dtype=np.complex128)
    a.flat[:: n + 1] -= shift
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        for k in range(k0, k1):
            pivot = a[k, k].real
            if not 0.0 < pivot < np.inf:
                return False
            a[k + 1 :, k + 1 : k1] -= a[k + 1 :, k, None] * (a[k + 1 : k1, k].conj() / pivot)
        panel = a[k1:, k0:k1]
        a[k1:, k1:] -= (panel / a.diagonal()[k0:k1].real) @ panel.conj().T
    return True


class ClonerOutput(_Record):
    """Joint state of the M clones as a d_M x d_M density matrix.

    Rows and columns follow occupation_basis(d, M).  Construction
    validates the input bookkeeping, d_M^3 against the build guard,
    finiteness, Hermiticity, unit trace and positive semidefiniteness
    (within -1e-10; a failure reports the least eigenvalue, bisected to
    4 ulps).
    """

    _fields = ("d", "N", "M", "density")

    def __init__(self, d: int, N: int, M: int, density: np.ndarray):
        d = check_int("d", d, 2)
        M = check_int("M", M, 1)
        N = check_int("N", N, 1, M)
        dim = _charge_dim("cloner output cost d_k^3", 1, d, M, 3)
        density = np.asarray(density, dtype=np.complex128)
        if density.shape != (dim, dim):
            raise InputFormatError(f"density must have shape ({dim}, {dim})")
        if not np.isfinite(density).all():
            raise ConstructionError("cloner output has a non-finite entry")
        herm = float(np.max(np.abs(density - density.conj().T)))
        if exceeds(herm, VALIDATION_TOL):
            raise ConstructionError(f"cloner output not Hermitian: {herm:.3e}", herm)
        trace_err = abs(float(np.trace(density).real) - 1.0)
        if exceeds(trace_err, VALIDATION_TOL):
            raise ConstructionError(f"cloner output trace deviates by {trace_err:.3e}", trace_err)
        if not _positive_definite(density, -VALIDATION_TOL):
            lo = -1.0 - float(np.abs(density).sum(axis=1).max())  # below every eigenvalue
            least = _bisect(
                lambda x: int(not _positive_definite(density, x)), 1, lo, -VALIDATION_TOL
            )[0]
            raise ConstructionError(f"cloner output has eigenvalue {least:.3e}", -least)
        density.setflags(write=False)
        for name, value in zip(self._fields, (d, N, M, density)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=None)
def _sum_index(d: int, N: int, M: int) -> np.ndarray:
    """table[k, r] = position of k + r in occupation_basis(d, M).

    k runs over occupation_basis(d, M - N) and r over
    occupation_basis(d, N).
    """
    position = {n: i for i, n in enumerate(occupation_basis(d, M))}
    table = np.array(
        [
            [position[tuple(a + b for a, b in zip(k, r))] for r in occupation_basis(d, N)]
            for k in occupation_basis(d, M - N)
        ],
        dtype=np.intp,
    )
    table.setflags(write=False)
    return table


def clone(state: PureState, N: int, M: int) -> ClonerOutput:
    """Optimal symmetric-projection cloning of N copies into M >= N.

    Refused, through _charge_dim, when d_M^3, which bounds both the
    d_{M-N} d_M^2 product and the positivity check, exceeds the build
    guard.
    """
    M = check_int("M", M, 1)
    N = check_int("N", N, 1, M)
    d = state.d
    dim = _charge_dim("cloner output cost d_k^3", 1, d, M, 3)
    table = _sum_index(d, N, M)
    values = (
        _embedding_coefficients(d, N) * sym_embed(state, N)
        / _embedding_coefficients(d, M)[table]
    )
    vectors = np.zeros((table.shape[0], dim), dtype=np.complex128)
    np.put_along_axis(vectors, table, values, axis=1)
    mult = _embedding_coefficients(d, M - N) ** 2
    density = (sym_dim(d, N) / dim) * ((vectors * mult[:, None]).T @ vectors.conj())
    return ClonerOutput(d=d, N=N, M=M, density=density)


def single_particle_reduced(output: ClonerOutput) -> np.ndarray:
    """Reduced d x d state of any one clone.

    rho_ij = (1/M) sum_q sqrt((q_i+1)(q_j+1)) sigma[q+e_i, q+e_j] over
    the occupations q of M-1 copies.  The output of the cloning map is
    permutation symmetric, so every clone has this reduced state.
    """
    d, M = output.d, output.M
    raised = _sum_index(d, 1, M)
    lift = np.sqrt(np.asarray(occupation_basis(d, M - 1), dtype=np.float64) + 1.0)
    block = output.density[raised[:, :, None], raised[:, None, :]]
    return (lift[:, :, None] * lift[:, None, :] * block).sum(axis=0) / M


def single_particle_fidelity(output: ClonerOutput, state: PureState) -> float:
    """Fidelity <phi| reduced |phi> of one clone against the source state."""
    check_int("state dimension", state.d, output.d, output.d)
    amps = state.amplitudes
    reduced = single_particle_reduced(output)
    return float((amps.conj()[:, None] * reduced * amps).sum().real)


def two_step_components(output: ClonerOutput, state: PureState, povm_m: Povm) -> tuple[float, float]:
    """Clone-then-estimate fidelity: pipeline on the clones and closed form.

    The pipeline value is sum_a d_M w_a e_a^dagger sigma e_a
    |<phi_a|phi>|^2, the M-copy elements applied to the cloner output,
    with e_a = sym_embed(phi_a, M); the closed form is
    d_N sum_a w_a |<phi_a|phi>|^{2(N+1)}, the N-copy pointwise fidelity
    of the same nodes.  povm_m keeps its embedding, so it is formed on
    the first call for povm_m and reused after.
    """
    check_int("state dimension", state.d, output.d, output.d)
    check_int("POVM dimension", povm_m.d, state.d, state.d)
    check_int("POVM copy number", povm_m.N, output.M, output.M)
    emb = povm_m._level_n_embedding
    born = ((emb.conj() @ output.density) * emb).sum(axis=1).real
    probs = output.density.shape[0] * povm_m.weights * born
    state_fids = _squared_overlaps(povm_m.guesses, state)
    pipeline = float((probs * state_fids).sum())
    closed = float(
        sym_dim(state.d, output.N) * (povm_m.weights * state_fids ** (output.N + 1)).sum()
    )
    return pipeline, closed


def two_step_estimate(output: ClonerOutput, state: PureState, povm_m: Povm) -> float:
    """Mean fidelity of clone-then-estimate, verified against the closed form.

    Raises ConstructionError if the pipeline on the clones and the
    closed-form reduction disagree beyond 1e-8.
    """
    pipeline, closed = two_step_components(output, state, povm_m)
    gap = abs(pipeline - closed)
    if exceeds(gap, TWO_STEP_AGREEMENT_TOL):
        raise ConstructionError(
            f"two-step pipeline {pipeline!r} and closed form {closed!r} disagree by {gap:.3e}",
            gap,
        )
    return pipeline
