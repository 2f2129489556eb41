"""Optimal N -> M cloning by symmetric projection, full-space reference.

The cloning map is T(rho^{tensor N}) = (d_N/d_M) S_M (rho^{tensor N}
kron 1^{tensor (M-N)}) S_M with S_M the symmetric projector on M
copies (Werner, PRA 58, 1827, 1998).  The output is a dense d^M x d^M
matrix on purpose: it is the independent slow path against which the
closed-form estimation identities are checked.  Its only route into the
full space is the isometry V of symmetric.sym_isometry: S_M = V V^T and
|phi>^{tensor M} = V sym_embed(phi, M).  Feeding the M clones to the
optimal M-copy estimator ("measure the clones instead of the
originals") reproduces exactly the N-copy optimum (N+1)/(N+d), which is
also the universality statement in operational form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InputFormatError, exceeds
from .povm import Povm
from .symmetric import PureState, sym_dim, sym_embed, sym_embed_batch, sym_isometry

VALIDATION_TOL = 1e-10
TWO_STEP_AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class ClonerOutput:
    """Joint state of the M clones as a dense d^M x d^M density matrix.

    Construction validates Hermiticity, unit trace, positive
    semidefiniteness (within -1e-10), and the input bookkeeping.
    """

    d: int
    N: int
    M: int
    density: np.ndarray

    def __post_init__(self):
        if self.d < 2 or not 1 <= self.N <= self.M:
            raise InputFormatError(
                f"need d >= 2 and 1 <= N <= M, got d={self.d}, N={self.N}, M={self.M}"
            )
        dim = self.d**self.M
        density = np.asarray(self.density, dtype=np.complex128)
        if density.shape != (dim, dim):
            raise InputFormatError(f"density must have shape ({dim}, {dim})")
        herm = float(np.max(np.abs(density - density.conj().T)))
        if exceeds(herm, VALIDATION_TOL):
            raise ConstructionError(f"cloner output not Hermitian: {herm:.3e}", herm)
        trace_err = abs(float(np.trace(density).real) - 1.0)
        if exceeds(trace_err, VALIDATION_TOL):
            raise ConstructionError(f"cloner output trace deviates by {trace_err:.3e}", trace_err)
        min_eig = float(np.linalg.eigvalsh(density)[0])
        if exceeds(-min_eig, VALIDATION_TOL):
            raise ConstructionError(f"cloner output has eigenvalue {min_eig:.3e}", -min_eig)
        density.setflags(write=False)
        object.__setattr__(self, "density", density)


def clone(state: PureState, N: int, M: int) -> ClonerOutput:
    """Optimal symmetric-projection cloning of N copies into M >= N."""
    if not 1 <= N <= M:
        raise InputFormatError(f"need 1 <= N <= M, got N={N}, M={M}")
    d = state.d
    iso = sym_isometry(d, M)
    psi_n = sym_isometry(d, N) @ sym_embed(state, N)
    padded = np.kron(np.outer(psi_n, psi_n.conj()), np.eye(d ** (M - N)))
    scale = sym_dim(d, N) / sym_dim(d, M)
    density = scale * (iso @ (iso.T @ padded @ iso) @ iso.T)
    return ClonerOutput(d=d, N=N, M=M, density=density)


def single_particle_reduced(output: ClonerOutput, which: int = 1) -> np.ndarray:
    """Reduced d x d state of clone `which` (1-based).

    The output of the cloning map is permutation symmetric, so the
    result is independent of which clone is traced out to.
    """
    if not 1 <= which <= output.M:
        raise InputFormatError(f"need 1 <= which <= {output.M}, got {which}")
    d = output.d
    left = d ** (which - 1)
    right = d ** (output.M - which)
    shaped = output.density.reshape(left, d, right, left, d, right)
    return np.einsum("aibajb->ij", shaped)


def single_particle_fidelity(output: ClonerOutput, state: PureState, which: int = 1) -> float:
    """Fidelity <phi| reduced |phi> of one clone against the source state."""
    if state.d != output.d:
        raise InputFormatError(f"state dimension {state.d} != cloner dimension {output.d}")
    reduced = single_particle_reduced(output, which)
    return float(np.vdot(state.amplitudes, reduced @ state.amplitudes).real)


def two_step_components(state: PureState, N: int, M: int, povm_m: Povm) -> tuple[float, float]:
    """Clone-then-estimate fidelity: full-space pipeline and closed form.

    The pipeline value is sum_a tr[E_a T(rho^{tensor N})] |<phi_a|phi>|^2
    with the M-copy elements applied to the cloner output; the closed
    form is d_N sum_a w_a |<phi_a|phi>|^{2(N+1)}, the N-copy pointwise
    fidelity of the same nodes.
    """
    if povm_m.d != state.d:
        raise InputFormatError(f"state dimension {state.d} != POVM dimension {povm_m.d}")
    if povm_m.N != M:
        raise InputFormatError(f"POVM is for {povm_m.N} copies, expected M={M}")
    output = clone(state, N, M)
    guesses = povm_m.guesses
    # <phi_a|^{tensor M} T |phi_a>^{tensor M} with |phi_a>^{tensor M} = V e_a.
    iso = sym_isometry(state.d, M)
    emb = sym_embed_batch(guesses, M)
    born = ((emb.conj() @ (iso.T @ output.density @ iso)) * emb).sum(axis=1).real
    probs = sym_dim(state.d, M) * povm_m.weights * born
    state_fids = np.abs(guesses @ state.amplitudes.conj()) ** 2
    pipeline = float(probs @ state_fids)
    closed = float(
        sym_dim(state.d, N) * (povm_m.weights @ state_fids ** (N + 1))
    )
    return pipeline, closed


def two_step_estimate(state: PureState, N: int, M: int, povm_m: Povm) -> float:
    """Mean fidelity of clone-then-estimate, verified against the closed form.

    Raises ConstructionError if the dense pipeline and the closed-form
    reduction disagree beyond 1e-8.
    """
    pipeline, closed = two_step_components(state, N, M, povm_m)
    gap = abs(pipeline - closed)
    if exceeds(gap, TWO_STEP_AGREEMENT_TOL):
        raise ConstructionError(
            f"two-step pipeline {pipeline!r} and closed form {closed!r} disagree by {gap:.3e}",
            gap,
        )
    return pipeline
