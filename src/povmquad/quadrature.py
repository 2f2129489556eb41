"""Exact product quadratures for the frame operator on S^(2d-1).

A pure state in C^d is a point chi on the real unit sphere of dimension
m = 2d via c_i = chi_{2i-1} + i*chi_{2i}.  In polar coordinates

    chi_1 = cos t_1,
    chi_k = sin t_1 ... sin t_{k-1} cos t_k          (k <= m-2),
    chi_{m-1} = sin t_1 ... sin t_{m-2} cos phi,
    chi_m     = sin t_1 ... sin t_{m-2} sin phi,

with surface measure prod_j sin^{p_j} t_j dt_j dphi, p_j = m-1-j.  The
grid is a product of one Gauss rule per polar angle at phi = 0, so c_d
is real and non-negative.  It is exact for the level-N frame operator
sum_a w_a (|phi_a><phi_a|)^{tensor N}:

Phase.  The frame operator is invariant under a global phase.
Multiplying a state by e^{-i phi}, phi the phase of c_d, rotates
(chi_1, ..., chi_{m-2}) by an orthogonal map that keeps the polar
measure, so the phi-average of a phase-invariant integrand equals its
value at phi = 0.

Polar angles.  At phi = 0 a monomial of even degree <= 2N factorises
over the polar angles.  At t_j the factor is either a polynomial of
degree <= 2N in x = cos t_j against the weight (1-x^2)^{(p_j-1)/2}, or
odd in x and summed to zero by node symmetry.  The (N+1)-node Gauss
rule for that weight is exact through degree 2N+1; N+1 is the minimum
for degree 2N.

Only phase-invariant moments are exact: an unbalanced one such as the
average of c_d does not vanish on the grid, and nothing here uses one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConstructionError, InputFormatError, exceeds
from .limits import BUILD_GUARD_ENV, check_cost
from .symmetric import PureState, frame_residual, sym_dim

NEWTON_TOL = 1e-14
CHI_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Rule1D:
    """One-dimensional quadrature rule with an exactness certificate.

    degree semantics by kind: "gauss-legendre" is exact for polynomial
    integrands on [-1, 1] up to the stated degree; "gauss-theta" for
    integrands cos^k t on [0, pi] against the measure sin^p t dt that
    the weights carry, k up to the stated degree.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    degree: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise InputFormatError("nodes and weights must be equal-length 1-D arrays")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _recurrence(beta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q_n(x), q_n'(x) and sum_{k<n} q_k(x)^2, n = len(beta).

    q_k are the orthonormal polynomials of the Jacobi matrix scaled to
    q_0 = 1: beta_k q_k = x q_{k-1} - beta_{k-1} q_{k-2}.
    """
    q_prev = dq_prev = dq = squares = np.zeros_like(x)
    q = np.ones_like(x)
    b_prev = 0.0
    for b in beta:
        squares = squares + q * q
        dq_prev, dq = dq, (q + x * dq - b_prev * dq_prev) / b
        q_prev, q = q, (x * q - b_prev * q_prev) / b
        b_prev = b
    return q, dq, squares


def _gauss_jacobi(n: int, sin_power: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [-1, 1] for the weight (1-x^2)^a, a = (sin_power-1)/2.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix (zero diagonal, off-diagonal
    beta_k = sqrt(k(k+2a)/((2k+2a)^2-1))), polished by one Newton step
    and symmetrised.  The weights are the Christoffel numbers
    mu_0/sum_{k<n} q_k(x)^2, with mu_0 = integral_0^pi sin^p t dt.  The
    rule is certified fail-closed by the root residual |q_n/q_n'| (the
    Newton correction, free of the scale of q_n) at the final nodes.
    Exact for polynomials of degree <= 2n-1.
    """
    a = 0.5 * (sin_power - 1)
    k = np.arange(1.0, n + 1)
    beta = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a) ** 2 - 1.0))
    roots = np.linalg.eigvalsh(np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
    p, dp, _ = _recurrence(beta, roots)
    roots = roots - p / dp
    # Ascending nodes with the exact symmetry x_k = -x_{n+1-k}.
    roots = 0.5 * (roots - roots[::-1])
    p, dp, squares = _recurrence(beta, roots)
    residual = float(np.max(np.abs(p / dp)))
    if exceeds(residual, NEWTON_TOL):
        raise ConstructionError(
            f"Gauss root residual {residual:.3e} exceeds {NEWTON_TOL:g}", residual
        )
    # Wallis: integral_0^pi sin^p t dt from 2 (p odd) or pi (p even).
    mu0 = 2.0 if sin_power % 2 else math.pi
    for j in range(2 + sin_power % 2, sin_power + 1, 2):
        mu0 *= (j - 1) / j
    weights = mu0 / squares
    return roots, 0.5 * (weights + weights[::-1])


def gauss_legendre(n: int) -> Rule1D:
    """n-point Gauss-Legendre rule on [-1, 1], exact through degree 2n-1."""
    if n < 1:
        raise InputFormatError(f"need n >= 1, got n={n}")
    nodes, weights = _gauss_jacobi(n, 1)
    return Rule1D(nodes, weights, "gauss-legendre", 2 * n - 1)


def theta_rule(n: int, sin_power: int) -> Rule1D:
    """n-point Gauss rule for integral_0^pi f(t) sin^sin_power t dt.

    Nodes t_k = arccos x_k ascend in (0, pi), and the weights carry the
    measure: sum_k w_k cos^k t_k is exact for every k <= 2n-1.  The
    x_k are the Gauss nodes for (1-x^2)^{(sin_power-1)/2}, so
    sin_power = 1 is Gauss-Legendre in x = cos t.
    """
    if n < 1 or sin_power < 1:
        raise InputFormatError(f"need n >= 1 and sin_power >= 1, got {n} and {sin_power}")
    nodes, weights = _gauss_jacobi(n, sin_power)
    return Rule1D(np.arccos(nodes[::-1]), weights[::-1], "gauss-theta", 2 * n - 1)


@dataclass(frozen=True)
class QuadratureRule:
    """Finite node set on S^(2d-1) with normalised positive weights."""

    d: int
    N_exact: int
    points: np.ndarray
    weights: np.ndarray
    theta_counts: tuple[int, ...]

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2 * self.d:
            raise InputFormatError("points must have shape (A, 2d)")
        if weights.shape != (points.shape[0],):
            raise InputFormatError("weights must have shape (A,)")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def states(self) -> np.ndarray:
        """Complex amplitudes c = chi_odd + i chi_even, shape (A, d)."""
        return self.points[:, 0::2] + 1j * self.points[:, 1::2]


def default_theta_counts(d: int, N: int) -> tuple[int, ...]:
    """Minimal node counts for degree-2N exactness: N+1 on each of the 2d-2 polar angles."""
    return (N + 1,) * (2 * d - 2)


def sphere_grid(d: int, N: int, *, theta_counts: tuple[int, ...] | None = None) -> QuadratureRule:
    """Product quadrature on S^(2d-1) exact for the level-N frame operator.

    The theta_counts override exists for experiments and negative
    controls; the default is default_theta_counts.  Every node has
    phi = 0, and the weights are normalised to sum to 1, turning the
    rule into a weighted state average.  Raises ResourceLimitError
    before building if A*d_N^2 exceeds POVMQUAD_BUILD_GUARD.
    """
    if d < 2 or N < 1:
        raise InputFormatError(f"need d >= 2 and N >= 1, got d={d}, N={N}")
    m = 2 * d
    counts = default_theta_counts(d, N) if theta_counts is None else tuple(theta_counts)
    if len(counts) != m - 2 or any(c < 1 for c in counts):
        raise InputFormatError(f"theta_counts must be {m - 2} positive integers")
    total = math.prod(counts)
    cost = total * sym_dim(d, N) ** 2
    check_cost(f"construction cost A*d_N^2 for d={d}, N={N}", cost, BUILD_GUARD_ENV)

    rules = [theta_rule(n, m - 1 - j) for j, n in enumerate(counts, start=1)]
    weights = reduce(np.multiply.outer, [r.weights for r in rules]).ravel()
    points = np.zeros((total, m), dtype=np.float64)
    sin_cum = np.ones(total, dtype=np.float64)
    for j, theta in enumerate(np.meshgrid(*(r.nodes for r in rules), indexing="ij")):
        theta = theta.ravel()
        points[:, j] = sin_cum * np.cos(theta)
        sin_cum = sin_cum * np.sin(theta)
    points[:, m - 2] = sin_cum
    weights = weights / math.fsum(weights)
    return QuadratureRule(d=d, N_exact=N, points=points, weights=weights, theta_counts=counts)


def chi_to_state(chi: np.ndarray) -> PureState:
    """Complex state for a real unit vector chi on S^(2d-1).

    Requires len(chi) even and >= 4 and |chi| = 1 within 1e-10; the
    result is renormalised to machine precision.
    """
    vec = np.asarray(chi, dtype=np.float64).reshape(-1)
    if vec.size < 4 or vec.size % 2 != 0:
        raise InputFormatError(f"chi must have even length >= 4, got {vec.size}")
    norm = float(np.linalg.norm(vec))
    if exceeds(abs(norm - 1.0), CHI_NORM_TOL):
        raise InputFormatError(
            f"|chi| deviates from 1 by {abs(norm - 1.0):.3e} (tol {CHI_NORM_TOL:g})"
        )
    amps = (vec[0::2] + 1j * vec[1::2]) / norm
    return PureState(amps)


def verify_exactness(rule: QuadratureRule, N: int) -> float:
    """Max-modulus residual of the degree-2N moment identity.

    The level-N frame operator sum_a w_a v_a v_a^dagger of an exact rule
    equals identity/d_N: the weighted average of rho_a^{tensor N} matches
    the uniform state average.  Returns max |G_N - I/d_N|.
    """
    return frame_residual(rule.states(), rule.weights, N)
