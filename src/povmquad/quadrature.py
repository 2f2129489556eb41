"""Exact product quadratures on the unit hypersphere S^(2d-1).

A pure state in C^d is a point chi on the real unit sphere of dimension
m = 2d via c_i = chi_{2i-1} + i*chi_{2i}.  In polar coordinates

    chi_1 = cos t_1,
    chi_k = sin t_1 ... sin t_{k-1} cos t_k          (k <= m-2),
    chi_{m-1} = sin t_1 ... sin t_{m-2} cos phi,
    chi_m     = sin t_1 ... sin t_{m-2} sin phi,

with surface measure prod_j sin^{m-1-j} t_j dt_j dphi.  A monomial
chi^nu of total degree 2N factorises over the angles, so a product of
one-dimensional rules that are exact for the per-angle factors yields a
finite node set reproducing every degree-2N sphere moment exactly.

Per-angle rule choice: the phase angle phi takes an n-point trapezoid
rule (exact for trigonometric degree < n).  A polar angle at position j
carries the measure factor sin^{m-1-j} t.  When m-1-j is odd, one sine
absorbs into the substitution x = cos t and the rest pair into
(1-x**2)^k, so Gauss-Legendre nodes in x apply; when m-1-j is even the
surviving integrands are polynomials in cos t alone and the n-point
midpoint rule on [0, pi] (Gauss-Chebyshev nodes) is exact through
degree 2n-1.  Monomials odd in any coordinate integrate to zero and
every rule reproduces those zeros by node symmetry, so only all-even
monomials constrain the node counts.  The measure exponent m-1-j grows
toward outer positions, which is why the minimal counts below increase
by one every two positions outward from the innermost angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InputFormatError, exceeds
from .symmetric import PureState, frame_residual

NEWTON_TOL = 1e-14
CHI_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Rule1D:
    """One-dimensional quadrature rule with an exactness certificate.

    degree semantics by kind: "gauss-legendre" and "gauss-legendre-theta"
    are exact for polynomial integrands (in x = cos t for the theta form)
    up to the stated degree; "midpoint-theta" for polynomials in cos t
    with even sine powers up to the stated degree; "trapezoid-phase" for
    trigonometric polynomials up to the stated degree.
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


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n: int) -> Rule1D:
    """n-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Legendre recurrence (zero diagonal, off-diagonal
    beta_k = k/sqrt(4k^2-1)), polished by one Newton step on P_n.  The
    rule is certified fail-closed by the root residual |P_n/P_n'| at
    the symmetrised nodes.  Exact for polynomials of degree <= 2n-1.
    """
    if n < 1:
        raise InputFormatError(f"need n >= 1, got n={n}")
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    roots = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    p, dp = _legendre_and_derivative(n, roots)
    roots = roots - p / dp
    # Ascending nodes with the exact symmetry x_k = -x_{n+1-k}.
    roots = 0.5 * (roots - roots[::-1])
    p, dp = _legendre_and_derivative(n, roots)
    # Root-distance residual |P_n/P_n'|: the Newton correction at the
    # final nodes, invariant to the growth of P_n' with n.
    residual = float(np.max(np.abs(p / dp)))
    if exceeds(residual, NEWTON_TOL):
        raise ConstructionError(
            f"Legendre root residual {residual:.3e} exceeds {NEWTON_TOL:g}", residual
        )
    weights = 2.0 / ((1.0 - roots**2) * dp**2)
    weights = 0.5 * (weights + weights[::-1])
    return Rule1D(roots, weights, "gauss-legendre", 2 * n - 1)


def trapezoid_phase(n: int) -> Rule1D:
    """n equispaced nodes 2 pi k/n on [0, 2 pi), weights 2 pi/n.

    Exact for trigonometric polynomials of degree <= n-1.
    """
    if n < 1:
        raise InputFormatError(f"need n >= 1, got n={n}")
    nodes = 2.0 * math.pi * np.arange(n) / n
    weights = np.full(n, 2.0 * math.pi / n)
    return Rule1D(nodes, weights, "trapezoid-phase", n - 1)


def theta_rule_gl(n: int, sin_power: int = 0) -> Rule1D:
    """Gauss-Legendre rule transplanted to [0, pi] for polar angles.

    Approximates integral_0^pi f(t) sin(t)^sin_power dt as
    sum_k w_k f(t_k) with t_k = arccos(x_k) and the measure factor
    folded into the weights; with sin_power = 0 the weights are the
    classical w_k^gl / sin t_k.  Exact whenever
    f(t) sin(t)^sin_power = cos^nu t sin^{mu+1} t with mu even and
    nu + mu <= 2n-1.
    """
    if sin_power < 0:
        raise InputFormatError(f"need sin_power >= 0, got {sin_power}")
    base = gauss_legendre(n)
    theta = np.arccos(base.nodes[::-1])
    sines = np.sin(theta)
    weights = base.weights[::-1] * sines ** (sin_power - 1)
    return Rule1D(theta, weights, "gauss-legendre-theta", base.degree)


def theta_rule_midpoint(n: int) -> Rule1D:
    """Midpoint rule on [0, pi] for polar angles with even sine powers.

    Nodes t_k = (2k-1) pi/(2n), weights pi/n: the Gauss-Chebyshev rule
    in x = cos t.  The doubled-range view (the same node set covers
    [0, 2 pi) after reflection) shows it integrates
    cos^nu t sin^mu t dt over [0, pi] exactly for even mu whenever
    nu + mu <= 2n-1.
    """
    if n < 1:
        raise InputFormatError(f"need n >= 1, got n={n}")
    nodes = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    weights = np.full(n, math.pi / n)
    return Rule1D(nodes, weights, "midpoint-theta", 2 * n - 1)


@dataclass(frozen=True)
class QuadratureRule:
    """Finite node set on S^(2d-1) with normalised positive weights."""

    d: int
    N_exact: int
    points: np.ndarray
    weights: np.ndarray
    theta_counts: tuple[int, ...]
    phi_count: int

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
    """Minimal per-angle node counts certifying degree-2N exactness.

    Position j (1-based, j = 1..2d-2) needs its rule exact through
    degree 2N plus the measure exponent m-1-j, giving
    n_j = N + ceil((m-j)/2).  The innermost pair reduces to the familiar
    N+1 Gauss-Legendre and N+2 midpoint counts.
    """
    m = 2 * d
    return tuple(N + (m - j + 1) // 2 for j in range(1, m - 1))


def sphere_grid(
    d: int,
    N: int,
    *,
    theta_counts: tuple[int, ...] | None = None,
    phi_count: int | None = None,
) -> QuadratureRule:
    """Product quadrature on S^(2d-1) exact for all degree-2N moments.

    Optional count overrides exist for experiments and negative
    controls; the defaults are the minimal certified-exact counts
    (phi: 2N+1, polar: default_theta_counts).  Weights are normalised
    to sum to 1, turning the rule into a weighted state average.
    """
    if d < 2 or N < 1:
        raise InputFormatError(f"need d >= 2 and N >= 1, got d={d}, N={N}")
    m = 2 * d
    counts = default_theta_counts(d, N) if theta_counts is None else tuple(theta_counts)
    if len(counts) != m - 2 or any(c < 1 for c in counts):
        raise InputFormatError(f"theta_counts must be {m - 2} positive integers")
    n_phi = 2 * N + 1 if phi_count is None else int(phi_count)
    if n_phi < 1:
        raise InputFormatError(f"phi_count must be positive, got {n_phi}")

    axis_nodes: list[np.ndarray] = []
    axis_weights: list[np.ndarray] = []
    for j in range(1, m - 1):
        measure_power = m - 1 - j
        if measure_power % 2 == 1:
            rule = theta_rule_gl(counts[j - 1], sin_power=measure_power)
            axis_weights.append(rule.weights)
        else:
            rule = theta_rule_midpoint(counts[j - 1])
            axis_weights.append(rule.weights * np.sin(rule.nodes) ** measure_power)
        axis_nodes.append(rule.nodes)
    phi_rule = trapezoid_phase(n_phi)
    axis_nodes.append(phi_rule.nodes)
    axis_weights.append(phi_rule.weights)

    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    total = math.prod(a.size for a in axis_nodes)
    weights = np.ones(total, dtype=np.float64)
    shape = tuple(a.size for a in axis_nodes)
    for axis, w in enumerate(axis_weights):
        expand = [1] * len(shape)
        expand[axis] = shape[axis]
        weights = weights * np.broadcast_to(w.reshape(expand), shape).ravel()

    points = np.empty((total, m), dtype=np.float64)
    sin_cum = np.ones(total, dtype=np.float64)
    for j in range(m - 2):
        theta = mesh[j].ravel()
        points[:, j] = sin_cum * np.cos(theta)
        sin_cum = sin_cum * np.sin(theta)
    phi = mesh[m - 2].ravel()
    points[:, m - 2] = sin_cum * np.cos(phi)
    points[:, m - 1] = sin_cum * np.sin(phi)

    weights = weights / math.fsum(weights)
    return QuadratureRule(
        d=d,
        N_exact=N,
        points=points,
        weights=weights,
        theta_counts=counts,
        phi_count=n_phi,
    )


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
