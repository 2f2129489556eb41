"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package: dense generic quadrature instead of the minimal exact rules,
explicit multiset/permutation enumeration instead of closed forms, and
brute-force full-space tensor algebra instead of symmetric-subspace
shortcuts.  Tests compare package output against these oracles.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache, partial, reduce

import numpy as np

# Registry of acceptance pass/fail lines; conftest prints it in the
# terminal summary so every criterion shows one line in the test log.
ACCEPTANCE_LINES: list[str] = []

ACCEPTANCE_PAIRS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]


def record(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    ACCEPTANCE_LINES.append(f"[{verdict}] {name}{suffix}")


# ---------------------------------------------------------------------------
# Full-space tensor algebra


def tensor_power(amps: np.ndarray, n: int) -> np.ndarray:
    """|c>^{tensor n} as a dense vector of length d**n."""
    return reduce(np.kron, [np.asarray(amps, dtype=np.complex128)] * n)


def occupations_lex_desc(d: int, n: int) -> list[tuple[int, ...]]:
    """All occupation tuples summing to n, lexicographically descending."""
    occs = [occ for occ in itertools.product(range(n + 1), repeat=d) if sum(occ) == n]
    occs.sort(reverse=True)
    return occs


@lru_cache(maxsize=None)
def sym_basis_bruteforce(d: int, n: int) -> np.ndarray:
    """Orthonormal symmetric basis, rows = occupations, columns = d**n.

    Each row is the equal-amplitude superposition of every distinct
    arrangement of the occupation multiset, built by enumerating the
    arrangements one by one.  Cached and read-only, because n = 9
    enumerates 9! arrangements per row.
    """
    occs = occupations_lex_desc(d, n)
    basis = np.zeros((len(occs), d**n), dtype=np.complex128)
    for row, occ in enumerate(occs):
        letters = [k for k in range(d) for _ in range(occ[k])]
        strings = set(itertools.permutations(letters))
        amp = 1.0 / math.sqrt(len(strings))
        for s in strings:
            idx = 0
            for digit in s:
                idx = idx * d + digit
            basis[row, idx] = amp
    basis.setflags(write=False)
    return basis


def projector_bruteforce(d: int, n: int) -> np.ndarray:
    """Symmetric projector as sum of occupation-state outer products."""
    basis = sym_basis_bruteforce(d, n)
    return basis.conj().T @ basis


def sym_embed_per_column(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Occupation coordinates of |phi>^{tensor n}, one basis column at a time.

    Column k is sqrt(n!/prod n_i!) prod_i a_i**n_i for the k-th
    occupation tuple, each power a binary ** and the factors multiplied
    in order i = 0, ..., d-1: the embedding formula without power tables.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    basis = occupations_lex_desc(amps.shape[1], n)
    out = np.empty((amps.shape[0], len(basis)), dtype=np.complex128)
    for k, occ in enumerate(basis):
        coeff = math.sqrt(math.factorial(n) / math.prod(math.factorial(p) for p in occ))
        cols = np.ones(amps.shape[0], dtype=np.complex128)
        for i, power in enumerate(occ):
            if power:
                cols = cols * amps[:, i] ** power
        out[:, k] = coeff * cols
    return out


def contraction_count_bruteforce(i: tuple[int, ...], j: tuple[int, ...]) -> int:
    """Number of permutations sigma with j[sigma[k]] == i[k] for all k."""
    if len(i) != len(j):
        return 0
    total = 0
    for sigma in itertools.permutations(range(len(i))):
        if all(j[sigma[k]] == i[k] for k in range(len(i))):
            total += 1
    return total


# ---------------------------------------------------------------------------
# Optimal cloner in the full space


def clone_dense(amps: np.ndarray, n: int, m: int) -> np.ndarray:
    """Dense d^m x d^m output (d_n/d_m) S_m (|psi><psi| kron 1) S_m of the cloner.

    |psi> = |c>^{tensor n} by Kronecker products, S_m the brute-force
    symmetric projector and 1 the identity on the m - n padding copies.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    d = amps.size
    psi = tensor_power(amps, n)
    padded = np.kron(np.outer(psi, psi.conj()), np.eye(d ** (m - n)))
    proj = projector_bruteforce(d, m)
    scale = math.comb(n + d - 1, d - 1) / math.comb(m + d - 1, d - 1)
    return scale * (proj @ padded @ proj)


def reduced_dense(density: np.ndarray, d: int, m: int, which: int) -> np.ndarray:
    """Partial trace of a dense m-copy operator onto copy `which` (1-based)."""
    left = d ** (which - 1)
    right = d ** (m - which)
    shaped = density.reshape(left, d, right, left, d, right)
    return np.einsum("aibajb->ij", shaped)


def two_step_dense(amps: np.ndarray, n: int, povm_m) -> float:
    """Clone-then-estimate fidelity with the dense cloner output T.

    sum_a d_m w_a <phi_a|^{tensor m} T |phi_a>^{tensor m} |<phi_a|phi>|^2
    over the elements of the m-copy family povm_m, each
    |phi_a>^{tensor m} a Kronecker power of length d^m.
    """
    m = povm_m.N
    density = clone_dense(amps, n, m)
    d_m = math.comb(m + povm_m.d - 1, povm_m.d - 1)
    total = 0.0
    for guess, weight in zip(povm_m.guesses, povm_m.weights):
        phi = tensor_power(guess, m)
        born = np.vdot(phi, density @ phi).real
        total += d_m * weight * born * abs(np.vdot(guess, amps)) ** 2
    return float(total)


def compress_to_occupation(density: np.ndarray, d: int, m: int) -> np.ndarray:
    """B T B^dagger: a dense d^m x d^m operator in occupation coordinates."""
    basis = sym_basis_bruteforce(d, m)
    return basis @ density @ basis.conj().T


def lift_to_full_space(sigma: np.ndarray, d: int, m: int) -> np.ndarray:
    """B^dagger sigma B: an occupation-basis operator as a d^m x d^m matrix.

    B is the brute-force symmetric basis, whose rows follow the
    lexicographically descending occupation order.
    """
    basis = sym_basis_bruteforce(d, m)
    return basis.conj().T @ sigma @ basis


# ---------------------------------------------------------------------------
# The package's vector contractions in numpy's BLAS and einsum forms
#
# The package forms each of these as an elementwise product and a sum,
# so that no command runs a BLAS level-1 or level-2 routine.


def overlap_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> by BLAS zdotc."""
    return complex(np.vdot(a, b))


def squared_overlaps_matvec(rows: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """|<phi_a|phi>|^2 for each row phi_a, by one matrix-vector product."""
    return np.abs(np.asarray(rows) @ np.conj(amps)) ** 2


def single_particle_reduced_einsum(density: np.ndarray, d: int, m: int) -> np.ndarray:
    """rho_ij = (1/m) sum_q sqrt((q_i+1)(q_j+1)) sigma[q+e_i, q+e_j] by one einsum.

    q runs over the occupations of m-1 copies; the rows and columns of
    density follow the lexicographically descending occupations of m.
    """
    position = {occ: k for k, occ in enumerate(occupations_lex_desc(d, m))}
    lower = occupations_lex_desc(d, m - 1)
    raised = np.array(
        [[position[tuple(q[k] + (k == i) for k in range(d))] for i in range(d)] for q in lower]
    )
    lift = np.sqrt(np.array(lower, dtype=np.float64) + 1.0)
    block = density[raised[:, :, None], raised[:, None, :]]
    return np.einsum("qi,qj,qij->ij", lift, lift, block) / m


def single_particle_fidelity_vdot(reduced: np.ndarray, amps: np.ndarray) -> float:
    """<phi| reduced |phi> by a matrix-vector product and zdotc."""
    return float(np.vdot(amps, reduced @ amps).real)


def two_step_components_matvec(density: np.ndarray, amps: np.ndarray, n: int,
                               povm_m) -> tuple[float, float]:
    """(pipeline, closed form) of clone-then-estimate by matrix-vector and vector products.

    pipeline = sum_a d_m w_a e_a^dagger sigma e_a |<phi_a|phi>|^2 and
    closed = d_n sum_a w_a |<phi_a|phi>|^{2(n+1)}, e_a the m-copy
    occupation coordinates of the element phi_a.
    """
    from povmquad import sym_embed_batch

    d, m = povm_m.d, povm_m.N
    emb = sym_embed_batch(povm_m.guesses, m)
    born = np.array([np.vdot(e, density @ e).real for e in emb])
    fids = squared_overlaps_matvec(povm_m.guesses, amps)
    pipeline = math.comb(m + d - 1, d - 1) * float((povm_m.weights * born) @ fids)
    closed = math.comb(n + d - 1, d - 1) * float(povm_m.weights @ fids ** (n + 1))
    return pipeline, closed


# ---------------------------------------------------------------------------
# Haar unitaries by LAPACK QR


def haar_random_unitary(d: int, seed_or_stream: random.Random | int) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Gaussian matrix.

    The columns of Z are d rows of haar_random_states: d complex normal
    vectors, each divided by its norm.  Scaling column j of a Gaussian
    matrix by c_j > 0 scales column j of R in Z = QR by c_j and leaves Q
    and the phases of R's diagonal as they are, so the unit columns give
    the Q of the Gaussian matrix itself.  Those diagonal phases are
    divided out, so the distribution is exactly Haar rather than
    QR-convention dependent.  Seeds are validated as haar_random_states
    validates them.
    """
    from povmquad import InputFormatError, haar_random_states

    if d < 2:
        raise InputFormatError(f"need d >= 2, got d={d}")
    q, r = np.linalg.qr(haar_random_states(d, d, seed_or_stream).T)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


# ---------------------------------------------------------------------------
# Dense generic integration over the state sphere

_mesh_cache: dict = {}


def hypersphere_mesh(d: int, n_theta: int = 14, n_phi: int = 14):
    """Dense angle-space mesh: states (A, d) and averaging weights (A,).

    Generic Gauss-Legendre nodes in each polar angle with the surface
    measure kept inside the integrand (no exactness tricks), plus an
    equispaced phase grid.  Accurate to ~1e-12 for the low-degree
    integrands used in tests; in no way minimal or specialised.
    """
    key = (d, n_theta, n_phi)
    if key in _mesh_cache:
        return _mesh_cache[key]
    m = 2 * d
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * math.pi * (x + 1.0)
    w_theta = 0.5 * math.pi * wx
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * math.pi / n_phi)

    axes = [theta] * (m - 2) + [phi]
    axis_w = [w_theta * np.sin(theta) ** (m - 1 - j) for j in range(1, m - 1)]
    axis_w.append(w_phi)

    mesh = np.meshgrid(*axes, indexing="ij")
    total = int(np.prod([a.size for a in axes]))
    shape = tuple(a.size for a in axes)
    weights = np.ones(total)
    for axis, w in enumerate(axis_w):
        expand = [1] * len(shape)
        expand[axis] = shape[axis]
        weights = weights * np.broadcast_to(w.reshape(expand), shape).ravel()
    weights = weights / weights.sum()

    chi = np.empty((total, m))
    sin_cum = np.ones(total)
    for j in range(m - 2):
        t = mesh[j].ravel()
        chi[:, j] = sin_cum * np.cos(t)
        sin_cum = sin_cum * np.sin(t)
    ph = mesh[m - 2].ravel()
    chi[:, m - 2] = sin_cum * np.cos(ph)
    chi[:, m - 1] = sin_cum * np.sin(ph)

    states = chi[:, 0::2] + 1j * chi[:, 1::2]
    _mesh_cache[key] = (states, weights)
    return states, weights


def _index_products(states: np.ndarray, length: int) -> np.ndarray:
    """V[s, K] = prod_k c_s[K_k] over all d**length multi-indices K."""
    count = states.shape[0]
    vals = np.ones((count, 1), dtype=np.complex128)
    for _ in range(length):
        vals = (vals[:, :, None] * states[:, None, :]).reshape(count, -1)
    return vals


def moment_tensor(states: np.ndarray, weights: np.ndarray, length: int,
                  chunk: int = 65536) -> np.ndarray:
    """T[a, b] = weighted average of prod c_a prod conj(c_b), both length `length`.

    a and b are flattened multi-indices over d**length; row-major with
    the first tuple position most significant.
    """
    d = states.shape[1]
    dim = d**length
    out = np.zeros((dim, dim), dtype=np.complex128)
    for start in range(0, states.shape[0], chunk):
        block = states[start : start + chunk]
        wb = weights[start : start + chunk]
        vals = _index_products(block, length)
        out += (vals * wb[:, None]).T @ vals.conj()
    return out


def moment_tensor_numeric(d: int, length: int, n_theta: int = 14) -> np.ndarray:
    """Sphere-average moment tensor by dense generic integration."""
    states, weights = hypersphere_mesh(d, n_theta=n_theta, n_phi=4 * length + 6)
    return moment_tensor(states, weights, length)


def moment_tensor_mc(d: int, length: int, samples: int, seed: int,
                     block: int = 10000):
    """Monte Carlo moment tensor with per-component block standard errors.

    Returns (mean, stderr_real, stderr_imag); the standard errors come
    from the spread of `samples // block` independent block means.
    """
    rng = np.random.default_rng(seed)
    n_blocks = samples // block
    dim = d**length
    means = np.empty((n_blocks, dim, dim), dtype=np.complex128)
    for b in range(n_blocks):
        z = rng.standard_normal((block, d)) + 1j * rng.standard_normal((block, d))
        states = z / np.linalg.norm(z, axis=1, keepdims=True)
        vals = _index_products(states, length)
        means[b] = vals.T @ vals.conj() / block
    mean = means.mean(axis=0)
    stderr_re = means.real.std(axis=0, ddof=1) / math.sqrt(n_blocks)
    stderr_im = means.imag.std(axis=0, ddof=1) / math.sqrt(n_blocks)
    return mean, stderr_re, stderr_im


# ---------------------------------------------------------------------------
# Reference grids and negative controls


def polar_grid(d: int, n: int):
    """The polar product grid on S^(2d-1), the layout of older POVM files.

    A state is a real unit vector chi in R^(2d), c_i = chi_{2i-1} +
    i chi_{2i}, in polar angles t_1..t_{2d-2} and one phase phi = 0.
    Angle t_j gets the (n+1)-node Gauss rule for the measure
    sin^p t dt, p = 2d-1-j, i.e. Gauss-Jacobi in x = cos t for the weight
    (1-x^2)^((p-1)/2), here from scipy.  Returns (states, weights) with
    A = (n+1)^(2d-2) rows and weights summing to 1.
    """
    from scipy.special import roots_jacobi

    m = 2 * d
    angles, factors = [], []
    for j in range(1, m - 1):
        a = 0.5 * (m - 2 - j)
        x, w = roots_jacobi(n + 1, a, a)
        angles.append(np.arccos(x[::-1]))
        factors.append(w[::-1])
    weights = reduce(np.multiply.outer, factors).ravel()
    chi = np.zeros((weights.size, m))
    sin_cum = np.ones(weights.size)
    for j, theta in enumerate(np.meshgrid(*angles, indexing="ij")):
        theta = theta.ravel()
        chi[:, j] = sin_cum * np.cos(theta)
        sin_cum = sin_cum * np.sin(theta)
    chi[:, m - 2] = sin_cum
    return chi[:, 0::2] + 1j * chi[:, 1::2], weights / math.fsum(weights)


def moduli_lattice_grid(d: int, counts, M: int, z, drop=()):
    """Moduli x phase-lattice grid assembled from its definition, with scipy rules.

    Simplex coordinate j = 1..d-1 gets the counts[j-1]-node Gauss-Jacobi
    rule for (1-u)^(d-1-j) on [0, 1]; x_j = u_j prod_{i<j} (1-u_i) and
    x_d = prod_{i<d} (1-u_i).  The phases are theta_j = 2 pi t z_j / M
    for j < d and theta_d = 0, over the lattice points t = 0..M-1 not in
    drop.  Rows run moduli-major, lattice point fastest.  Returns
    (states, weights) with the weights summing to 1.
    """
    from scipy.special import roots_jacobi

    rules = []
    for j, count in enumerate(counts, start=1):
        x, w = roots_jacobi(count, d - 1 - j, 0)
        rules.append(((1.0 + x) / 2.0, w))
    moduli = []
    for point in itertools.product(*(range(len(u)) for u, _ in rules)):
        rest, x, weight = 1.0, [], 1.0
        for (u, w), k in zip(rules, point):
            x.append(rest * u[k])
            rest *= 1.0 - u[k]
            weight *= w[k]
        moduli.append((x + [rest], weight))
    keep = [t for t in range(M) if t not in drop]
    states, weights = [], []
    for x, weight in moduli:
        for t in keep:
            phases = [np.exp(2j * np.pi * (t * zj % M) / M) for zj in z] + [1.0]
            states.append(np.sqrt(x) * np.array(phases))
            weights.append(weight)
    weights = np.array(weights)
    return np.array(states), weights / math.fsum(weights)


def recurrence_numpy(jacobi, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """quadrature._recurrence over an array of x: q_n(x), q_n'(x), sum_{k<n} q_k(x)^2.

    The numpy form the package used before it took one Python float x
    at a time.
    """
    q_prev = dq_prev = dq = squares = np.zeros_like(x)
    q = np.ones_like(x)
    b_prev = 0.0
    for a, b in zip(*jacobi):
        squares = squares + q * q
        dq_prev, dq = dq, (q + (x - a) * dq - b_prev * dq_prev) / b
        q_prev, q = q, ((x - a) * q - b_prev * q_prev) / b
        b_prev = b
    return q, dq, squares


def _jacobi_numpy(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the Golub-Welsch Jacobi matrix for (1-x)^alpha, in numpy."""
    diag = np.zeros(n)
    if alpha:
        s = 2.0 * np.arange(n) + alpha
        diag = -alpha**2 / (s * (s + 2.0))
    k = np.arange(1.0, n + 1)
    s = 2.0 * k + alpha
    off = np.sqrt((2.0 * k * (k + alpha)) ** 2 / (s * s * (s * s - 1.0)))
    return diag, off


def gauss_jacobi_numpy(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """quadrature._gauss_jacobi as the package formed it in numpy arrays.

    The same Sturm bisection (the package's _bisect and _sturm_count),
    fed and finished by numpy elementwise operations: the Jacobi matrix,
    the square roots of the alpha = 0 block, the Newton step and the
    Christoffel weights.  Without the certificates.
    """
    from povmquad.quadrature import _bisect, _sturm_count

    diag, off = _jacobi_numpy(n, alpha)
    c2 = np.append(off[:-1] ** 2, 0.0)
    if alpha:
        rows = list(zip(diag.tolist(), [0.0, *c2[:-1].tolist()]))
        roots = np.array(_bisect(partial(_sturm_count, rows), n, -1.0, 1.0))
    else:
        pairs = c2[: n - n % 2].reshape(-1, 2)
        couplings = pairs[:-1, 1] * pairs[1:, 0]
        rows = list(zip(pairs.sum(axis=1).tolist(), [0.0, *couplings.tolist()]))
        positive = np.sqrt(_bisect(partial(_sturm_count, rows), len(rows), 0.0, 1.0))
        roots = np.concatenate((-positive[::-1], np.zeros(n % 2), positive))
    p, dp, _ = recurrence_numpy((diag, off), roots)
    roots = roots - p / dp
    _, _, squares = recurrence_numpy((diag, off), roots)
    return roots, 2.0 ** (alpha + 1) / (alpha + 1) / squares


def sphere_grid_numpy(d: int, n: int, M: int, z) -> tuple[np.ndarray, np.ndarray]:
    """(weights, guesses) of quadrature.sphere_grid(d, n) on lattice (M, z), assembled in numpy.

    The package's construction before it ran in Python floats: moduli
    from gauss_jacobi_numpy by outer products, the phase table
    exp(2 pi i (t z_j mod M) / M) by np.exp, and their product.
    """
    nodes_per_coordinate = (n + 2) // 2
    x = np.empty((1, 0))
    rest = weights = np.ones(1)
    for j in range(1, d):
        nodes, w = gauss_jacobi_numpy(nodes_per_coordinate, d - 1 - j)
        u = 0.5 * (1.0 + nodes)
        x = np.column_stack([np.repeat(x, nodes_per_coordinate, axis=0), np.outer(rest, u).ravel()])
        rest = np.outer(rest, 1.0 - u).ravel()
        weights = np.outer(weights, np.ldexp(w, -math.frexp(math.fsum(w))[1])).ravel()
    x = np.column_stack([x, rest])
    index = np.array([[t * zj % M for zj in (*z, 0)] for t in range(M)], dtype=np.float64)
    phases = np.exp(2j * np.pi * index / M)
    states = (np.sqrt(x)[:, None, :] * phases).reshape(-1, d)
    weights = np.repeat(weights, M)
    return weights / math.fsum(weights), states


def gauss_jacobi_eigvalsh(n: int, alpha: int):
    """The Golub-Welsch rule of quadrature._gauss_jacobi, started from LAPACK's eigenvalues.

    The construction before Sturm bisection: np.linalg.eigvalsh of the
    dense Jacobi matrix, then the package's own Newton step,
    symmetrisation at alpha = 0 and Christoffel weights.  Only the
    eigenvalue solver differs, so the two agree to rounding level.
    """
    diag, off = _jacobi_numpy(n, alpha)
    roots = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    p, dp, _ = recurrence_numpy((diag, off), roots)
    roots = roots - p / dp
    if not alpha:
        roots = 0.5 * (roots - roots[::-1])
    _, _, squares = recurrence_numpy((diag, off), roots)
    weights = 2.0 ** (alpha + 1) / (alpha + 1) / squares
    if not alpha:
        weights = 0.5 * (weights + weights[::-1])
    return roots, weights


def korobov_lattice_sorted(d: int, n: int) -> tuple[int, tuple[int, ...]]:
    """Smallest Korobov lattice (M, z) separating the occupation tuples of n, by sorting.

    The first search, by sorting and without a guard: M = d_n,
    d_n + 1, ...; for each, every g = 1..M-1 at once, each column of
    residues sorted and checked for repeats; the first g that has none.
    """
    projected = np.array(occupations_lex_desc(d, n), dtype=np.int64)[:, :-1]
    for M in itertools.count(len(projected)):
        z = np.ones((d - 1, M - 1), dtype=np.int64)
        for j in range(1, d - 1):
            z[j] = z[j - 1] * np.arange(1, M) % M
        values = np.sort(projected @ z % M, axis=0)
        separated = np.flatnonzero(np.all(np.diff(values, axis=0), axis=0))
        if separated.size:
            return M, tuple(z[:, separated[0]].tolist())


def lattice_phase_index(M: int, z) -> np.ndarray:
    """The phase index t*z_j mod M of a rank-1 lattice, as an int64 array.

    Row t = 0..M-1, column j = 1..d; the last column, theta_d's, is 0.
    The numpy integer formula sphere_grid used before it formed the
    index in Python integers.
    """
    return np.outer(np.arange(M), (*z, 0)) % M


def truncate_lattice(rule):
    """Keep only the lattice points t < M/2 of a sphere_grid rule.

    The lattice point is the fastest axis of the grid.  Returns
    (states, weights) with the surviving weights left unrenormalised: a
    deliberately broken node set whose weighted moments are visibly
    wrong.
    """
    M = rule.provenance["lattice"]["M"]
    keep = np.arange(rule.n_outcomes) % M < M / 2
    return rule.guesses[keep], rule.weights[keep]


def gram_residual_states(states: np.ndarray, weights: np.ndarray, n: int,
                         sym_embed_batch) -> float:
    """Max-modulus of sum_a w_a v_a v_a^dagger - I/d_n for given nodes."""
    emb = sym_embed_batch(states, n)
    dim = emb.shape[1]
    gram = (emb * weights[:, None]).T @ emb.conj()
    gram[np.diag_indices(dim)] -= 1.0 / dim
    return float(np.max(np.abs(gram)))


def max_ray_overlap(states: np.ndarray, block: int = 512) -> float:
    """Largest |<phi_a|phi_b>|^2 over pairs a != b of unit-norm rows.

    The Gram matrix is formed one block of rows at a time, so memory is
    O(block * A) instead of O(A^2).
    """
    worst = 0.0
    for start in range(0, states.shape[0], block):
        fids = np.abs(states[start : start + block].conj() @ states.T) ** 2
        rows = np.arange(fids.shape[0])
        fids[rows, start + rows] = 0.0
        worst = max(worst, float(fids.max()))
    return worst


# ---------------------------------------------------------------------------
# Fidelity by the direct sum over outcomes


def pointwise_fidelity_direct(guesses: np.ndarray, weights: np.ndarray, n: int,
                              states: np.ndarray) -> np.ndarray:
    """d_n sum_a w_a |<phi_a|phi>|^{2(n+1)} for each row of states.

    The A-term overlap sum the package replaces by the level-(n+1)
    frame operator; d_n = C(n+d-1, d-1) is computed here directly.
    """
    d = guesses.shape[1]
    d_n = math.comb(n + d - 1, d - 1)
    overlaps = np.abs(states @ guesses.conj().T) ** 2
    return d_n * (overlaps ** (n + 1) @ weights)


def mean_fidelity_mc_whole_block(povm, samples: int, seed: int, block: int) -> float:
    """The Monte Carlo fidelity kernel with each block evaluated whole.

    The same draws as the package (blocks of `block` states, one after
    another from one random.Random(seed)) and the same per-row formula
    d_N ((u* @ G_{N+1}) * u).sum(axis=1).real, formed out of place over
    the whole block, and the same block-order sum.
    """
    from povmquad import frame_operator, haar_random_states, sym_embed_batch

    frame = frame_operator(povm.guesses, povm.weights, povm.N + 1)
    d_n = math.comb(povm.N + povm.d - 1, povm.d - 1)
    stream = random.Random(seed)
    total = 0.0
    for start in range(0, samples, block):
        states = haar_random_states(povm.d, min(block, samples - start), stream)
        u = sym_embed_batch(states, povm.N + 1)
        vals = d_n * ((u.conj() @ frame) * u).sum(axis=1).real
        total += float(np.sum(vals))
    return total / samples


def majority_vote_values(n: int, samples: int, seed: int) -> np.ndarray:
    """Each sample's fidelity under the per-copy majority vote, drawn whole.

    Sample k reads uniforms k(n+5) .. k(n+5)+n+4 of one random.Random(seed)
    stream: two Exp(1) moduli -log u and two phases give p_0 =
    E_0 / (E_0 + E_1), then n copies, each found in |0> when its uniform
    is at most p_0, then one tie coin.  The guess is |0> when more than
    half the copies, or half and the coin at most 1/2, say so.
    """
    from povmquad.symmetric import _uniforms

    u = _uniforms(random.Random(seed), samples * (n + 5)).reshape(samples, n + 5)
    exp = -np.log(u[:, :2])
    p0 = exp[:, 0] / exp.sum(axis=1)
    zeros = np.sum(u[:, 4 : 4 + n] <= p0[:, None], axis=1)
    guess_zero = (2 * zeros > n) | ((2 * zeros == n) & (u[:, 4 + n] <= 0.5))
    return np.where(guess_zero, p0, 1.0 - p0)


def majority_vote_beta_sum(n: int) -> Fraction:
    """The per-copy majority vote's mean fidelity as a sum of Beta integrals.

    p = |c_0|^2 of a Haar qubit state is uniform on [0, 1].  k of the n
    copies are found in |0> with probability C(n, k) p^k (1-p)^(n-k); the
    guess |0> then has fidelity p, the guess |1> fidelity 1 - p, and a
    tie (2k = n) guesses either with probability 1/2, fidelity 1/2.  Each
    term integrates exactly as B(a+1, b+1) = a! b! / (a+b+1)!.
    """

    def beta(a: int, b: int) -> Fraction:
        return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))

    total = Fraction(0)
    for k in range(n + 1):
        if 2 * k > n:
            integral = beta(k + 1, n - k)
        elif 2 * k < n:
            integral = beta(k, n - k + 1)
        else:
            integral = beta(k, n - k) / 2
        total += math.comb(n, k) * integral
    return total


def mean_fidelity_exact_fraction(povm) -> float:
    """(d_N / d_{N+1}) sum_a w_a as one Fraction, rounded to a float once.

    The weights are added one at a time as exact rationals, where the
    package shifts integer numerators onto one power-of-two denominator.
    """
    d_n = math.comb(povm.N + povm.d - 1, povm.d - 1)
    d_n1 = math.comb(povm.N + povm.d, povm.d - 1)
    total = Fraction(0)
    for w in povm.weights.tolist():
        total += Fraction(w)
    return float(Fraction(d_n, d_n1) * total)


# ---------------------------------------------------------------------------
# POVM file layout by the generic JSON encoder


def povm_json_reference(povm) -> str:
    """The POVM file text as the dict-per-element json.dumps writer makes it.

    One dict per element holding format(x, ".17g") strings, encoded by
    json.dumps(sort_keys=True, indent=2): the canonical layout that
    save_povm must reproduce byte for byte.
    """

    def _format_float(x: float) -> str:
        return format(float(x), ".17g")

    elements = []
    for a in range(povm.n_outcomes):
        amps = povm.guesses[a]
        elements.append(
            {
                "w": _format_float(povm.weights[a]),
                "c": [[_format_float(z.real), _format_float(z.imag)] for z in amps],
            }
        )
    doc = {
        "format_version": "1",
        "d": povm.d,
        "N": povm.N,
        "elements": elements,
        "provenance": {str(k): v for k, v in povm.provenance.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
