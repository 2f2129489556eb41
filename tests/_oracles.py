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
from functools import reduce

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


def sym_basis_bruteforce(d: int, n: int) -> np.ndarray:
    """Orthonormal symmetric basis, rows = occupations, columns = d**n.

    Each row is the equal-amplitude superposition of every distinct
    arrangement of the occupation multiset, built by enumerating the
    arrangements one by one.
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
    return basis


def projector_bruteforce(d: int, n: int) -> np.ndarray:
    """Symmetric projector as sum of occupation-state outer products."""
    basis = sym_basis_bruteforce(d, n)
    return basis.conj().T @ basis


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
# Grid manipulation for negative controls


def truncate_outer_angle(rule):
    """Keep only the lower half of the outermost polar angle's nodes.

    The grid is a product with the outermost angle t_1 as its slowest
    axis.  Returns (states, weights) with the surviving weights left
    unrenormalised: a deliberately broken node set whose weighted
    moments are visibly wrong.
    """
    outer = rule.theta_counts[0]
    outer_index = np.arange(rule.n_points) // (rule.n_points // outer)
    keep = outer_index < outer // 2
    return rule.states()[keep], rule.weights[keep]


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
