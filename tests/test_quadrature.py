"""One-dimensional Gauss rules and the moduli x lattice grid, with negative controls."""

import ast
import itertools
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmquad import (
    ConstructionError,
    InputFormatError,
    PureState,
    ResourceLimitError,
    build_povm,
    frame_residual,
    gauss_legendre,
    haar_random_states,
    moment_value,
    optimal_fidelity,
    pointwise_fidelity,
    restrict_povm,
    sphere_grid,
    sym_dim,
    sym_embed_batch,
    verify_exactness,
)

from _oracles import (
    ACCEPTANCE_PAIRS,
    gauss_jacobi_eigvalsh,
    gram_residual_states,
    korobov_lattice_sorted,
    max_ray_overlap,
    moduli_lattice_grid,
    polar_grid,
    truncate_lattice,
)

# The (d, N) families of the benchmark and their element counts A.
BENCHMARK_FAMILIES = {(2, 1): 2, (2, 4): 15, (2, 8): 45, (3, 2): 28, (3, 3): 52, (3, 4): 171, (4, 2): 104}

# Largest N whose grid fits the default POVMQUAD_BUILD_GUARD, per d.
GUARD_LIMITS = {2: 99, 3: 11, 4: 5, 5: 3, 6: 3}


def lattice_of(grid) -> tuple[int, tuple[int, ...]]:
    """The phase lattice (M, z) that a grid's provenance records."""
    lattice = grid.provenance["lattice"]
    return lattice["M"], tuple(lattice["z"])


class TestGaussLegendre:
    def test_one_point(self):
        nodes, weights = gauss_legendre(1)
        assert np.array_equal(nodes, [0.0])
        assert np.array_equal(weights, [2.0])

    def test_two_point(self):
        nodes, weights = gauss_legendre(2)
        assert np.allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_three_point(self):
        nodes, weights = gauss_legendre(3)
        assert np.allclose(nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-15)
        assert np.allclose(weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 25, 51])
    def test_matches_reference_generator(self, n):
        nodes, weights = gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) < 1e-13
        assert np.max(np.abs(weights - ref_weights)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exact_through_degree_2n_minus_1(self, n):
        nodes, weights = gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(weights * nodes**k) - exact) < 1e-13

    def test_not_exact_at_degree_2n(self):
        nodes, weights = gauss_legendre(2)
        # integral of x^4 is 2/5; the two-point rule gives 2/9.
        assert abs(np.sum(weights * nodes**4) - 2.0 / 9.0) < 1e-14

    def test_node_antisymmetry_and_weight_sum(self):
        nodes, weights = gauss_legendre(7)
        assert np.max(np.abs(nodes + nodes[::-1])) == 0.0
        assert abs(math.fsum(weights) - 2.0) < 1e-14

    @pytest.mark.parametrize("n", range(1, 51))
    def test_rule_is_exactly_symmetric(self, n):
        # Mirrored start points and a zero diagonal give mirrored nodes and
        # equal weights bit for bit.
        from povmquad.quadrature import _gauss_jacobi

        nodes, weights = _gauss_jacobi(n, 0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])

    def test_rejects_zero_points(self):
        with pytest.raises(InputFormatError):
            gauss_legendre(0)

    @pytest.mark.parametrize("offset", [1e-6, math.nan])
    def test_root_residual_certificate_fails_closed(self, monkeypatch, offset):
        # q_n off by offset * q_n': the Newton step moves each node by
        # about the offset, where the shifted q_n/q_n' reads about
        # offset^2, far above NEWTON_TOL; a NaN residual must fail too.
        import povmquad.quadrature as quadrature

        original = quadrature._recurrence

        def shifted(beta, x):
            p, dp, squares = original(beta, x)
            return p + offset * dp, dp, squares

        monkeypatch.setattr(quadrature, "_recurrence", shifted)
        with pytest.raises(ConstructionError) as info:
            gauss_legendre(6)
        assert not info.value.residual <= quadrature.NEWTON_TOL


def beta_moment(k: int, alpha: int) -> float:
    """integral_0^1 u^k (1-u)^alpha du = k! alpha! / (k+alpha+1)!."""
    return math.factorial(k) * math.factorial(alpha) / math.factorial(k + alpha + 1)


def moduli_rule(n: int, alpha: int):
    """The moduli rule of sphere_grid: nodes u = (1+x)/2 and weights on [0, 1]."""
    from povmquad.quadrature import _gauss_jacobi

    x, w = _gauss_jacobi(n, alpha)
    return 0.5 * (1.0 + x), w / 2.0 ** (alpha + 1)


class TestModuliRule:
    @pytest.mark.parametrize("alpha", range(6))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 25])
    def test_matches_scipy(self, n, alpha):
        from scipy.special import roots_jacobi

        from povmquad.quadrature import _gauss_jacobi

        nodes, weights = _gauss_jacobi(n, alpha)
        x, w = roots_jacobi(n, alpha, 0)
        assert np.max(np.abs(nodes - x)) < 1e-13
        assert np.max(np.abs(weights - w)) < 1e-13 * 2.0 ** (alpha + 1)

    @pytest.mark.parametrize("alpha", range(6))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_exact_through_degree_2n_minus_1(self, n, alpha):
        nodes, weights = moduli_rule(n, alpha)
        for k in range(2 * n):
            exact = beta_moment(k, alpha)
            assert abs(np.sum(weights * nodes**k) - exact) < 1e-13 * exact

    @pytest.mark.parametrize("alpha", range(6))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_not_exact_at_degree_2n(self, n, alpha):
        nodes, weights = moduli_rule(n, alpha)
        exact = beta_moment(2 * n, alpha)
        assert abs(np.sum(weights * nodes ** (2 * n)) - exact) > 1e-8 * exact

    def test_nodes_ascend_inside_the_interval(self):
        nodes, weights = moduli_rule(6, 3)
        assert np.all(np.diff(nodes) > 0.0)
        assert 0.0 < nodes[0] and nodes[-1] < 1.0
        assert abs(math.fsum(weights) - 1.0 / 4.0) < 1e-15

    @pytest.mark.parametrize("alpha", [1, 3])
    @pytest.mark.parametrize("offset", [1e-6, math.nan])
    def test_root_residual_certificate_fails_closed(self, monkeypatch, alpha, offset):
        # Without the symmetry of alpha = 0 the Newton step follows the
        # shifted q_n, so the residual reads the offset at second order.
        import povmquad.quadrature as quadrature

        original = quadrature._recurrence

        def shifted(jacobi, x):
            p, dp, squares = original(jacobi, x)
            return p + offset * dp, dp, squares

        monkeypatch.setattr(quadrature, "_recurrence", shifted)
        with pytest.raises(ConstructionError) as info:
            quadrature._gauss_jacobi(6, alpha)
        assert not info.value.residual <= quadrature.NEWTON_TOL


def legendre_rows(n: int) -> list[tuple[float, float]]:
    """Rows (a_k, b_k^2) of the n x n Legendre Jacobi matrix: zero diagonal, b_k^2 = k^2/(4k^2-1)."""
    k = np.arange(1.0, n)
    return list(zip([0.0] * n, [0.0, *(k * k / (4.0 * k * k - 1.0)).tolist()]))


# The (n, alpha) moduli rules the benchmark families use.
BENCHMARK_RULES = sorted({((n + 2) // 2, d - 1 - j) for d, n in BENCHMARK_FAMILIES for j in range(1, d)})


class TestSturmBisection:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 50), alpha=st.integers(0, 10))
    def test_nodes_ascend_inside_and_match_lapack(self, n, alpha):
        from povmquad.quadrature import _gauss_jacobi

        nodes, weights = _gauss_jacobi(n, alpha)
        reference, _ = gauss_jacobi_eigvalsh(n, alpha)
        assert np.all(np.diff(nodes) > 0.0)
        assert -1.0 < nodes[0] and nodes[-1] < 1.0
        assert np.max(np.abs(nodes - reference)) <= 2 * np.spacing(1.0)
        mu_0 = 2.0 ** (alpha + 1) / (alpha + 1)
        assert abs(math.fsum(weights) - mu_0) <= 1e-14 * mu_0

    @pytest.mark.parametrize("n,alpha", BENCHMARK_RULES)
    def test_benchmark_rules_equal_lapack_bit_for_bit(self, n, alpha):
        # The Newton step's result moves at rounding level with its start
        # point; started from the brackets' lower ends, these rules land
        # where LAPACK's eigenvalues led.
        from povmquad.quadrature import _gauss_jacobi

        nodes, weights = _gauss_jacobi(n, alpha)
        reference_nodes, reference_weights = gauss_jacobi_eigvalsh(n, alpha)
        assert np.array_equal(nodes, reference_nodes)
        assert np.array_equal(weights, reference_weights)

    @settings(max_examples=60, deadline=None)
    @given(
        diag=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
        couplings=st.lists(st.floats(0.05, 1.0), min_size=11, max_size=11),
        x=st.floats(-3.0, 3.0),
    )
    def test_count_is_the_number_of_eigenvalues_below(self, diag, couplings, x):
        from hypothesis import assume

        from povmquad.quadrature import _sturm_count

        n = len(diag)
        off = np.array(couplings[: n - 1])
        eigenvalues = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assume(np.min(np.abs(eigenvalues - x)) > 1e-9)
        rows = list(zip(diag, [0.0, *(off * off).tolist()]))
        assert _sturm_count(rows, x) == np.count_nonzero(eigenvalues < x)

    def test_zero_pivot_is_taken_from_above(self):
        from povmquad.quadrature import _sturm_count

        # [[0, 1], [1, 0]] at x = 0 and [[1, 1], [1, 1]] at x = 1: the first
        # pivot is exactly 0, and one eigenvalue (-1, then 0) lies below x.
        assert _sturm_count([(0.0, 0.0), (0.0, 1.0)], 0.0) == 1
        assert _sturm_count([(1.0, 0.0), (1.0, 1.0)], 1.0) == 1

    def test_node_at_zero_stops_at_the_floor(self, monkeypatch):
        # The full Legendre matrix of odd n has an eigenvalue at exactly 0,
        # where a width relative to the bracket alone would halve it into
        # the subnormals, over a thousand counts for that one node.
        import povmquad.quadrature as quadrature

        n = 41
        calls = []
        original = quadrature._sturm_count

        def counting(rows, x):
            calls.append(x)
            if len(calls) > 62 * n:
                raise AssertionError("a bracket was halved past the floor")
            return original(rows, x)

        monkeypatch.setattr(quadrature, "_sturm_count", counting)
        rows = legendre_rows(n)
        ends = np.array(quadrature._bisect(partial(quadrature._sturm_count, rows), n, -1.0, 1.0))
        off = np.sqrt([b2 for _, b2 in rows[1:]])
        reference = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        assert np.max(np.abs(ends - reference)) < 1e-15
        assert -quadrature._BRACKET_FLOOR <= ends[n // 2] <= 0.0

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_two_nodes_from_one_bracket_fail_closed(self, monkeypatch, alpha):
        # Both first start points in one bracket: the Newton step takes them
        # to the same root, the residual certificate passes, and only the
        # ascending check, one root to each bracket, refuses the rule.
        import povmquad.quadrature as quadrature

        original = quadrature._bisect

        def doubled(count, n, lo, hi):
            ends = original(count, n, lo, hi)
            return [ends[0], *ends[:-1]]

        monkeypatch.setattr(quadrature, "_bisect", doubled)
        with pytest.raises(ConstructionError, match="ascending"):
            quadrature._gauss_jacobi(4, alpha)


class TestSphereGrid:
    @pytest.mark.parametrize(
        "d,n,total",
        [(2, 2, 6), (2, 3, 8), (3, 1, 3), (4, 1, 5), (5, 1, 5), (6, 1, 7),
         *((d, n, a) for (d, n), a in BENCHMARK_FAMILIES.items())],
    )
    def test_node_counts(self, rule_for, d, n, total):
        assert rule_for(d, n).n_outcomes == total

    @pytest.mark.parametrize(
        "d,n,lattice",
        [(3, 4, (19, (1, 8))), (4, 2, (13, (1, 3, 9))), (3, 1, (3, (1, 2))), (2, 8, (9, (1,)))],
    )
    def test_lattices(self, rule_for, d, n, lattice):
        assert lattice_of(rule_for(d, n)) == lattice

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_weights_positive_and_normalised(self, rule_for, d, n):
        rule = rule_for(d, n)
        assert np.all(rule.weights > 0.0)
        assert abs(math.fsum(rule.weights) - 1.0) < 1e-14

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_states_are_unit_vectors(self, rule_for, d, n):
        rule = rule_for(d, n)
        assert np.max(np.abs(np.linalg.norm(rule.guesses, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_certified_exactness(self, rule_for, d, n):
        assert verify_exactness(rule_for(d, n), n) < 1e-12

    @pytest.mark.parametrize("d,n", sorted(BENCHMARK_FAMILIES))
    def test_benchmark_families_exact_but_not_universal(self, rule_for, d, n):
        rule = rule_for(d, n)
        assert verify_exactness(rule, n) < 1e-12
        assert verify_exactness(rule, n + 1) > 1e-4

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
    def test_exactness_monotone_below_design_level(self, rule_for, d, n):
        rule = rule_for(d, n)
        for lower in range(1, n + 1):
            assert verify_exactness(rule, lower) < 1e-12

    def test_componentwise_moments_match_exact_values(self, rule_for):
        rule = rule_for(3, 2)
        states = rule.guesses
        for length in (1, 2):
            for i in itertools.product(range(3), repeat=length):
                for j in itertools.product(range(3), repeat=length):
                    vals = np.ones(rule.n_outcomes, dtype=np.complex128)
                    for k in i:
                        vals = vals * states[:, k]
                    for k in j:
                        vals = vals * states[:, k].conj()
                    got = complex(np.sum(rule.weights * vals))
                    exact = float(
                        moment_value(3, tuple(a + 1 for a in i), tuple(b + 1 for b in j))
                    )
                    assert abs(got - exact) < 1e-10

    @pytest.mark.parametrize("d,n", [*ACCEPTANCE_PAIRS, (3, 3), (3, 4), (4, 2), (34, 1), (44, 1)])
    def test_grid_matches_its_definition(self, rule_for, d, n):
        # The same grid assembled independently from scipy's Gauss-Jacobi
        # rules and the recorded lattice.  d >= 34 is past the 32 arrays
        # numpy's meshgrid takes, one per simplex coordinate.
        rule = rule_for(d, n)
        M, z = lattice_of(rule)
        counts = (rule.provenance["moduli_nodes"],) * (d - 1)
        states, weights = moduli_lattice_grid(d, counts, M, z)
        assert np.max(np.abs(states - rule.guesses)) < 1e-14
        assert np.max(np.abs(weights - rule.weights)) < 1e-15

    def test_truncated_grid_fails(self, rule_for):
        rule = rule_for(2, 1)
        states, weights = truncate_lattice(rule)
        residual = gram_residual_states(states, weights, 1, sym_embed_batch)
        assert residual > 1e-3

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_last_phase_is_fixed(self, rule_for, d, n):
        # theta_d = 0, so c_d is real and positive; the grid stays exact
        # at level n because G_n is phase invariant.
        rule = rule_for(d, n)
        assert np.all(rule.guesses[:, -1].imag == 0.0)
        assert np.all(rule.guesses[:, -1].real > 0.0)
        assert verify_exactness(rule, n) < 1e-12

    def test_unbalanced_moments_are_not_reproduced(self, rule_for):
        # Deliberate narrowing: only phase-invariant moments are exact.
        # The sphere average of c_d is 0; on the grid it is positive.
        rule = rule_for(2, 1)
        assert np.sum(rule.weights * rule.guesses[:, -1]).real > 0.1

    @pytest.mark.parametrize("d,n", [*ACCEPTANCE_PAIRS, (3, 3)])
    def test_minimal_grid_has_no_coincidences(self, rule_for, d, n):
        # No two nodes of a default grid are the same ray, so no two
        # outcomes of a built POVM could be merged.
        assert max_ray_overlap(rule_for(d, n).guesses) < 1.0 - 1e-12

    def test_repeated_ray_is_detected(self, rule_for):
        # Negative control for the overlap oracle: one node repeated
        # with a global phase is the same ray.
        states = rule_for(2, 2).guesses
        repeated = np.vstack([states, np.exp(0.7j) * states[3]])
        assert max_ray_overlap(repeated) > 1.0 - 1e-12

    @pytest.mark.parametrize("d,n", [*ACCEPTANCE_PAIRS, (3, 3), (3, 4), (4, 2)])
    def test_one_moduli_node_or_lattice_point_fewer_fails(self, rule_for, d, n):
        rule = rule_for(d, n)
        M, z = lattice_of(rule)
        nodes = rule.provenance["moduli_nodes"]
        counts = (nodes,) * (d - 1)
        if nodes > 1:
            for j in range(d - 1):
                short = counts[:j] + (nodes - 1,) + counts[j + 1 :]
                residual = frame_residual(*moduli_lattice_grid(d, short, M, z), n)
                assert residual > 1e-3, f"coordinate {j + 1}: residual {residual:.3e}"
        for t in range(M):
            residual = frame_residual(*moduli_lattice_grid(d, counts, M, z, drop=(t,)), n)
            assert residual > 1e-3, f"lattice point {t} dropped: residual {residual:.3e}"

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_polar_and_lattice_grids_agree_on_the_frame_operator(self, rule_for, d, n):
        # The old polar grid (now a test oracle) and sphere_grid both
        # give G_N = I/d_N.
        assert frame_residual(*polar_grid(d, n), n) < 1e-12
        assert verify_exactness(rule_for(d, n), n) < 1e-12

    def test_benchmark_grids_equal_the_lapack_and_sort_construction(self, monkeypatch):
        # The grids, and so the files, of the benchmark families are those
        # that LAPACK's eigenvalues and the sorted lattice search give.
        import povmquad.quadrature as quadrature

        grids = {family: sphere_grid(*family) for family in BENCHMARK_FAMILIES}
        monkeypatch.setattr(quadrature, "_gauss_jacobi", gauss_jacobi_eigvalsh)
        monkeypatch.setattr(quadrature, "_korobov_lattice", lambda d, n, _: korobov_lattice_sorted(d, n))
        for (d, n), grid in grids.items():
            reference = sphere_grid(d, n)
            assert grid.provenance == reference.provenance
            assert np.array_equal(grid.guesses, reference.guesses)
            assert np.array_equal(grid.weights, reference.weights)

    def test_benchmark_families_build_without_lapack_or_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK eigensolver or a sort was called")

        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("sort", "argsort", "unique"):
            monkeypatch.setattr(np, name, refuse)
        for (d, n), elements in BENCHMARK_FAMILIES.items():
            assert build_povm(d, n).n_outcomes == elements

    def test_source_names_no_lapack_or_sort(self):
        import povmquad.quadrature as quadrature

        tree = ast.parse(Path(quadrature.__file__).read_text(encoding="utf-8"))
        banned = {"linalg", "sort", "argsort", "lexsort", "unique", "partition", "argpartition"}
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in banned)
            or (isinstance(node, ast.Name) and node.id == "sorted")
        ]
        assert not lines, f"quadrature.py names LAPACK or a sort on lines {lines}"
        # No module of the package names numpy.linalg at all.
        package = Path(quadrature.__file__).parent
        named = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Attribute) and node.attr == "linalg")
            or (isinstance(node, ast.Name) and node.id == "linalg")
            or (isinstance(node, (ast.Import, ast.ImportFrom))
                and "linalg" in " ".join([getattr(node, "module", None) or "", *(a.name for a in node.names)]))
        ]
        assert not named, f"the package names linalg at {named}"

    def test_guard_refuses_before_building(self, monkeypatch):
        # (2, 1): A * d_1^2 = 2 * 2^2 = 8.
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "7")
        with pytest.raises(ResourceLimitError, match="POVMQUAD_BUILD_GUARD"):
            sphere_grid(2, 1)
        monkeypatch.setenv("POVMQUAD_BUILD_GUARD", "8")
        assert sphere_grid(2, 1).n_outcomes == 2

    @pytest.mark.parametrize("d,n", [(5, 4), (6, 4)])
    def test_guard_bounds_the_lattice_search(self, monkeypatch, d, n):
        # Every lattice size tried fits the default guard of 5e7; the
        # search stops at the first M that does not, long before
        # (N+1)^(d-1).
        import povmquad.quadrature as quadrature

        tried = []
        original = quadrature._lattice_generator

        def recording(projected, M):
            tried.append(M)
            return original(projected, M)

        monkeypatch.setattr(quadrature, "_lattice_generator", recording)
        with pytest.raises(ResourceLimitError, match="POVMQUAD_BUILD_GUARD"):
            sphere_grid(d, n)
        dim, moduli = sym_dim(d, n), (n + 2) // 2
        assert all(moduli ** (d - 1) * M * dim * dim <= 50_000_000 for M in tried)
        assert tried == list(range(dim, dim + len(tried)))
        assert len(tried) <= 50_000_000 // (moduli ** (d - 1) * dim * dim)

    def test_huge_d_refused_before_d_n_is_formed(self, monkeypatch):
        # max(d, N+1)^3 = 10^27 is charged first; d_N, n^(d-1) and the
        # search bound (N+1)^(d-1) are never formed for d = 10^9.
        import povmquad.quadrature as quadrature

        def no_dim(d, n):
            raise AssertionError("d_N formed before the lower bound was charged")

        monkeypatch.setattr(quadrature, "sym_dim", no_dim)
        with pytest.raises(ResourceLimitError, match="lower bound") as info:
            sphere_grid(10**9, 2)
        assert f"= {10**27} exceeds guard 50000000" in str(info.value)

    def test_long_cost_reported_by_order_of_magnitude(self):
        from povmquad.errors import BUILD_GUARD_ENV, check_cost

        with pytest.raises(ResourceLimitError) as info:
            check_cost("cost", 3 * 10**5000, BUILD_GUARD_ENV)
        assert str(info.value).startswith("cost = about 10^5000 exceeds guard 50000000;")
        with pytest.raises(ResourceLimitError) as info:
            check_cost("cost", 10**40 - 1, BUILD_GUARD_ENV)
        assert str(info.value).startswith(f"cost = {10**40 - 1} exceeds")

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputFormatError):
            sphere_grid(1, 1)
        with pytest.raises(InputFormatError):
            sphere_grid(2, 0)


def occupation_tuples(d: int, n: int) -> list[tuple[int, ...]]:
    """Every tuple of d non-negative integers summing to n, by brute force."""
    return [occ for occ in itertools.product(range(n + 1), repeat=d) if sum(occ) == n]


families_within_guard = st.integers(2, 6).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, GUARD_LIMITS[d]))
)


class TestLatticeProperties:
    @settings(max_examples=25, deadline=None)
    @given(family=families_within_guard)
    def test_lattice_separates_every_difference(self, family):
        d, n = family
        M, z = lattice_of(sphere_grid(d, n))
        assert n + 1 <= M <= (n + 1) ** (d - 1)
        assert len(z) == d - 1 and z[0] == 1
        tuples = occupation_tuples(d, n)
        for a, b in itertools.combinations(tuples, 2):
            k = [x - y for x, y in zip(a[:-1], b[:-1])]
            assert sum(kj * zj for kj, zj in zip(k, z)) % M != 0, (a, b)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_search_ends_by_balanced_digit_bound(self, d):
        # The search has no bound of its own: the guard ends it.  That it
        # would end by M = (N+1)^(d-1) anyway is a theorem, pinned here for
        # every N the default guard admits; the next N is refused.
        from povmquad.quadrature import _korobov_lattice

        for n in range(1, GUARD_LIMITS[d] + 1):
            M, _ = _korobov_lattice(d, n, (n + 2) // 2)
            assert sym_dim(d, n) <= M <= (n + 1) ** (d - 1)
        n = GUARD_LIMITS[d] + 1
        with pytest.raises(ResourceLimitError):
            _korobov_lattice(d, n, (n + 2) // 2)

    @pytest.mark.parametrize("d", sorted(GUARD_LIMITS))
    def test_search_equals_the_sorting_oracle(self, d):
        # Every family the default guard admits at d <= 6.
        from povmquad.quadrature import _korobov_lattice

        for n in range(1, GUARD_LIMITS[d] + 1):
            assert _korobov_lattice(d, n, (n + 2) // 2) == korobov_lattice_sorted(d, n), (d, n)

    @pytest.mark.parametrize("cells", [1, 100, 1000])
    @pytest.mark.parametrize("d,n", [(3, 4), (4, 3), (5, 2), (6, 2)])
    def test_chunked_search_equals_the_sorting_oracle(self, monkeypatch, cells, d, n):
        # Down to one candidate per chunk, the first separating g is found
        # in the chunk that holds it, whatever the chunk boundaries.
        import povmquad.quadrature as quadrature

        monkeypatch.setattr(quadrature, "_OCCUPANCY_CELLS", cells)
        assert quadrature._korobov_lattice(d, n, (n + 2) // 2) == korobov_lattice_sorted(d, n)

    @settings(max_examples=10, deadline=None)
    @given(family=families_within_guard)
    def test_search_is_deterministic(self, family):
        first, second = sphere_grid(*family), sphere_grid(*family)
        assert first.provenance == second.provenance
        assert np.array_equal(first.guesses, second.guesses)
        assert np.array_equal(first.weights, second.weights)

    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from([(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)]),
           seed=st.integers(0, 2**16))
    def test_restriction_one_level_down_is_universal(self, family, seed):
        d, n = family
        estimator = restrict_povm(build_povm(d, n + 1), n)
        target = float(optimal_fidelity(n, d))
        values = np.array(
            [pointwise_fidelity(estimator, PureState(a)) for a in haar_random_states(d, 50, seed)]
        )
        assert float(np.var(values)) <= 1e-20
        assert float(np.max(np.abs(values - target))) <= 1e-8

