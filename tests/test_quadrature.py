"""One-dimensional rules and the product sphere grid, with negative controls."""

import math

import numpy as np
import pytest

from povmquad import (
    ConstructionError,
    InputFormatError,
    PureState,
    QuadratureRule,
    chi_to_state,
    default_theta_counts,
    gauss_legendre,
    moment_value,
    sphere_grid,
    sym_embed_batch,
    theta_rule_gl,
    theta_rule_midpoint,
    trapezoid_phase,
    verify_exactness,
)

from _oracles import (
    ACCEPTANCE_PAIRS,
    cross_moment_residual,
    gram_residual_states,
    max_ray_overlap,
    truncate_phi_points,
)


class TestGaussLegendre:
    def test_one_point(self):
        rule = gauss_legendre(1)
        assert np.array_equal(rule.nodes, [0.0])
        assert np.array_equal(rule.weights, [2.0])

    def test_two_point(self):
        rule = gauss_legendre(2)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_three_point(self):
        rule = gauss_legendre(3)
        assert np.allclose(rule.nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-15)
        assert np.allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 25, 51])
    def test_matches_reference_generator(self, n):
        rule = gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(rule.nodes - ref_nodes)) < 1e-13
        assert np.max(np.abs(rule.weights - ref_weights)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exact_through_degree_2n_minus_1(self, n):
        rule = gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(rule.weights * rule.nodes**k) - exact) < 1e-13

    def test_not_exact_at_degree_2n(self):
        rule = gauss_legendre(2)
        # integral of x^4 is 2/5; the two-point rule gives 2/9.
        assert abs(np.sum(rule.weights * rule.nodes**4) - 2.0 / 9.0) < 1e-14

    def test_node_antisymmetry_and_weight_sum(self):
        rule = gauss_legendre(7)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) == 0.0
        assert abs(math.fsum(rule.weights) - 2.0) < 1e-14

    def test_rejects_zero_points(self):
        with pytest.raises(InputFormatError):
            gauss_legendre(0)

    @pytest.mark.parametrize("offset", [1e-6, math.nan])
    def test_root_residual_certificate_fails_closed(self, monkeypatch, offset):
        # P_n off by a constant: one Newton step from the true roots leaves
        # residuals far above NEWTON_TOL, and a NaN residual must fail too.
        import povmquad.quadrature as quadrature

        original = quadrature._legendre_and_derivative

        def shifted(n, x):
            p, dp = original(n, x)
            return p + offset, dp

        monkeypatch.setattr(quadrature, "_legendre_and_derivative", shifted)
        with pytest.raises(ConstructionError) as info:
            gauss_legendre(6)
        assert not info.value.residual <= quadrature.NEWTON_TOL


class TestTrapezoidPhase:
    def test_nodes_and_weights(self):
        rule = trapezoid_phase(4)
        assert np.allclose(rule.nodes, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert np.allclose(rule.weights, math.pi / 2)

    def test_cosine_squared(self):
        rule = trapezoid_phase(3)
        value = np.sum(rule.weights * np.cos(rule.nodes) ** 2)
        assert abs(value - math.pi) < 1e-13

    def test_exact_harmonics_below_node_count(self):
        rule = trapezoid_phase(5)
        for k in range(1, 5):
            value = np.sum(rule.weights * np.exp(1j * k * rule.nodes))
            assert abs(value) < 1e-13

    def test_aliases_at_node_count(self):
        rule = trapezoid_phase(4)
        value = np.sum(rule.weights * np.cos(4 * rule.nodes))
        assert abs(value - 2 * math.pi) < 1e-13  # true integral is 0


class TestThetaRules:
    def test_gl_weight_sum_is_sine_integral(self):
        rule = theta_rule_gl(2, sin_power=1)
        assert abs(math.fsum(rule.weights) - 2.0) < 1e-14

    def test_gl_odd_integrand_vanishes(self):
        rule = theta_rule_gl(2, sin_power=1)
        value = np.sum(rule.weights * np.cos(rule.nodes))
        assert abs(value) < 1e-15

    def test_gl_cos2_sin3(self):
        rule = theta_rule_gl(3, sin_power=3)
        value = np.sum(rule.weights * np.cos(rule.nodes) ** 2)
        assert abs(value - 4.0 / 15.0) < 1e-14

    def test_gl_plain_measure(self):
        rule = theta_rule_gl(2)
        value = np.sum(rule.weights * np.sin(rule.nodes))
        assert abs(value - 2.0) < 1e-14

    def test_gl_rejects_negative_power(self):
        with pytest.raises(InputFormatError):
            theta_rule_gl(2, sin_power=-1)

    def test_midpoint_nodes(self):
        rule = theta_rule_midpoint(2)
        assert np.allclose(rule.nodes, [math.pi / 4, 3 * math.pi / 4])
        assert np.allclose(rule.weights, math.pi / 2)

    def test_midpoint_constant(self):
        rule = theta_rule_midpoint(1)
        assert abs(np.sum(rule.weights) - math.pi) < 1e-15

    def test_midpoint_sin_squared(self):
        rule = theta_rule_midpoint(2)
        value = np.sum(rule.weights * np.sin(rule.nodes) ** 2)
        assert abs(value - math.pi / 2) < 1e-14

    def test_midpoint_cos2_sin2(self):
        rule = theta_rule_midpoint(3)
        value = np.sum(rule.weights * (np.cos(rule.nodes) * np.sin(rule.nodes)) ** 2)
        assert abs(value - math.pi / 8) < 1e-14

    def test_midpoint_fails_beyond_degree(self):
        rule = theta_rule_midpoint(2)
        value = np.sum(rule.weights * np.cos(rule.nodes) ** 4)
        # degree 4 exceeds 2n-1 = 3: midpoint gives pi/4, the integral is 3 pi/8.
        assert abs(value - math.pi / 4) < 1e-14


class TestDefaultCounts:
    @pytest.mark.parametrize(
        "d,n,expected",
        [
            (2, 1, (3, 2)),
            (2, 2, (4, 3)),
            (2, 3, (5, 4)),
            (3, 1, (4, 3, 3, 2)),
            (3, 2, (5, 4, 4, 3)),
            (4, 1, (5, 4, 4, 3, 3, 2)),
        ],
    )
    def test_minimal_counts(self, d, n, expected):
        assert default_theta_counts(d, n) == expected


class TestSphereGrid:
    @pytest.mark.parametrize(
        "d,n,total",
        [(2, 1, 18), (2, 2, 60), (2, 3, 140), (3, 1, 216), (3, 2, 1200), (4, 1, 4320)],
    )
    def test_node_counts(self, rule_for, d, n, total):
        assert rule_for(d, n).n_points == total

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_weights_positive_and_normalised(self, rule_for, d, n):
        rule = rule_for(d, n)
        assert np.all(rule.weights > 0.0)
        assert abs(math.fsum(rule.weights) - 1.0) < 1e-14

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_points_on_unit_sphere(self, rule_for, d, n):
        rule = rule_for(d, n)
        assert np.max(np.abs(np.linalg.norm(rule.points, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("d,n", ACCEPTANCE_PAIRS)
    def test_certified_exactness(self, rule_for, d, n):
        assert verify_exactness(rule_for(d, n), n) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
    def test_exactness_monotone_below_design_level(self, rule_for, d, n):
        rule = rule_for(d, n)
        for lower in range(1, n + 1):
            assert verify_exactness(rule, lower) < 1e-12

    def test_componentwise_moments_match_exact_values(self, rule_for):
        from itertools import product as iproduct

        rule = rule_for(3, 2)
        states = rule.states()
        for length in (1, 2):
            for i in iproduct(range(3), repeat=length):
                for j in iproduct(range(3), repeat=length):
                    vals = np.ones(rule.n_points, dtype=np.complex128)
                    for k in i:
                        vals = vals * states[:, k]
                    for k in j:
                        vals = vals * states[:, k].conj()
                    got = complex(np.sum(rule.weights * vals))
                    exact = float(
                        moment_value(3, tuple(a + 1 for a in i), tuple(b + 1 for b in j))
                    )
                    assert abs(got - exact) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_phase_undersampling_is_masked(self, d, n):
        # Rebuilding with a single phase node stays exact at level n: the
        # polar rules annihilate every phase-sensitive monomial.
        rule = sphere_grid(d, n, phi_count=1)
        assert verify_exactness(rule, n) < 1e-12

    def test_truncated_grid_fails(self, rule_for):
        rule = rule_for(2, 1)
        states, weights = truncate_phi_points(rule)
        residual = gram_residual_states(states, weights, 1, sym_embed_batch)
        assert residual > 1e-3

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2)])
    def test_cross_moments_vanish(self, rule_for, d, n):
        assert cross_moment_residual(rule_for(d, n)) < 1e-12

    @pytest.mark.parametrize("d,n", [*ACCEPTANCE_PAIRS, (3, 3)])
    def test_minimal_grid_has_no_coincidences(self, rule_for, d, n):
        # No two nodes of a default grid are the same ray, so no two
        # outcomes of a built POVM could be merged.
        assert max_ray_overlap(rule_for(d, n).states()) < 1.0 - 1e-12

    def test_even_phase_count_repeats_rays(self):
        # Negative control: with an even phase count the node at
        # (pi - t_j, phi + pi) is the ray of -c for every node c.
        rule = sphere_grid(2, 1, theta_counts=(4, 3), phi_count=4)
        assert max_ray_overlap(rule.states()) > 1.0 - 1e-12

    def test_insufficient_counts_fail_verification(self):
        rule = sphere_grid(3, 2, theta_counts=(3, 3, 3, 3))
        assert verify_exactness(rule, 2) > 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputFormatError):
            sphere_grid(1, 1)
        with pytest.raises(InputFormatError):
            sphere_grid(2, 1, theta_counts=(3,))
        with pytest.raises(InputFormatError):
            sphere_grid(2, 1, phi_count=0)

    def test_states_interleave_real_and_imaginary(self, rule_for):
        rule = rule_for(2, 1)
        states = rule.states()
        assert np.array_equal(states.real, rule.points[:, 0::2])
        assert np.array_equal(states.imag, rule.points[:, 1::2])


class TestChiToState:
    def test_basis_direction(self):
        state = chi_to_state(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(state.amplitudes, [1.0, 0.0])

    def test_mixed_direction(self):
        chi = np.array([0.5, 0.5, 0.5, 0.5])
        state = chi_to_state(chi)
        assert np.allclose(state.amplitudes, [0.5 + 0.5j, 0.5 + 0.5j])

    def test_rejects_odd_or_short_length(self):
        with pytest.raises(InputFormatError):
            chi_to_state(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InputFormatError):
            chi_to_state(np.array([1.0, 0.0]))

    def test_rejects_off_sphere(self):
        with pytest.raises(InputFormatError):
            chi_to_state(np.array([1.0, 1.0, 0.0, 0.0]))


class TestRuleValidation:
    def test_rule1d_shape_mismatch(self):
        from povmquad import Rule1D

        with pytest.raises(InputFormatError):
            Rule1D(np.array([0.0, 1.0]), np.array([1.0]), "test", 1)

    def test_quadrature_rule_shape_checks(self):
        with pytest.raises(InputFormatError):
            QuadratureRule(
                d=2, N_exact=1, points=np.zeros((3, 3)), weights=np.ones(3),
                theta_counts=(1, 1), phi_count=1,
            )
        with pytest.raises(InputFormatError):
            QuadratureRule(
                d=2, N_exact=1, points=np.zeros((3, 4)), weights=np.ones(2),
                theta_counts=(1, 1), phi_count=1,
            )
