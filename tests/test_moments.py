"""Exact sphere-average moments against enumeration and dense integration."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmquad import (
    InputFormatError,
    contraction_count,
    moment_value,
)
from povmquad.moments import denominator_digits_floor

from _oracles import (
    contraction_count_bruteforce,
    moment_tensor_mc,
    moment_tensor_numeric,
)


class TestContractionCount:
    @pytest.mark.parametrize(
        "i,j,expected",
        [
            ((1, 2), (2, 1), 1),
            ((1, 1), (1, 1), 2),
            ((1, 2), (1, 1), 0),
            ((1,), (1,), 1),
            ((1, 1, 2), (1, 2, 1), 2),
            ((1, 1, 1), (1, 1, 1), 6),
        ],
    )
    def test_known_values(self, i, j, expected):
        assert contraction_count(i, j) == expected

    def test_exhaustive_small_tuples(self):
        for length in (1, 2, 3):
            for i in product((1, 2), repeat=length):
                for j in product((1, 2), repeat=length):
                    assert contraction_count(i, j) == contraction_count_bruteforce(i, j)

    def test_random_longer_tuples(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            length = int(rng.integers(1, 5))
            i = tuple(int(v) for v in rng.integers(1, 4, size=length))
            j = tuple(int(v) for v in rng.integers(1, 4, size=length))
            assert contraction_count(i, j) == contraction_count_bruteforce(i, j)

    def test_unequal_lengths(self):
        assert contraction_count((1,), (1, 1)) == 0

    def test_order_invariance(self):
        assert contraction_count((1, 2, 2), (2, 2, 1)) == contraction_count(
            (2, 2, 1), (1, 2, 2)
        )


class TestMomentValue:
    @pytest.mark.parametrize(
        "d,i,j,expected",
        [
            (2, (1,), (1,), Fraction(1, 2)),
            (2, (1, 1), (1, 1), Fraction(1, 3)),
            (2, (1, 2), (2, 1), Fraction(1, 6)),
            (2, (1, 2), (1, 2), Fraction(1, 6)),
            (3, (1,), (1,), Fraction(1, 3)),
            (3, (1, 1), (1, 1), Fraction(1, 6)),
            (2, (1, 2), (1, 1), Fraction(0)),
            (2, (1,), (2,), Fraction(0)),
        ],
    )
    def test_known_values(self, d, i, j, expected):
        value = moment_value(d, i, j)
        assert isinstance(value, Fraction)
        assert value == expected

    def test_huge_dimension_is_exact(self):
        # (d-1)!/(d+l-1)! reduces to 1/(d (d+1) ... (d+l-1)), so d = 10^12
        # costs as much as d = 2.
        d = 10**12
        assert moment_value(d, (1,), (1,)) == Fraction(1, d)
        assert moment_value(d, (1, 2, 2), (2, 1, 2)) == Fraction(2, d * (d + 1) * (d + 2))

    def test_unequal_lengths_vanish(self):
        assert moment_value(2, (1,), (1, 1)) == Fraction(0)
        assert moment_value(3, (1, 2, 3), (1,)) == Fraction(0)

    def test_single_index_sum_rule(self):
        for d in (2, 3, 4):
            total = sum(moment_value(d, (k,), (k,)) for k in range(1, d + 1))
            assert total == Fraction(1)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_norm_power_sum_rule(self, d, length):
        # <(sum_k |c_k|^2)^length> = 1 expands into matching-tuple moments.
        total = Fraction(0)
        for i in product(range(1, d + 1), repeat=length):
            total += moment_value(d, i, i)
        assert total == Fraction(1)

    def test_permutation_invariance(self):
        base = moment_value(3, (1, 2, 2), (2, 1, 2))
        assert base == moment_value(3, (2, 2, 1), (2, 1, 2))
        assert base == moment_value(3, (1, 2, 2), (2, 2, 1))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(InputFormatError):
            moment_value(2, (0,), (1,))
        with pytest.raises(InputFormatError):
            moment_value(2, (1,), (3,))

    def test_rejects_d_below_two(self):
        with pytest.raises(InputFormatError):
            moment_value(1, (1,), (1,))

    @pytest.mark.parametrize("d,length", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_against_dense_integration(self, d, length):
        tensor = moment_tensor_numeric(d, length)
        for flat_i, i in enumerate(product(range(1, d + 1), repeat=length)):
            for flat_j, j in enumerate(product(range(1, d + 1), repeat=length)):
                exact = float(moment_value(d, i, j))
                assert abs(tensor[flat_i, flat_j] - exact) < 1e-9

    def test_against_monte_carlo(self):
        d, length = 2, 2
        mean, err_re, err_im = moment_tensor_mc(d, length, samples=200_000, seed=2024)
        for flat_i, i in enumerate(product(range(1, d + 1), repeat=length)):
            for flat_j, j in enumerate(product(range(1, d + 1), repeat=length)):
                exact = float(moment_value(d, i, j))
                assert abs(mean[flat_i, flat_j].real - exact) <= 5 * err_re[flat_i, flat_j] + 1e-9
                assert abs(mean[flat_i, flat_j].imag) <= 5 * err_im[flat_i, flat_j] + 1e-9


class TestDenominatorDigitsFloor:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.one_of(st.integers(2, 40), st.sampled_from([10, 10**6, 10**30])))
    def test_bounds_the_printed_denominator(self, data, d):
        # Every non-vanishing moment's reduced denominator has more digits
        # than the floor; j is a permutation of i.
        i = data.draw(st.lists(st.integers(1, min(d, 6)), max_size=14), label="i")
        j = data.draw(st.permutations(i), label="j")
        digits = len(str(moment_value(d, i, j).denominator))
        assert digits > denominator_digits_floor(d, i, j) - 1e-9

    def test_vanishing_moment_has_floor_zero(self):
        assert denominator_digits_floor(10**100, (1,) * 50, (2,) * 50) == 0.0
        assert denominator_digits_floor(3, (1, 2), (1,)) == 0.0

    def test_value_of_a_long_moment(self):
        # 20,000 ones at d = 10^100: 2*10^6 - log10(20000!), about 1.92*10^6.
        floor = denominator_digits_floor(10**100, (1,) * 20000, (1,) * 20000)
        assert floor == pytest.approx(2_000_000 - 77337.26, abs=0.01)
