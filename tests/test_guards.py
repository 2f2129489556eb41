"""Every level dimension is charged through errors._charge_dim, and
every refusal prints its numbers through errors._shown.

_charge_dim charges times*max(d, k+1)^power (times*1 at d = 1), forms
d_k and charges times*d_k^power.  The property tests hold it to a direct
oracle, C(k+d-1, d-1) from math.comb: it admits exactly what the exact
cost admits, and with d or k up to 10^6000 it never forms d_k once the
floor exceeds the guard.  The regression tests are calls whose refusal,
when it wrote its integers in full, raised the interpreter's ValueError
on int-to-str conversion instead of the package's own error.  A match
of two counts is check_int with lo = hi, and mean_fidelity_exact is
(N+1)/(N+d) times the exact weight sum, rounded once, with no d_N formed.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import povmquad.errors as errors
import povmquad.estimation as estimation
from povmquad import (
    ClonerOutput,
    InputFormatError,
    Povm,
    ResourceLimitError,
    build_povm,
    clone,
    frame_operator,
    frame_residual,
    haar_random_state,
    mean_fidelity_exact,
    restrict_povm,
    sphere_grid,
    two_step_estimate,
)
from povmquad.errors import BUILD_GUARD_ENV, _charge_dim, _shown, check_cost, check_int
from povmquad.estimation import check_sample_cost

HUGE = 10**5000


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 6),
    k=st.integers(1, 8),
    times=st.integers(1, 40),
    power=st.integers(1, 3),
    guard=st.integers(1, 10**7),
)
def test_charge_admits_exactly_the_exact_cost(d, k, times, power, guard):
    dim = math.comb(k + d - 1, d - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BUILD_GUARD_ENV, str(guard))
        if times * dim**power <= guard:
            assert _charge_dim("cost", times, d, k, power) == dim
        else:
            with pytest.raises(ResourceLimitError, match=f" exceeds guard {guard}; set {BUILD_GUARD_ENV}"):
                _charge_dim("cost", times, d, k, power)


# d and k are drawn as mantissa * 10**exponent, up to about 10^6000:
# hypothesis writes each drawn value with repr, which an int past the
# interpreter's 4300-digit limit would fail.
@settings(max_examples=200, deadline=None)
@given(
    d=st.tuples(st.integers(1, 999), st.integers(0, 5997)),
    k=st.tuples(st.integers(1, 999), st.integers(0, 5997)),
    times=st.integers(1, 10**6),
    power=st.integers(1, 3),
    guard=st.integers(1, 10**60),
)
def test_charge_never_forms_d_k_past_its_floor(d, k, times, power, guard):
    d, k = max(2, d[0] * 10 ** d[1]), k[0] * 10 ** k[1]
    if times * max(d, k + 1) ** power <= guard:
        return

    def no_dim(d, k):
        raise AssertionError("d_k formed after its floor exceeded the guard")

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BUILD_GUARD_ENV, str(guard))
        patch.setattr(errors, "sym_dim", no_dim)
        with pytest.raises(ResourceLimitError, match=r"^cost lower bound for d=.+, k=.+ = "):
            _charge_dim("cost", times, d, k, power)


STATE = haar_random_state(2, 1)
QUBIT = build_povm(2, 1)

# Each raised ValueError: Exceeds the limit (4300 digits) when its refusal
# wrote HUGE in full.
HUGE_CALLS = {
    "frame_operator-level": (lambda: frame_operator(np.eye(2)[:1], np.ones(1), HUGE), ResourceLimitError),
    "clone-M": (lambda: clone(STATE, 1, HUGE), ResourceLimitError),
    "sphere_grid-N": (lambda: sphere_grid(2, HUGE), ResourceLimitError),
    "check_sample_cost-samples": (lambda: check_sample_cost(HUGE, [(2, 1)]), ResourceLimitError),
    "check_sample_cost-N": (lambda: check_sample_cost(100, [(2, HUGE)]), ResourceLimitError),
    "check_int-negative": (lambda: check_int("N", -HUGE, 1), InputFormatError),
    "restrict_povm-N": (lambda: restrict_povm(QUBIT, HUGE), InputFormatError),
    "two_step_estimate-povm-N": (
        lambda: two_step_estimate(
            clone(STATE, 1, 2), STATE, Povm(d=2, N=HUGE, weights=np.ones(1), guesses=np.eye(2)[:1])
        ),
        InputFormatError,
    ),
    "ClonerOutput-M": (lambda: ClonerOutput(2, 1, HUGE, np.eye(2)), ResourceLimitError),
}


@pytest.mark.parametrize("name", sorted(HUGE_CALLS))
def test_huge_argument_refused_by_its_order_of_magnitude(monkeypatch, name):
    monkeypatch.delenv(BUILD_GUARD_ENV, raising=False)
    call, error = HUGE_CALLS[name]
    start = time.perf_counter()
    with pytest.raises(error) as info:
        call()
    assert time.perf_counter() - start < 0.1
    assert "about 10^5000" in str(info.value)


class TestShown:
    def test_negative_value_keeps_its_sign(self):
        with pytest.raises(InputFormatError) as info:
            check_int("N", -HUGE, 1)
        assert str(info.value) == "need N >= 1, got -(about 10^5000)"

    def test_bounds_are_shortened_too(self):
        with pytest.raises(InputFormatError) as info:
            check_int("N", 0, HUGE, HUGE + 1)
        assert str(info.value) == "need about 10^5000 <= N <= about 10^5000, got 0"

    def test_values_are_named_in_order_before_the_cost(self, monkeypatch):
        monkeypatch.setenv(BUILD_GUARD_ENV, "5")
        with pytest.raises(ResourceLimitError) as info:
            check_cost("work a*b", 6 * HUGE, BUILD_GUARD_ENV, a=6, b=HUGE)
        assert str(info.value) == (
            "work a*b for a=6, b=about 10^5000 = about 10^5000 exceeds guard 5; "
            f"set {BUILD_GUARD_ENV} to raise it"
        )

    def test_short_values_print_every_digit(self, monkeypatch):
        monkeypatch.setenv(BUILD_GUARD_ENV, "5")
        with pytest.raises(ResourceLimitError) as info:
            check_cost("work", 10**40 - 1, BUILD_GUARD_ENV, n=-(10**40 - 1))
        assert str(info.value).startswith(f"work for n={-(10**40 - 1)} = {10**40 - 1} exceeds guard 5;")

    def test_unnamed_cost_reads_as_before(self, monkeypatch):
        monkeypatch.setenv(BUILD_GUARD_ENV, "5")
        with pytest.raises(ResourceLimitError) as info:
            check_cost("work", 6, BUILD_GUARD_ENV)
        assert str(info.value) == f"work = 6 exceeds guard 5; set {BUILD_GUARD_ENV} to raise it"


# Weights of the wrong shape: numpy spread the one weight over both rows,
# or failed to broadcast three weights onto two rows.
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: frame_residual(np.eye(2), np.ones(1), 1), "need weight count = 2, got 1"),
        (lambda: frame_operator(np.eye(2), np.ones(3), 1), "need weight count = 2, got 3"),
        (lambda: frame_operator(np.eye(2), np.ones((2, 1)), 1), "need weights ndim = 1, got 2"),
    ],
    ids=["one-weight", "three-weights", "column-weights"],
)
def test_frame_operator_needs_one_weight_per_row(call, message):
    with pytest.raises(InputFormatError) as info:
        call()
    assert str(info.value) == message


def test_mean_fidelity_exact_forms_no_level_dimension(monkeypatch):
    # d_N and d_{N+1} have about 5.4 million digits here.
    def no_dim(d, k):
        raise AssertionError("mean_fidelity_exact formed a level dimension")

    monkeypatch.setattr(estimation, "sym_dim", no_dim)
    povm = Povm(d=2000, N=10**2000, weights=np.ones(1), guesses=np.eye(2000)[:1])
    assert mean_fidelity_exact(povm).value == 1.0


# A weight is a mantissa in [1, 10) times 10^e, e in -15..15.
WEIGHT = st.builds(
    lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(-15, 15)
)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 9), N=st.integers(1, 60), weights=st.lists(WEIGHT, min_size=1, max_size=12))
def test_mean_fidelity_exact_is_the_once_rounded_rational(d, N, weights):
    guesses = np.eye(d)[np.arange(len(weights)) % d]
    povm = Povm(d=d, N=N, weights=weights, guesses=guesses)
    exact = Fraction(N + 1, N + d) * sum(map(Fraction, povm.weights.tolist()))
    assert mean_fidelity_exact(povm).value.hex() == float(exact).hex()


# Drawn as sign * mantissa * 10**exponent, up to about 10^6000, for the
# reason given above test_charge_never_forms_d_k_past_its_floor; the
# value is either a notch from lo or drawn the same way.
HUGE_INTS = st.builds(
    lambda sign, m, e: sign * m * 10**e,
    st.sampled_from([1, -1]),
    st.integers(0, 999),
    st.integers(0, 5997),
)


@settings(max_examples=300, deadline=None)
@given(lo=HUGE_INTS, step=st.one_of(st.integers(-2, 2), HUGE_INTS), near=st.booleans())
def test_equal_bounds_admit_exactly_that_value(lo, step, near):
    value = lo + step if near else step
    if value == lo:
        assert check_int("x", value, lo, lo) == lo
        return
    with pytest.raises(InputFormatError) as info:
        check_int("x", value, lo, lo)
    assert str(info.value) == f"need x = {_shown(lo)}, got {_shown(value)}"
