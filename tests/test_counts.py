"""Every count argument the package checks goes through errors.check_int.

A count is a dimension, a copy number, a sample or shot count, a seed
or an index.  The table below has one row per public count argument:
True, 2.0, "2" and None are refused with InputFormatError naming the
argument, and a numpy integer gives a result bit-identical to the plain
int, plain ints stored included.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmquad import (
    ClonerOutput,
    InputFormatError,
    Povm,
    PureState,
    build_povm,
    clone,
    gauss_legendre,
    haar_random_state,
    haar_random_states,
    majority_vote_fidelity,
    mean_fidelity_mc,
    moment_value,
    occupation_basis,
    optimal_fidelity,
    restrict_povm,
    sample_outcomes,
    sphere_grid,
    sym_dim,
    sym_embed,
    sym_embed_batch,
    sym_isometry,
    symmetric_projector_full,
)
from povmquad.errors import check_int
from povmquad.estimation import check_sample_cost, check_samples, check_shots

QUBIT = build_povm(2, 2)
STATE = haar_random_state(2, 5)
AMPS = haar_random_states(3, 4, 6)

# (argument name as the message gives it, call with the value, a value it accepts)
ROWS = {
    "basis_state.d": ("d", lambda v: PureState.basis_state(v, 1), 3),
    "basis_state.index": ("index", lambda v: PureState.basis_state(3, v), 2),
    "sym_dim.d": ("d", lambda v: sym_dim(v, 3), 2),
    "sym_dim.N": ("N", lambda v: sym_dim(3, v), 2),
    "occupation_basis.d": ("d", lambda v: occupation_basis(v, 3), 2),
    "occupation_basis.N": ("N", lambda v: occupation_basis(3, v), 2),
    "sym_embed_batch.N": ("N", lambda v: sym_embed_batch(AMPS, v), 2),
    "sym_embed.N": ("N", lambda v: sym_embed(STATE, v), 2),
    "sym_isometry.d": ("d", lambda v: sym_isometry(v, 2), 2),
    "sym_isometry.M": ("M", lambda v: sym_isometry(2, v), 2),
    "symmetric_projector_full.d": ("d", lambda v: symmetric_projector_full(v, 2), 2),
    "symmetric_projector_full.M": ("M", lambda v: symmetric_projector_full(2, v), 2),
    "haar_random_states.d": ("d", lambda v: haar_random_states(v, 3, 1), 2),
    "haar_random_states.count": ("count", lambda v: haar_random_states(2, v, 1), 2),
    "haar_random_states.seed": ("seed", lambda v: haar_random_states(2, 3, v), 2),
    "haar_random_state.d": ("d", lambda v: haar_random_state(v, 1), 2),
    "haar_random_state.seed": ("seed", lambda v: haar_random_state(2, v), 2),
    "gauss_legendre.n": ("n", lambda v: gauss_legendre(v), 2),
    "sphere_grid.d": ("d", lambda v: sphere_grid(v, 1), 2),
    "sphere_grid.N": ("N", lambda v: sphere_grid(2, v), 2),
    "build_povm.d": ("d", lambda v: build_povm(v, 1), 2),
    "build_povm.N": ("N", lambda v: build_povm(2, v), 2),
    "Povm.d": (
        "d", lambda v: Povm(d=v, N=2, weights=QUBIT.weights, guesses=QUBIT.guesses), 2
    ),
    "Povm.N": (
        "N", lambda v: Povm(d=2, N=v, weights=QUBIT.weights, guesses=QUBIT.guesses), 2
    ),
    "restrict_povm.N": ("N", lambda v: restrict_povm(QUBIT, v), 2),
    "optimal_fidelity.N": ("N", lambda v: optimal_fidelity(v, 3), 2),
    "optimal_fidelity.d": ("d", lambda v: optimal_fidelity(2, v), 3),
    "check_samples": ("samples", lambda v: check_samples(v), 150),
    "check_sample_cost.samples": ("samples", lambda v: check_sample_cost(v, [(2, 1)]), 150),
    "check_sample_cost.d": ("d", lambda v: check_sample_cost(150, [(v, 1)]), 2),
    "check_shots": ("shots", lambda v: check_shots(v), 2),
    "sample_outcomes.shots": ("shots", lambda v: sample_outcomes(QUBIT, STATE, v, 1), 200),
    "sample_outcomes.seed": ("seed", lambda v: sample_outcomes(QUBIT, STATE, 200, v), 2),
    "mean_fidelity_mc.samples": ("samples", lambda v: mean_fidelity_mc(QUBIT, v, 1), 150),
    "mean_fidelity_mc.seed": ("seed", lambda v: mean_fidelity_mc(QUBIT, 150, v), 2),
    "majority_vote.N": ("N", lambda v: majority_vote_fidelity(v), 2),
    "clone.N": ("N", lambda v: clone(STATE, v, 3), 2),
    "clone.M": ("M", lambda v: clone(STATE, 1, v), 2),
    "ClonerOutput.d": ("d", lambda v: ClonerOutput(d=v, N=1, M=1, density=np.eye(2) / 2), 2),
    "ClonerOutput.N": ("N", lambda v: ClonerOutput(d=2, N=v, M=2, density=np.eye(3) / 3), 2),
    "ClonerOutput.M": ("M", lambda v: ClonerOutput(d=2, N=1, M=v, density=np.eye(3) / 3), 2),
    "moment_value.d": ("d", lambda v: moment_value(v, (1, 2), (2, 1)), 3),
    "moment_value.i": ("i entry", lambda v: moment_value(3, (v, 1), (1, 2)), 2),
    "moment_value.j": ("j entry", lambda v: moment_value(3, (2, 1), (1, v)), 2),
}


def assert_same(a, b):
    """a and b equal bit for bit, down to the type of every stored value."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif hasattr(a, "_fields"):
        for name in a._fields:
            assert_same(getattr(a, name), getattr(b, name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    else:
        assert a == b


@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("bad", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
def test_refuses_what_is_not_an_integer(row, bad):
    name, call, _ = ROWS[row]
    with pytest.raises(InputFormatError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("kind", [np.int64, np.uint8])
def test_numpy_integer_is_the_plain_int(row, kind):
    _, call, good = ROWS[row]
    assert_same(call(kind(good)), call(good))


class TestCheckInt:
    def test_returns_a_plain_int(self):
        assert type(check_int("n", np.int16(7), 0)) is int
        assert check_int("n", 7, 7, 7) == 7

    def test_messages(self):
        with pytest.raises(InputFormatError) as info:
            check_int("samples", 99, 100)
        assert str(info.value) == "need samples >= 100, got 99"
        with pytest.raises(InputFormatError) as info:
            check_int("shots", np.int64(0), 1, 9)
        assert str(info.value) == "need 1 <= shots <= 9, got 0"
        with pytest.raises(InputFormatError) as info:
            check_int("k", Fraction(2), 0)
        assert str(info.value) == "k must be an integer, got Fraction(2, 1)"


class TestReproductions:
    """Each call once returned a value, drew, or raised something else."""

    @pytest.mark.parametrize(
        "call,message",
        [
            # int(1.7) truncated to 1, so this returned 1/2.
            (lambda: moment_value(2, (1.7,), (1,)), "i entry must be an integer, got 1.7"),
            # Drew one shot.
            (lambda: sample_outcomes(QUBIT, STATE, True, 1), "shots must be an integer, got True"),
            # Was accepted as N = 1.
            (lambda: ClonerOutput(d=3, N=True, M=1, density=np.eye(3) / 3),
             "N must be an integer, got True"),
            # Each raised a bare TypeError.
            (lambda: clone(STATE, 2.0, 3), "N must be an integer, got 2.0"),
            (lambda: gauss_legendre(2.0), "n must be an integer, got 2.0"),
            (lambda: haar_random_states(2.0, 3, 1), "d must be an integer, got 2.0"),
            (lambda: mean_fidelity_mc(QUBIT, 150.0, 1), "samples must be an integer, got 150.0"),
            # A numpy broadcast ValueError, when the baseline was simulated.
            (lambda: majority_vote_fidelity(True), "N must be an integer, got True"),
            # "state norm^2 deviates from 1".
            (lambda: PureState.basis_state(2, True), "index must be an integer, got True"),
            # Returned 1.
            (lambda: sym_dim(True, 3), "d must be an integer, got True"),
            # Passed.
            (lambda: check_samples(150.5), "samples must be an integer, got 150.5"),
        ],
        ids=["moment", "shots", "cloner-output", "clone", "gauss", "haar", "mc", "vote",
             "basis", "sym-dim", "samples"],
    )
    def test_refused(self, call, message):
        with pytest.raises(InputFormatError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("bad,good", [(2.0, 2), (True, 1)], ids=["float", "bool"])
    def test_occupation_basis_cache_does_not_answer_a_non_integer(self, bad, good):
        # 2.0 and True hash as 2 and 1: an untyped cache returned the
        # integer call's tuples without running the check.
        occupation_basis(2, good)
        with pytest.raises(InputFormatError) as info:
            occupation_basis(2, bad)
        assert str(info.value) == f"N must be an integer, got {bad!r}"

    def test_cloner_output_stores_plain_ints(self):
        out = ClonerOutput(d=np.int32(2), N=np.int8(1), M=np.uint16(1), density=np.eye(2) / 2)
        assert [type(v) for v in (out.d, out.N, out.M)] == [int, int, int]


# (value, the int it stands for, or None for a value that is not an integer)
COUNTS = st.one_of(
    st.integers(-2, 4).map(lambda n: (n, n)),
    st.integers(-2, 4).map(lambda n: (np.int64(n), n)),
    st.booleans().map(lambda b: (b, None)),
    st.integers(-2, 4).map(lambda n: (float(n), None)),
    st.floats(allow_nan=True).map(lambda x: (x, None)),
    st.integers(-2, 4).map(lambda n: (str(n), None)),
    st.integers(-2, 4).map(lambda n: (Fraction(n), None)),
    st.none().map(lambda x: (x, None)),
)


def _check_against_ints(call, drawn, accepted):
    """call(*values) is refused unless every value is an integer and accepted(*ints).

    Otherwise it returns what call(*ints) returns, bit for bit.
    """
    values = [value for value, _ in drawn]
    ints = [n for _, n in drawn]
    if None in ints or not accepted(*ints):
        with pytest.raises(InputFormatError):
            call(*values)
    else:
        assert_same(call(*values), call(*ints))


@settings(max_examples=60, deadline=None)
@given(d=COUNTS, n=COUNTS)
def test_build_povm_takes_integers_only(d, n):
    _check_against_ints(build_povm, [d, n], lambda d, n: d >= 2 and n >= 1)


@settings(max_examples=60, deadline=None)
@given(n=COUNTS, m=COUNTS)
def test_clone_takes_integers_only(n, m):
    _check_against_ints(lambda n, m: clone(STATE, n, m), [n, m], lambda n, m: 1 <= n <= m)


@settings(max_examples=60, deadline=None)
@given(d=COUNTS, i=st.lists(COUNTS, max_size=3), j=st.lists(COUNTS, max_size=3))
def test_moment_value_takes_integers_only(d, i, j):
    li = len(i)
    _check_against_ints(
        lambda d, *k: moment_value(d, k[:li], k[li:]),
        [d, *i, *j],
        lambda d, *k: d >= 2 and all(1 <= x <= d for x in k),
    )
