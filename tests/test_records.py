"""The four frozen records: PureState, Povm, FidelityReport, ClonerOutput.

They are plain classes.  Each sets its fields once in __init__; setting
or deleting any attribute afterwards raises AttributeError.  The repr
lists the fields in constructor order.  FidelityReport compares and
hashes field by field; the records that hold arrays compare and hash by
identity.  A Povm keeps what it derives at level N in its instance
__dict__, formed on first access.
"""

import numpy as np
import pytest

import povmquad.quadrature
from povmquad import (
    ClonerOutput,
    FidelityReport,
    Povm,
    PureState,
    build_povm,
    check_optimality,
    clone,
    haar_random_state,
)

QUBIT = build_povm(2, 2)
STATE = haar_random_state(2, 7)


def records():
    """(record, its field names in constructor order) for each record type."""
    return [
        (STATE, ("amplitudes",)),
        (QUBIT, ("d", "N", "weights", "guesses", "provenance")),
        (
            FidelityReport(0.75, 0.01, "monte_carlo", 200, 3),
            ("value", "stderr", "method", "samples", "seed"),
        ),
        (clone(STATE, 1, 2), ("d", "N", "M", "density")),
    ]


@pytest.mark.parametrize(
    "index", range(4), ids=["PureState", "Povm", "FidelityReport", "ClonerOutput"]
)
def test_fields_are_frozen(index):
    record, fields = records()[index]
    assert record._fields == fields
    for name in (*fields, "unknown"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name, None) is before


def test_repr_lists_the_fields_in_order():
    report = FidelityReport(0.5, 0.0, "analytic")
    assert repr(report) == (
        "FidelityReport(value=0.5, stderr=0.0, method='analytic', samples=None, seed=None)"
    )
    assert repr(PureState([1, 0])) == "PureState(amplitudes=array([1.+0.j, 0.+0.j]))"
    assert repr(QUBIT).startswith("Povm(d=2, N=2, weights=array([")


def test_fidelity_report_compares_and_hashes_field_by_field():
    fields = (0.75, 0.01, "monte_carlo", 200, 3)
    report = FidelityReport(*fields)
    same = FidelityReport(value=0.75, stderr=0.01, method="monte_carlo", samples=200, seed=3)
    assert report == same and hash(report) == hash(same)
    assert hash(report) == hash(fields)
    others = (0.5, 0.02, "analytic", 100, 4)
    for k in range(len(fields)):
        changed = fields[:k] + others[k : k + 1] + fields[k + 1 :]
        assert report != FidelityReport(*changed), k
    assert report != fields
    assert FidelityReport(0.5, 0.0, "analytic") == FidelityReport(0.5, 0.0, "analytic", None, None)


def test_array_records_compare_by_identity():
    # As dataclasses, == on two distinct instances raised ValueError
    # (an array's truth value) and hash raised TypeError.
    twin = Povm(QUBIT.d, QUBIT.N, QUBIT.weights, QUBIT.guesses, dict(QUBIT.provenance))
    assert QUBIT == QUBIT and QUBIT != twin
    assert len({QUBIT, twin}) == 2
    assert STATE != PureState(STATE.amplitudes) and hash(STATE) == hash(STATE)
    out = clone(STATE, 1, 2)
    assert out != ClonerOutput(2, 1, 2, out.density)


def test_constructors_take_positional_and_keyword_arguments():
    by_position = Povm(2, 2, QUBIT.weights, QUBIT.guesses)
    by_keyword = Povm(d=2, N=2, weights=QUBIT.weights, guesses=QUBIT.guesses)
    for povm in (by_position, by_keyword):
        assert povm.provenance == {}
        assert np.array_equal(povm.weights, QUBIT.weights) and not povm.weights.flags.writeable
    # The default provenance is a fresh dict for each instance.
    assert by_position.provenance is not by_keyword.provenance
    provenance = {"source": "test"}
    assert Povm(2, 2, QUBIT.weights, QUBIT.guesses, provenance).provenance is provenance
    out = clone(STATE, 1, 2)
    assert ClonerOutput(d=2, N=1, M=2, density=out.density).M == 2
    assert PureState(amplitudes=[0, 1]).d == 2


def test_level_n_residual_formed_once(monkeypatch):
    calls = []
    residual = povmquad.quadrature.frame_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(povmquad.quadrature, "frame_residual", counted)
    povm = Povm(2, 2, QUBIT.weights, QUBIT.guesses)
    first = check_optimality(povm)
    assert check_optimality(povm) is first and povm._level_n_residual is first
    assert len(calls) == 1
    assert vars(povm)["_level_n_residual"] is first
