"""The package's vector contractions against numpy's BLAS and einsum forms.

Overlaps, outcome probabilities, the one-clone reduced state and the
clone fidelities are each formed in the package as an elementwise
product and a sum, so that none of them runs a BLAS level-1 or level-2
routine.  Each is compared here with its
np.vdot, matrix-vector or np.einsum form from tests/_oracles.py.

The tolerance is fixed from float64 eps before any comparison: a sum
of n products, evaluated in any order, is off by at most about n eps
times the sum of the products' moduli, so two evaluations differ by at
most twice that.  bound(n, scale) allows 16 n eps scale, with scale the
same sum taken over the operands' moduli.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from povmquad import (
    PureState,
    clone,
    haar_random_state,
    outcome_probs,
    overlap,
    single_particle_fidelity,
    single_particle_reduced,
    sym_dim,
    sym_embed_batch,
    two_step_components,
)
from povmquad.symmetric import _squared_overlaps

from _oracles import (
    overlap_vdot,
    single_particle_fidelity_vdot,
    single_particle_reduced_einsum,
    squared_overlaps_matvec,
    two_step_components_matvec,
)

EPS = np.finfo(np.float64).eps
FAMILIES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


def bound(n: int, scale) -> float:
    """16 n eps scale: the allowed gap between two orders of an n-term sum."""
    return 16 * n * EPS * scale


@st.composite
def states(draw, d):
    """A unit state in C^d: Haar from a seed, or any normalised complex vector."""
    if draw(st.booleans()):
        return haar_random_state(d, draw(st.integers(0, 2**32 - 1)))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d))
    amps = np.array(parts[:d]) + 1j * np.array(parts[d:])
    norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    assume(norm > 1e-3)
    return PureState(amps / norm)


@st.composite
def state_pairs(draw):
    d = draw(st.integers(2, 8))
    return draw(states(d)), draw(states(d))


@st.composite
def family_states(draw):
    d, n = draw(st.sampled_from(FAMILIES))
    return d, n, draw(states(d))


@st.composite
def clone_states(draw):
    """(d, N, M, state) with d_M at most 56."""
    d = draw(st.integers(2, 4))
    m = draw(st.integers(1, {2: 8, 3: 5, 4: 3}[d]))
    n = draw(st.integers(1, m))
    return d, n, m, draw(states(d))


class TestOverlaps:
    @settings(max_examples=200, deadline=None)
    @given(pair=state_pairs())
    def test_overlap_matches_vdot(self, pair):
        a, b = pair
        scale = float(np.sum(np.abs(a.amplitudes) * np.abs(b.amplitudes)))
        assert abs(overlap(a, b) - overlap_vdot(a.amplitudes, b.amplitudes)) <= bound(a.d, scale)

    @settings(max_examples=100, deadline=None)
    @given(case=family_states())
    def test_squared_overlaps_match_matvec(self, povm_for, case):
        d, n, state = case
        rows = povm_for(d, n).guesses
        scale = np.abs(rows) @ np.abs(state.amplitudes)
        got = _squared_overlaps(rows, state)
        want = squared_overlaps_matvec(rows, state.amplitudes)
        assert np.all(np.abs(got - want) <= bound(2 * d, scale**2))

    @settings(max_examples=100, deadline=None)
    @given(case=family_states())
    def test_outcome_probs_match_matvec(self, povm_for, case):
        # The N-th power multiplies the overlaps' relative gap by N.
        d, n, state = case
        povm = povm_for(d, n)
        scale = np.abs(povm.guesses) @ np.abs(state.amplitudes)
        d_n = sym_dim(d, n)
        want = d_n * povm.weights * squared_overlaps_matvec(povm.guesses, state.amplitudes) ** n
        tol = bound(2 * d * n, d_n * povm.weights * scale ** (2 * n))
        assert np.all(np.abs(outcome_probs(povm, state) - want) <= tol)


class TestCloneContractions:
    @settings(max_examples=60, deadline=None)
    @given(case=clone_states())
    def test_reduced_state_matches_einsum(self, case):
        d, n, m, state = case
        out = clone(state, n, m)
        want = single_particle_reduced_einsum(out.density, d, m)
        scale = single_particle_reduced_einsum(np.abs(out.density), d, m).real
        terms = sym_dim(d, m - 1)
        assert np.all(np.abs(single_particle_reduced(out) - want) <= bound(terms, scale))

    @settings(max_examples=60, deadline=None)
    @given(case=clone_states())
    def test_single_particle_fidelity_matches_vdot(self, case):
        # The reduced state's own gap (sym_dim(d, m-1) terms) and the
        # d^2-term quadratic form.
        d, n, m, state = case
        out = clone(state, n, m)
        amps = state.amplitudes
        want = single_particle_fidelity_vdot(single_particle_reduced_einsum(out.density, d, m), amps)
        moduli = single_particle_reduced_einsum(np.abs(out.density), d, m).real
        scale = float(np.abs(amps) @ moduli @ np.abs(amps))
        tol = bound(d * d + sym_dim(d, m - 1), scale)
        assert abs(single_particle_fidelity(out, state) - want) <= tol

    @settings(max_examples=40, deadline=None)
    @given(case=clone_states())
    def test_two_step_components_match_matvec(self, povm_for, case):
        # Born values (d_M^2 terms each), overlaps (d terms, squared and
        # raised to N+1) and the A-term outcome sum.
        d, n, m, state = case
        assume(sym_dim(d, m) <= 35)
        povm_m = povm_for(d, m)
        out = clone(state, n, m)
        got = two_step_components(out, state, povm_m)
        want = two_step_components_matvec(out.density, state.amplitudes, n, povm_m)
        moduli = np.abs(sym_embed_batch(povm_m.guesses, m))
        born = np.einsum("ai,ij,aj->a", moduli, np.abs(out.density), moduli)
        overlaps = (np.abs(povm_m.guesses) @ np.abs(state.amplitudes)) ** 2
        w = povm_m.weights
        terms = sym_dim(d, m) ** 2 + 2 * d * (n + 1) + w.size
        pipeline_scale = sym_dim(d, m) * float(np.sum(w * born * overlaps))
        closed_scale = sym_dim(d, n) * float(np.sum(w * overlaps ** (n + 1)))
        assert abs(got[0] - want[0]) <= bound(terms, pipeline_scale)
        assert abs(got[1] - want[1]) <= bound(terms, closed_scale)
