"""Output checks for each povmquad command the benchmark runs.

Every check takes the child's exit code and its standard output and
raises CheckFailed unless the output carries what the mathematics fixes.
Comparisons are written so that NaN, inf, a missing key or a value of the
wrong type fails: a check passes only on a positive match.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    """A command's exit code or output does not match what is expected."""


CERTIFICATION_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
ANALYTIC_TOL = 1e-12
MC_SIGMAS = 4.0
CLONE_SINGLE_TOL = 1e-10
CLONE_TWO_STEP_TOL = 1e-8


def optimal_fidelity(d: int, N: int) -> float:
    """(N+1)/(N+d), the best mean fidelity from N copies in dimension d."""
    return float(Fraction(N + 1, N + d))


def cloner_fidelity(d: int, N: int, M: int) -> float:
    """Single-clone fidelity (M-N+N(M+d))/(M(N+d)) of the optimal N -> M cloner."""
    return float(Fraction(M - N + N * (M + d), M * (N + d)))


def _payload(stdout: str, operation: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise CheckFailed("empty output")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("operation") != operation:
        raise CheckFailed(f"output is not a {operation} payload")
    return doc


def _number(doc: dict, *keys: str) -> float:
    value = doc
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            raise CheckFailed(f"missing {'.'.join(keys)}")
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckFailed(f"{'.'.join(keys)} is not a number: {value!r}")
    if not math.isfinite(value):
        raise CheckFailed(f"{'.'.join(keys)} is not finite: {value!r}")
    return float(value)


def _at_most(name: str, value: float, bound: float) -> None:
    if not value <= bound:
        raise CheckFailed(f"{name} = {value!r} exceeds {bound!r}")


def _near(name: str, value: float, target: float, tol: float) -> None:
    if not abs(value - target) <= tol:
        raise CheckFailed(f"{name} = {value!r} is not within {tol!r} of {target!r}")


def _exit(rc: int, expected: int) -> None:
    if rc != expected:
        raise CheckFailed(f"exit code {rc}, expected {expected}")


def _family(doc: dict, d: int, N: int) -> None:
    if doc.get("d") != d or doc.get("N") != N:
        raise CheckFailed(f"payload is for d={doc.get('d')}, N={doc.get('N')}, expected d={d}, N={N}")


def check_build(rc: int, stdout: str, d: int, N: int) -> int:
    """Exit 0, completeness and optimality certified, weights summing to 1.

    Returns the element count A of the built family.
    """
    _exit(rc, 0)
    doc = _payload(stdout, "build")
    _family(doc, d, N)
    for level in ("completeness", "optimality"):
        _at_most(level, _number(doc, "residuals", level), CERTIFICATION_TOL)
    _near("weight_sum", _number(doc, "weight_sum"), 1.0, WEIGHT_SUM_TOL)
    elements = doc.get("elements")
    if isinstance(elements, bool) or not isinstance(elements, int) or elements < 1:
        raise CheckFailed(f"elements is not a positive integer: {elements!r}")
    return elements


def check_verify(rc: int, stdout: str, d: int, N: int) -> None:
    """Exit 1: completeness and optimality pass, universality does not.

    The minimal grids are exact at degree 2N only, so the level-(N+1)
    check must fail; a pass there would mean the check is not looking.
    """
    _exit(rc, 1)
    doc = _payload(stdout, "verify")
    _family(doc, d, N)
    for level in ("completeness", "optimality"):
        _at_most(level, _number(doc, "residuals", level), CERTIFICATION_TOL)
    universality = _number(doc, "residuals", "universality")
    if not universality > CERTIFICATION_TOL:
        raise CheckFailed(f"universality = {universality!r} passes on a minimal grid")
    if doc.get("passed") is not False:
        raise CheckFailed(f"passed = {doc.get('passed')!r}, expected false")


def check_fidelity(rc: int, stdout: str, d: int, N: int) -> None:
    """Analytic value at (N+1)/(N+d); Monte Carlo within 4 standard errors."""
    _exit(rc, 0)
    doc = _payload(stdout, "fidelity")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 1 or not isinstance(rows[0], dict):
        raise CheckFailed(f"expected one fidelity row, got {rows!r}")
    row = rows[0]
    _family(row, d, N)
    analytic = _number(row, "analytic")
    _near("analytic", analytic, optimal_fidelity(d, N), ANALYTIC_TOL)
    stderr = _number(row, "stderr")
    if not stderr >= 0.0:
        raise CheckFailed(f"stderr = {stderr!r} is negative")
    _near("mc_estimate", _number(row, "mc_estimate"), analytic, MC_SIGMAS * stderr)


def check_simulate(rc: int, stdout: str, d: int, N: int, elements: int, shots: int) -> None:
    """Exit 0; one non-negative count per element, summing to shots."""
    _exit(rc, 0)
    doc = _payload(stdout, "simulate")
    _family(doc, d, N)
    counts = doc.get("counts")
    if not isinstance(counts, list) or len(counts) != elements:
        size = len(counts) if isinstance(counts, list) else counts
        raise CheckFailed(f"expected {elements} counts, got {size!r}")
    for c in counts:
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise CheckFailed(f"count {c!r} is not a non-negative integer")
    if sum(counts) != shots:
        raise CheckFailed(f"counts sum to {sum(counts)}, expected {shots}")


def check_clone(rc: int, stdout: str, d: int, N: int, M: int, states: int) -> None:
    """Every row at the optimal cloner fidelity; two-step at (N+1)/(N+d) for M > N."""
    _exit(rc, 0)
    doc = _payload(stdout, "clone")
    _family(doc, d, N)
    rows = doc.get("rows")
    expected = [(m, k) for m in range(N, M + 1) for k in range(states)]
    if not isinstance(rows, list) or len(rows) != len(expected):
        raise CheckFailed(f"expected {len(expected)} clone rows")
    for row, (m, k) in zip(rows, expected):
        if not isinstance(row, dict) or row.get("M") != m or row.get("state_index") != k:
            raise CheckFailed(f"row {row!r} is not (M={m}, state_index={k})")
        _near(f"single_particle at M={m}", _number(row, "single_particle"),
              cloner_fidelity(d, N, m), CLONE_SINGLE_TOL)
        two_step = _number(row, "two_step")
        if m > N:
            _near(f"two_step at M={m}", two_step, optimal_fidelity(d, N), CLONE_TWO_STEP_TOL)
