"""Finite optimal POVMs for estimating a pure state from N copies.

Each element is E_a = d_N * w_a * (|phi_a><phi_a|)^{tensor N} for a
positive weight w_a and guess state phi_a, with sum_a w_a = 1.  The
single condition sum_a w_a rho_a^{tensor N} = S_N / d_N makes the set a
POVM on the symmetric subspace and simultaneously an optimal estimator;
when the same nodes satisfy the condition one level higher (N+1) the
estimator is universal: its fidelity is the same constant for every
input state.  A grid from sphere_grid satisfies the condition by
construction: it is already the Povm, and build_povm certifies it in
place before returning it.  The Povm record is defined in quadrature
and re-exported here.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._numpy import np
from .errors import ConstructionError, InputFormatError, check_int, exceeds, sym_dim
from .quadrature import Povm, sphere_grid
from .symmetric import frame_residual

FORMAT_VERSION = "1"
CERTIFICATION_TOL = 1e-10
LOAD_COMPLETENESS_TOL = 1e-8


def check_optimality(povm: Povm) -> float:
    """Residual of sum_a w_a rho_a^{tensor N} = S_N/d_N at the POVM's N.

    G_N is formed once per instance: the Povm keeps the residual, and
    build_povm's certificate is the value it keeps.
    """
    return povm._level_n_residual


def check_completeness(povm: Povm) -> float:
    """Residual of sum_a E_a = S_N in the symmetric subspace.

    Identical to d_N times the optimality residual since
    E_a = d_N w_a rho_a^{tensor N}.
    """
    # The residual first: its guard refuses a huge (d, N) before d_N is formed.
    return check_optimality(povm) * sym_dim(povm.d, povm.N)


def check_universality(povm: Povm) -> float:
    """Residual of the same node condition one level up (N+1 copies).

    Zero (to tolerance) iff the estimator's fidelity is pointwise
    constant in the input state.
    """
    return frame_residual(povm.guesses, povm.weights, povm.N + 1)


def build_povm(d: int, N: int, *, tol: float = CERTIFICATION_TOL) -> Povm:
    """Construct and certify the grid-based optimal POVM for (d, N).

    Returns the Povm that sphere_grid(d, N) forms, with certified_residual
    and certification_tol added to its provenance.  Raises
    ResourceLimitError if the construction cost exceeds the guard
    (checked by sphere_grid) and ConstructionError (carrying the
    residual) if the grid fails the optimality check at `tol`.
    """
    povm = sphere_grid(d, N)
    residual = check_optimality(povm)
    if exceeds(residual, tol):
        raise ConstructionError(
            f"grid for d={d}, N={N} failed certification: residual {residual:.3e} > {tol:g}",
            residual,
        )
    povm.provenance["certified_residual"] = f"{residual:.17g}"
    povm.provenance["certification_tol"] = f"{tol:.17g}"
    return povm


def restrict_povm(povm: Povm, N: int) -> Povm:
    """Reuse the same nodes and weights as an estimator for N <= M copies.

    A rule exact at degree 2M is exact at every lower degree, so the
    restriction stays optimal; for N < M it is universal as well.
    """
    N = check_int("N", N, 1, povm.N)
    provenance = dict(povm.provenance)
    provenance["restricted_from"] = povm.N
    return Povm(d=povm.d, N=N, weights=povm.weights, guesses=povm.guesses, provenance=provenance)


def save_povm(povm: Povm, path: str | Path) -> None:
    """Write the POVM as canonical JSON (sorted keys, 17-digit decimals).

    Weights and amplitudes are serialised as decimal strings so the
    save -> load -> save round trip is byte identical.  The bytes are
    those of json.dumps(doc, sort_keys=True, indent=2) on the document
    of per-element dicts; tests/_oracles.povm_json_reference is that
    writer and the tests pin this one to it byte for byte.  Every element
    has the same indent-2 layout, so all elements are one repeated
    template filled by a single %-pass ("%.17g" and format(x, ".17g")
    share CPython's float-to-string routine).  Raises InputFormatError if
    the file cannot be written.
    """
    pair = '        [\n          "%.17g",\n          "%.17g"\n        ]'
    element = '    {\n      "c": [\n' + ",\n".join([pair] * povm.d) + '\n      ],\n      "w": "%.17g"\n    }'
    table = np.column_stack([povm.guesses.view(np.float64), povm.weights])
    # Sorted top-level keys are N, d, elements, format_version, provenance:
    # the parts before and after the elements are dumped on their own, so
    # the splice never depends on the content of provenance.
    head = json.dumps({"N": povm.N, "d": povm.d}, indent=2)
    tail = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "provenance": {str(k): v for k, v in povm.provenance.items()},
        },
        sort_keys=True,
        indent=2,
    )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-2] + ',\n  "elements": [\n')
            fh.write(",\n".join([element] * povm.n_outcomes) % tuple(table.ravel().tolist()))
            fh.write("\n  ],\n" + tail[2:] + "\n")
    except OSError as exc:
        raise InputFormatError(f"cannot write POVM file {path}: {exc}") from exc


def _real(value) -> float:
    """One weight or amplitude part: a decimal string or a JSON number.

    float(false) is 0.0, so a JSON true or false is refused here, as it
    is for d and N; load_povm reports the TypeError as InputFormatError.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected a number or a decimal string, got {value!r}")
    return float(value)


def load_povm(path: str | Path) -> Povm:
    """Read a POVM file and re-verify its invariants.

    Rejects unknown format versions, d or N that are not JSON integers,
    a weight or amplitude part that is true or false, everything Povm
    rejects (non-finite values, non-positive weights, non-unit guesses),
    weight sums away from 1, and completeness
    residuals above 1e-8 (reported in the error message), and text that
    is not JSON or that the parser cannot hold (nesting too deep,
    integers too long).  Missing provenance maps to {"source": "unknown"}.
    """
    # A JSONDecodeError is a ValueError, and so is an integer too long to
    # convert; nesting too deep for the parser raises RecursionError.
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputFormatError(f"cannot read POVM file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("POVM file must contain a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise InputFormatError(f"unsupported format_version {version!r}")
    d, N = doc.get("d"), doc.get("N")
    # The writer only ever writes JSON integers; 1.9, true or "1" are not N.
    if type(d) is not int or type(N) is not int:
        raise InputFormatError(f"d and N must be JSON integers, got d={d!r}, N={N!r}")
    try:
        raw_elements = doc["elements"]
        weights = np.array([_real(e["w"]) for e in raw_elements], dtype=np.float64)
        guesses = np.array(
            [[complex(_real(re), _real(im)) for re, im in e["c"]] for e in raw_elements],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed POVM file {path}: {exc}") from exc
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict) or not provenance:
        provenance = {"source": "unknown"}
    povm = Povm(d=d, N=N, weights=weights, guesses=guesses, provenance=provenance)
    # Weights near the largest double sum to inf, which is refused below.
    with np.errstate(over="ignore"):
        weight_sum = float(np.sum(povm.weights))
    if exceeds(abs(weight_sum - 1.0), 1e-8):
        raise InputFormatError(f"weights sum to {weight_sum!r}, expected 1")
    residual = check_completeness(povm)
    if exceeds(residual, LOAD_COMPLETENESS_TOL):
        raise InputFormatError(
            f"completeness residual {residual:.3e} exceeds {LOAD_COMPLETENESS_TOL:g}; "
            "refusing to load"
        )
    return povm
