"""Finite optimal POVMs for estimating a pure state from N copies.

Each element is E_a = d_N * w_a * (|phi_a><phi_a|)^{tensor N} for a
positive weight w_a and guess state phi_a, with sum_a w_a = 1.  The
single condition sum_a w_a rho_a^{tensor N} = S_N / d_N makes the set a
POVM on the symmetric subspace and simultaneously an optimal estimator;
when the same nodes satisfy the condition one level higher (N+1) the
estimator is universal: its fidelity is the same constant for every
input state.  Grids from sphere_grid satisfy the condition by
construction and are certified numerically before a Povm is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConstructionError, InputFormatError, exceeds
from .quadrature import sphere_grid, verify_exactness
from .symmetric import NORM_TOL, PureState, frame_residual, sym_dim

FORMAT_VERSION = "1"
CERTIFICATION_TOL = 1e-10
LOAD_COMPLETENESS_TOL = 1e-8


@dataclass(frozen=True)
class Povm:
    """Weighted family of guess states defining an optimal-form POVM.

    weights has shape (A,) with finite, strictly positive entries;
    guesses has shape (A, d) with finite, unit-norm rows.  Completeness
    and optimality are not re-verified on construction (tests build
    deliberately broken instances); build_povm and load_povm are the
    certifying entry points.
    """

    d: int
    N: int
    weights: np.ndarray
    guesses: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 2 or self.N < 1:
            raise InputFormatError(f"need d >= 2 and N >= 1, got d={self.d}, N={self.N}")
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        guesses = np.ascontiguousarray(self.guesses, dtype=np.complex128)
        if guesses.ndim != 2 or guesses.shape != (weights.size, self.d):
            raise InputFormatError("guesses must have shape (len(weights), d)")
        if weights.size == 0:
            raise InputFormatError("POVM must have at least one element")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(guesses.view(np.float64)))):
            raise InputFormatError("weights and guess amplitudes must be finite")
        if not np.all(weights > 0.0):
            raise InputFormatError("all weights must be strictly positive")
        norms = np.abs(np.linalg.norm(guesses, axis=1) - 1.0)
        worst = float(np.max(norms))
        if exceeds(worst, 10 * NORM_TOL):
            raise InputFormatError(f"guess norm deviates from 1 by {worst:.3e}")
        weights.setflags(write=False)
        guesses.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "guesses", guesses)

    @property
    def n_outcomes(self) -> int:
        return self.weights.size

    def guess_state(self, a: int) -> PureState:
        return PureState(self.guesses[a])

    def elements(self) -> Iterator[tuple[float, PureState]]:
        """(weight, guess state) pairs in outcome order."""
        for a in range(self.n_outcomes):
            yield float(self.weights[a]), self.guess_state(a)


def check_optimality(povm: Povm) -> float:
    """Residual of sum_a w_a rho_a^{tensor N} = S_N/d_N at the POVM's N."""
    return frame_residual(povm.guesses, povm.weights, povm.N)


def check_completeness(povm: Povm) -> float:
    """Residual of sum_a E_a = S_N in the symmetric subspace.

    Identical to d_N times the optimality residual since
    E_a = d_N w_a rho_a^{tensor N}.
    """
    return sym_dim(povm.d, povm.N) * check_optimality(povm)


def check_universality(povm: Povm) -> float:
    """Residual of the same node condition one level up (N+1 copies).

    Zero (to tolerance) iff the estimator's fidelity is pointwise
    constant in the input state.
    """
    return frame_residual(povm.guesses, povm.weights, povm.N + 1)


def build_povm(
    d: int,
    N: int,
    *,
    theta_counts: tuple[int, ...] | None = None,
    tol: float = CERTIFICATION_TOL,
) -> Povm:
    """Construct and certify the grid-based optimal POVM for (d, N).

    Raises ResourceLimitError if the construction cost exceeds the
    guard (checked by sphere_grid) and ConstructionError (carrying the
    residual) if the built rule fails exactness certification at `tol`.
    """
    rule = sphere_grid(d, N, theta_counts=theta_counts)
    residual = verify_exactness(rule, N)
    if exceeds(residual, tol):
        raise ConstructionError(
            f"grid for d={d}, N={N} failed certification: residual {residual:.3e} > {tol:g}",
            residual,
        )
    provenance = {
        "construction": "sphere-grid",
        "theta_counts": list(rule.theta_counts),
        "certified_residual": f"{residual:.17g}",
        "certification_tol": f"{tol:.17g}",
    }
    return Povm(d=d, N=N, weights=rule.weights, guesses=rule.states(), provenance=provenance)


def restrict_povm(povm: Povm, N: int) -> Povm:
    """Reuse the same nodes and weights as an estimator for N <= M copies.

    A rule exact at degree 2M is exact at every lower degree, so the
    restriction stays optimal; for N < M it is universal as well.
    """
    if not 1 <= N <= povm.N:
        raise InputFormatError(f"need 1 <= N <= {povm.N}, got N={N}")
    provenance = dict(povm.provenance)
    provenance["restricted_from"] = povm.N
    return Povm(d=povm.d, N=N, weights=povm.weights, guesses=povm.guesses, provenance=provenance)


# Elements formatted by one %-pass each; bounds the file text held in memory.
SAVE_BLOCK = 4096


def save_povm(povm: Povm, path: str | Path) -> None:
    """Write the POVM as canonical JSON (sorted keys, 17-digit decimals).

    Weights and amplitudes are serialised as decimal strings so the
    save -> load -> save round trip is byte identical.  The bytes are
    those of json.dumps(doc, sort_keys=True, indent=2) on the document
    of per-element dicts; tests/_oracles.povm_json_reference is that
    writer and the tests pin this one to it byte for byte.  Every element
    has the same indent-2 layout, so a block of elements is one repeated
    template filled by a single %-format ("%.17g" and format(x, ".17g")
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
            for start in range(0, povm.n_outcomes, SAVE_BLOCK):
                rows = table[start : start + SAVE_BLOCK]
                if start:
                    fh.write(",\n")
                fh.write(",\n".join([element] * len(rows)) % tuple(rows.ravel().tolist()))
            fh.write("\n  ],\n" + tail[2:] + "\n")
    except OSError as exc:
        raise InputFormatError(f"cannot write POVM file {path}: {exc}") from exc


def load_povm(path: str | Path) -> Povm:
    """Read a POVM file and re-verify its invariants.

    Rejects unknown format versions, d or N that are not JSON integers,
    everything Povm rejects (non-finite values, non-positive weights,
    non-unit guesses), weight sums away from 1, and completeness
    residuals above 1e-8 (reported in the error message).  Missing
    provenance maps to {"source": "unknown"}.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
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
        weights = np.array([float(e["w"]) for e in raw_elements], dtype=np.float64)
        guesses = np.array(
            [[complex(float(re), float(im)) for re, im in e["c"]] for e in raw_elements],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed POVM file {path}: {exc}") from exc
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict) or not provenance:
        provenance = {"source": "unknown"}
    povm = Povm(d=d, N=N, weights=weights, guesses=guesses, provenance=provenance)
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
