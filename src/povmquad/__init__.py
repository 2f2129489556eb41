"""Finite optimal POVMs for pure-state estimation from N copies.

Construction by exact product quadratures on the state sphere,
verification against exact Haar moments, estimation statistics, and
the optimal symmetric-projection cloner in occupation coordinates.

Importing the package loads no submodule.  _EXPORTS names the module
of every public name; the first access to a name (attribute, from-import
or star-import) imports that module and keeps the name here (PEP 562).
So `import povmquad.cli` loads only what the command line needs: the
layer modules quadrature, povm, symmetric, estimation and cloner with
their helper modules errors and _numpy, but neither moments nor
sampling, nor numpy, nor the fractions and csv modules of the standard
library.  Those load when a command or a caller first uses them; numpy
loads at the first attribute read of the deferred handle _numpy.np.
"""

import importlib

__version__ = "0.23.0"

# Public name -> the submodule that defines it.  __all__ is this table's keys.
_EXPORTS = {
    "ClonerOutput": "cloner",
    "ConstructionError": "errors",
    "FidelityReport": "estimation",
    "InputFormatError": "errors",
    "Povm": "povm",
    "PovmQuadError": "errors",
    "PureState": "symmetric",
    "ResourceLimitError": "errors",
    "build_povm": "povm",
    "check_completeness": "povm",
    "check_optimality": "povm",
    "check_universality": "povm",
    "clone": "cloner",
    "contraction_count": "moments",
    "fidelity": "symmetric",
    "frame_operator": "symmetric",
    "frame_residual": "symmetric",
    "gauss_legendre": "quadrature",
    "haar_random_state": "symmetric",
    "haar_random_states": "symmetric",
    "load_povm": "povm",
    "majority_vote_fidelity": "estimation",
    "mean_fidelity_exact": "estimation",
    "mean_fidelity_mc": "estimation",
    "moment_value": "moments",
    "occupation_basis": "symmetric",
    "optimal_fidelity": "estimation",
    "outcome_probs": "estimation",
    "overlap": "symmetric",
    "pointwise_fidelity": "estimation",
    "restrict_povm": "povm",
    "sample_outcomes": "estimation",
    "save_povm": "povm",
    "single_particle_fidelity": "cloner",
    "single_particle_reduced": "cloner",
    "sphere_grid": "quadrature",
    "sym_dim": "errors",
    "sym_embed": "symmetric",
    "sym_embed_batch": "symmetric",
    "sym_isometry": "symmetric",
    "symmetric_projector_full": "symmetric",
    "two_step_components": "cloner",
    "two_step_estimate": "cloner",
    "verify_exactness": "quadrature",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
