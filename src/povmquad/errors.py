"""Exception types, the integer check, the tolerance test and the resource guards.

The command line interface maps the exceptions onto stable exit codes:
construction/certification failures -> 1, malformed inputs -> 2,
resource-guard refusals -> 3.

check_int is the one test of a count (a dimension, a copy number, a
sample or shot count, a seed, an index, a guard variable): every such
argument the package or the CLI checks goes through it, and so does
every match of two counts, such as a state's dimension against a
POVM's, as the bounds lo = hi.  _parse_int is the one
grammar of an integer read from text, a CLI flag or a guard variable:
ASCII digits, optionally after one '-'.

Both resource guards can be raised or lowered through environment
variables so batch jobs can opt into bigger computations without code
changes; check_cost is the one place a guard is enforced.  check_int and
check_cost write the numbers a refusal names, only as they refuse, through
one shortener, _shown, so no refusal meets the int-to-str digit limit.
Every build-guard cost is times*d_k^power for d_k = sym_dim(d, k), so
sym_dim lives here, beside _charge_dim, the one charge of such a cost.
"""

from __future__ import annotations

import math
import operator
import os

# Largest full-space dimension d**M for dense tensor-product operators,
# and largest row count of a moments or clone table.
FULL_SPACE_GUARD_ENV = "POVMQUAD_FULL_SPACE_GUARD"

# Largest A * d_level**2 work estimate for grid construction and for
# every frame operator (certification and Monte Carlo fidelity alike),
# and largest d_M**3 for a cloner output.
BUILD_GUARD_ENV = "POVMQUAD_BUILD_GUARD"

_DEFAULTS = {FULL_SPACE_GUARD_ENV: 4096, BUILD_GUARD_ENV: 50_000_000}

# An integer a refusal names is printed digit by digit below 10**COST_DIGITS
# and by its order of magnitude from there on.
COST_DIGITS = 40


class PovmQuadError(Exception):
    """Base class for all package-specific errors."""


class ConstructionError(PovmQuadError):
    """A numerical construction failed its certification check.

    Carries the offending residual when one is available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InputFormatError(PovmQuadError):
    """Malformed user input: bad arguments, bad files, broken invariants."""


class ResourceLimitError(PovmQuadError):
    """A requested computation exceeds the configured resource guard."""


def exceeds(value: float, tol: float) -> bool:
    """True unless value <= tol, so a NaN value or tolerance never passes.

    Every certification and validation tolerance test goes through here.
    """
    return not value <= tol


def _worst(values: list[float]) -> float:
    """The largest of values, or NaN if any is NaN.

    Python's max keeps a NaN only from first place, so a residual taken
    with it could pass exceeds with a NaN entry anywhere else.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a plain int, or InputFormatError unless it is an integer in [lo, hi].

    An integer is a value whose type has __index__ (int, numpy integers)
    other than a bool; a float, even 2.0, a string or None is not.  hi
    None means no upper bound; hi = lo asks for lo itself.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InputFormatError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < lo or hi is not None and value > hi:
        if hi is None:
            bound = f"{name} >= {_shown(lo)}"
        elif lo == hi:
            bound = f"{name} = {_shown(lo)}"
        else:
            bound = f"{_shown(lo)} <= {name} <= {_shown(hi)}"
        raise InputFormatError(f"need {bound}, got {_shown(value)}")
    return value


def _shown(value: int) -> str:
    """value in digits, or as about 10^k (-(about 10^k) if negative) from COST_DIGITS digits on."""
    if abs(value) < 10**COST_DIGITS:
        return str(value)
    shown = f"about 10^{math.floor(math.log10(abs(value)))}"
    return shown if value > 0 else f"-({shown})"


def _is_digits(text: str) -> bool:
    """True iff text is one or more ASCII digits 0-9.

    int() would also take 1_0, +1, surrounding spaces and non-ASCII
    digits, so every integer the package reads from text passes this
    check first.
    """
    return text.isascii() and text.isdigit()


def _parse_int(text: str) -> int | None:
    """text as an int if it is ASCII digits, optionally after one '-'; else None.

    The rule of every integer the CLI reads from a flag or a guard
    variable.  A negative value parses, so the caller's range check
    names the value and its bound.
    """
    if _is_digits(text[1:] if text.startswith("-") else text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on str-to-int digits
            pass
    return None


def _read_guard(env_name: str) -> int:
    raw = os.environ.get(env_name)
    if raw is None:
        return _DEFAULTS[env_name]
    value = _parse_int(raw)
    if value is None:
        raise InputFormatError(f"{env_name} must be an integer, got {raw!r}")
    return check_int(env_name, value, 1)


def check_cost(what: str, cost: int, env_name: str, **values: int) -> None:
    """Raise ResourceLimitError, naming values then cost, if cost exceeds env_name's guard."""
    guard = _read_guard(env_name)
    if cost > guard:
        if values:
            what += " for " + ", ".join(f"{name}={_shown(value)}" for name, value in values.items())
        raise ResourceLimitError(
            f"{what} = {_shown(cost)} exceeds guard {guard}; set {env_name} to raise it"
        )


def sym_dim(d: int, N: int) -> int:
    """Dimension C(N+d-1, d-1) of the symmetric subspace."""
    d, N = check_int("d", d, 1), check_int("N", N, 0)
    return math.comb(N + d - 1, d - 1)


def _charge_dim(what: str, times: int, d: int, k: int, power: int, **values: int) -> int:
    """d_k = sym_dim(d, k), once times*d_k^power is within the build guard.

    For k >= 1, d_k >= max(d, k+1) at d >= 2 and d_k = 1 at d = 1, so that
    floor is charged first, as "<what> lower bound", and a d_k too huge to
    admit is never formed.  Both refusals name values, then d and k.
    """
    floor = max(d, k + 1) if d > 1 else 1
    check_cost(f"{what} lower bound", times * floor**power, BUILD_GUARD_ENV, **values, d=d, k=k)
    dim = sym_dim(d, k)
    check_cost(what, times * dim**power, BUILD_GUARD_ENV, **values, d=d, k=k)
    return dim
