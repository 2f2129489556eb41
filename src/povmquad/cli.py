"""Command line interface.

Subcommands: build, verify, fidelity, simulate, clone, moments.  All
stochastic commands require an explicit --seed and produce byte
identical output for identical arguments.  Exit codes: 0 success,
1 certification failure, 2 input error (or output that cannot be
written, a stdout closed by its reader included), 3 resource guard.

Each command but moments forms its JSON payload, its text lines and,
where it offers --csv, its table, and prints through the one writer
_emit.  moments streams its rows as they are formed instead, so its
memory stays flat in the table size.  The parser writes and flushes
--help itself, so help that cannot be written is exit 2 whether stdout
is buffered or not.  fidelity charges its Monte Carlo work
(estimation.check_sample_cost, per 512 samples) to the build guard
before it draws a state, and --sweep the sum over its families before
it builds one; --sweep then builds each family just before its row and
drops it after, so it holds one family at a time, and a later family's
refusal can come after earlier rows' Monte Carlo.  clone builds and
certifies one family, the M-copy one, and measures the clones of every
level m with its restriction to m copies (povm.restrict_povm), which is
universal for m < M.

Each flag's parser type holds its whole rule (_count, _tol,
_parse_indices), so argparse checks a value once, as it reads the flag,
and every range error names its flag.  Commands check only rules of two
flags or of a flag and the loaded file.  --tol is an ASCII decimal
literal, and every integer flag and guard variable ASCII digits
(errors._parse_int), so neither reads 1_0, +1, spaces or non-ASCII digits.

Every command loads what it runs and no more.  No module of the
package imports numpy: each reads it through the deferred handle
_numpy.np.  main imports numpy right after parsing, for every command
but moments, so --help, a usage error and moments never load it (about
90 ms and 12 MB), a numeric command pays the import inside main, and
numpy's heap is laid out only after every package module has compiled.
The layer modules quadrature, povm, symmetric, estimation and cloner
still load with this module, numpy or not: a tracer that rebinds their
functions in the modules `import povmquad.cli` has loaded
(perfbench/launcher.py) would miss every call of a layer imported
later, inside a cmd_* function.  The rest is imported where it is
used: moments (and with it fractions) by the moments command, csv by
--csv, and the binomial sampler by simulate.
fidelity prints its exact optimum p/q from estimation's integer pair,
so it loads neither fractions nor decimal.

A process runs the CLI through process_main, which is both the
`povmquad` console script and the `python -m povmquad.cli` entry.  It
calls main(), flushes stdout and stderr, and ends with os._exit, so the
interpreter's finalization (clearing every module and collecting
numpy's import-time heap, about 30 ms of a 0.25 s command) is skipped.
Every file a command writes is closed before main returns, and no
command registers an atexit handler or starts a thread, so nothing else
is skipped.  A failed write or flush of stdout, whatever its cause, is
an output error, exit 2: commands and --help write stdout plainly, and
main's one `except OSError` maps the failure, because every file a
command reads or writes maps its own OSError to an input error where it
is opened.  If main raises, or the final flush does, the interpreter
exits the usual way.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import re
import sys
from itertools import product
from typing import NoReturn

from ._numpy import np
from .cloner import clone, single_particle_fidelity, two_step_estimate
from .errors import (
    FULL_SPACE_GUARD_ENV,
    ConstructionError,
    InputFormatError,
    ResourceLimitError,
    _is_digits,
    _parse_int,
    check_cost,
    check_int,
    exceeds,
)
from .estimation import (
    MAX_SHOTS,
    MC_MIN_SAMPLES,
    _optimal_ratio,
    check_sample_cost,
    mean_fidelity_exact,
    mean_fidelity_mc,
    outcome_probs,
    sample_outcomes,
)
from .povm import (
    CERTIFICATION_TOL,
    Povm,
    build_povm,
    check_completeness,
    check_optimality,
    check_universality,
    load_povm,
    restrict_povm,
    save_povm,
)
from .symmetric import PureState, haar_random_state

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that lets a failed write of its stdout output (--help) raise.

    argparse's own _print_message drops an OSError from the write.  Here
    the text is written and flushed, and the OSError reaches main, so
    help that cannot be written is an output error whether stdout is
    buffered or not.  add_subparsers makes its subparsers of this class
    too.  None takes an abbreviated flag (`--to` for --tol), so a flag is
    read only by its full name or as --name=value.
    """

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


def _emit(
    args: argparse.Namespace,
    payload: dict,
    lines: list[str],
    table: tuple[list[str], list[list]] | None = None,
) -> None:
    """Print a command's result: payload under --json, table under --csv, else lines.

    table is (header, rows); its floats are written as their repr and
    every other value as it is.
    """
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif getattr(args, "csv", False):
        import csv

        header, rows = table
        writer = csv.writer(sys.stdout, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    else:
        for line in lines:
            print(line)


def _table_lines(header: list[str], formats: list[str], rows: list[list]) -> list[str]:
    """The header and each row formatted column by column, two spaces apart."""
    return ["  ".join(header), *("  ".join(map(format, row, formats)) for row in rows)]


# An ASCII decimal literal with an optional exponent.  float() would also
# take 1_0, surrounding spaces, non-ASCII digits, nan and inf.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _tol(text: str) -> float:
    """The value of --tol: a finite, non-negative ASCII decimal literal."""
    tol = float(text) if _DECIMAL.fullmatch(text) else math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputFormatError(f"--tol must be a finite non-negative decimal number, got {text!r}")
    return tol


def _attach_tol(argv: list[str]) -> list[str]:
    """argv with each `--tol X` written `--tol=X` where X begins with one '-'.

    argparse takes such an X (-inf, -1e-5, -nan; not -0.5, which it reads
    as a negative number) for an option and reports --tol without its
    argument.  Attached, X reaches _tol's check.  Nothing after `--` is
    touched.
    """
    args = list(argv)
    end = args.index("--") if "--" in args else len(args)
    for i in reversed(range(end - 1)):
        if args[i] == "--tol" and args[i + 1].startswith("-") and not args[i + 1].startswith("--"):
            args[i : i + 2] = [f"--tol={args[i + 1]}"]
    return args


def _count(flag: str, lo: int, hi: int | None = None):
    """The parser type of an integer flag: errors._parse_int's grammar, then check_int's range.

    argparse makes its usage error only of ArgumentTypeError, TypeError
    and ValueError, so check_int's InputFormatError reaches main.
    """

    def count(text: str) -> int:
        value = _parse_int(text)
        if value is None:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return check_int(flag, value, lo, hi)

    return count


def _parse_indices(flag: str, raw: str) -> tuple[int, ...]:
    """The comma-separated indices of --i or --j; empty entries are skipped.

    Each entry is ASCII digits only (_is_digits).
    """
    tokens = [tok for tok in raw.split(",") if tok]
    if not all(map(_is_digits, tokens)):
        raise InputFormatError(f"{flag} must be comma-separated digits 0-9, got {raw!r}")
    return tuple(int(tok) for tok in tokens)


def _residual_checks() -> dict:
    """The checks build reports and verify selects with --level, in report order.

    Formed per call from this module's bindings, so a wrapper installed
    over one of these names (a profiler's, say) sees every call.
    """
    return {
        "completeness": check_completeness,
        "optimality": check_optimality,
        "universality": check_universality,
    }


def _residuals(povm: Povm, level: str = "all") -> dict[str, float]:
    """Residuals of every check, or of the one named by level."""
    checks = _residual_checks()
    if level != "all":
        checks = {level: checks[level]}
    return {name: check(povm) for name, check in checks.items()}


def cmd_build(args: argparse.Namespace) -> int:
    povm = build_povm(args.d, args.N, tol=args.tol)
    res = _residuals(povm)
    save_povm(povm, args.out)
    weight_sum = float(np.sum(povm.weights))
    payload = {
        "operation": "build",
        "d": args.d,
        "N": args.N,
        "elements": povm.n_outcomes,
        "out": str(args.out),
        "residuals": res,
        "weight_sum": weight_sum,
    }
    lines = [
        f"built POVM d={args.d} N={args.N}: {povm.n_outcomes} elements -> {args.out}",
        *(f"  {name} residual: {value:.3e}" for name, value in res.items()),
        f"  weight sum: {weight_sum!r}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    povm = load_povm(args.path)
    results = _residuals(povm, args.level)
    failed = [name for name, value in results.items() if exceeds(value, args.tol)]
    payload = {
        "operation": "verify",
        "path": str(args.path),
        "d": povm.d,
        "N": povm.N,
        "tol": args.tol,
        "residuals": results,
        "passed": not failed,
    }
    lines = [
        f"POVM d={povm.d} N={povm.N}, {povm.n_outcomes} elements",
        *(
            f"  {name} residual: {value:.3e}  [{'FAIL' if name in failed else 'PASS'}]"
            for name, value in results.items()
        ),
    ]
    _emit(args, payload, lines)
    return EXIT_OK if not failed else EXIT_CERTIFICATION


def _fidelity_row(povm: Povm, samples: int, seed: int) -> list:
    """One family's row: d, N, analytic, mc_estimate, stderr, optimal."""
    exact = mean_fidelity_exact(povm)
    mc = mean_fidelity_mc(povm, samples, seed)
    optimal = "%d/%d" % _optimal_ratio(povm.N, povm.d)
    return [povm.d, povm.N, exact.value, mc.value, mc.stderr, optimal]


def cmd_fidelity(args: argparse.Namespace) -> int:
    if bool(args.path) == args.sweep:
        raise InputFormatError("provide exactly one of a POVM path or --sweep")
    # Charged before any state is drawn, and under --sweep before any family is built.
    if args.sweep:
        if not args.d or not args.N:
            raise InputFormatError("--sweep requires --d and --N lists")
        families = list(product(args.d, args.N))
        check_sample_cost(args.samples, families)
        # Each family is built just before its row and dropped after it.
        table = [
            _fidelity_row(build_povm(d, n), args.samples, args.seed + k)
            for k, (d, n) in enumerate(families)
        ]
    else:
        if args.d is not None or args.N is not None:
            raise InputFormatError("--d and --N require --sweep; a POVM file has its own d and N")
        povm = load_povm(args.path)
        check_sample_cost(args.samples, [(povm.d, povm.N)])
        table = [_fidelity_row(povm, args.samples, args.seed)]
    header = ["d", "N", "analytic", "mc_estimate", "stderr", "optimal"]
    rows = [dict(zip(header, row)) for row in table]
    _emit(
        args,
        {"operation": "fidelity", "samples": args.samples, "seed": args.seed, "rows": rows},
        _table_lines(header, ["", "", ".12f", ".12f", ".3e", ""], table),
        (header, table),
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.state_seed is None) == (args.basis is None):
        raise InputFormatError("provide exactly one of --state-seed or --basis")
    povm = load_povm(args.path)
    if args.state_seed is not None:
        state = haar_random_state(povm.d, args.state_seed)
        state_desc = {"kind": "haar", "seed": args.state_seed}
    else:
        check_int("--basis", args.basis, 0, povm.d - 1)
        state = PureState.basis_state(povm.d, args.basis)
        state_desc = {"kind": "basis", "index": args.basis}
    counts = sample_outcomes(povm, state, args.shots, args.seed)
    probs = outcome_probs(povm, state)
    tv = 0.5 * float(np.sum(np.abs(counts / args.shots - probs / probs.sum())))
    payload = {
        "operation": "simulate",
        "d": povm.d,
        "N": povm.N,
        "shots": args.shots,
        "seed": args.seed,
        "state": state_desc,
        "counts": counts.tolist(),
        "tv_distance": tv,
    }
    lines = [
        f"simulated {args.shots} shots on POVM d={povm.d} N={povm.N}",
        f"  state: {state_desc}",
        f"  nonzero outcomes: {int(np.count_nonzero(counts))}/{povm.n_outcomes}",
        f"  total-variation distance to exact: {tv:.6f}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_clone(args: argparse.Namespace) -> int:
    check_int("--N", args.N, 1, args.M)
    # The table has one row per state and M; it is charged before any
    # family is built or any state drawn, as the moments table is.
    check_cost(
        "clone table rows states*(M-N+1)",
        args.states * (args.M - args.N + 1),
        FULL_SPACE_GUARD_ENV,
        states=args.states,
        N=args.N,
        M=args.M,
    )
    # The top family is the only one built and certified; every level m
    # measures the clones with its restriction to m copies, which is
    # universal for m < M.  It has A >= d_M elements, so its construction
    # cost A*d_M^2 bounds every clone's d_M^3 and every level's two-step
    # work A*d_m^2: a run the guard refuses is refused before any state is
    # drawn or cloned.
    top = build_povm(args.d, args.M)
    states = [haar_random_state(args.d, args.seed + k) for k in range(args.states)]
    table = []
    for m in range(args.N, args.M + 1):
        povm_m = restrict_povm(top, m)
        for idx, state in enumerate(states):
            out = clone(state, args.N, m)
            single = single_particle_fidelity(out, state)
            table.append([m, idx, single, two_step_estimate(out, state, povm_m)])
    header = ["M", "state_index", "single_particle", "two_step"]
    rows = [dict(zip(header, row)) for row in table]
    _emit(
        args,
        {"operation": "clone", "d": args.d, "N": args.N, "seed": args.seed, "rows": rows},
        _table_lines(header, ["", "", ".12f", ".12f"], table),
        (header, table),
    )
    return EXIT_OK


def _moment_row(i_tuple: tuple[int, ...], j_tuple: tuple[int, ...], value) -> dict:
    """One table row; value is the exact moment, a Fraction, written p/q."""
    try:
        text = f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        # Past the interpreter's limit on int-to-str conversion.
        raise InputFormatError("the exact moment for this --d has too many digits to print") from exc
    return {"i": list(i_tuple), "j": list(j_tuple), "value": text}


def cmd_moments(args: argparse.Namespace) -> int:
    if (args.i is None) != (args.j is None):
        raise InputFormatError("--i and --j must be given together")
    if args.i is not None and args.max_len is not None:
        raise InputFormatError("provide --i/--j or --max-len, not both")
    from .moments import moment_value

    if args.i is not None:
        rows = [_moment_row(args.i, args.j, moment_value(args.d, args.i, args.j))]
    elif args.max_len is not None:
        # Length l lists the d^l x d^l moment matrix, so the table has
        # sum_l d^(2l) rows.  The running total is checked one length at a
        # time before any row is formed, so a huge max_len is never summed.
        total = 0
        for l in range(1, args.max_len + 1):
            total += args.d ** (2 * l)
            check_cost("moment table rows d^2 + ... + d^(2l)", total, FULL_SPACE_GUARD_ENV, l=l, d=args.d)
        indices = range(1, args.d + 1)
        rows = (
            _moment_row(i_tuple, j_tuple, moment_value(args.d, i_tuple, j_tuple))
            for l in range(1, args.max_len + 1)
            for i_tuple, j_tuple in product(product(indices, repeat=l), repeat=2)
        )
    else:
        raise InputFormatError("provide --i/--j or --max-len")
    # Rows are written as they are formed, so memory stays flat in the table size.
    if args.json:
        head = json.dumps({"d": args.d, "operation": "moments", "rows": []}, sort_keys=True)
        sys.stdout.write(head[:-2])
        for k, row in enumerate(rows):
            sys.stdout.write((", " if k else "") + json.dumps(row, sort_keys=True))
        sys.stdout.write("]}\n")
    else:
        for row in rows:
            i_txt = ",".join(str(k) for k in row["i"])
            j_txt = ",".join(str(k) for k in row["j"])
            print(f"<c_({i_txt}) c*_({j_txt})> = {row['value']}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="povmquad",
        description="Finite optimal POVMs for pure-state estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and certify a POVM")
    p_build.add_argument("--d", type=_count("--d", 2), required=True)
    p_build.add_argument("--N", type=_count("--N", 1), required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--tol", type=_tol, default=CERTIFICATION_TOL)
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-verify a stored POVM")
    p_verify.add_argument("path")
    p_verify.add_argument(
        "--level",
        choices=["all", *_residual_checks()],
        default="all",
    )
    p_verify.add_argument("--tol", type=_tol, default=CERTIFICATION_TOL)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_fid = sub.add_parser("fidelity", help="analytic and Monte Carlo mean fidelity")
    p_fid.add_argument("path", nargs="?")
    p_fid.add_argument("--sweep", action="store_true")
    p_fid.add_argument("--d", type=_count("--d", 2), nargs="+")
    p_fid.add_argument("--N", type=_count("--N", 1), nargs="+")
    p_fid.add_argument("--samples", type=_count("--samples", MC_MIN_SAMPLES), required=True)
    p_fid.add_argument("--seed", type=_count("--seed", 0), required=True)
    fmt = p_fid.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_fid.set_defaults(func=cmd_fidelity)

    p_sim = sub.add_parser("simulate", help="sample measurement outcomes")
    p_sim.add_argument("path")
    p_sim.add_argument("--shots", type=_count("--shots", 1, MAX_SHOTS), required=True)
    p_sim.add_argument("--seed", type=_count("--seed", 0), required=True)
    p_sim.add_argument("--state-seed", type=_count("--state-seed", 0), dest="state_seed")
    p_sim.add_argument("--basis", type=_count("--basis", 0))
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_clone = sub.add_parser("clone", help="optimal cloning and clone-then-estimate")
    p_clone.add_argument("--d", type=_count("--d", 2), required=True)
    p_clone.add_argument("--N", type=_count("--N", 1), required=True)
    p_clone.add_argument("--M", type=_count("--M", 1), required=True)
    p_clone.add_argument("--states", type=_count("--states", 1), default=5)
    p_clone.add_argument("--seed", type=_count("--seed", 0), required=True)
    fmt = p_clone.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_clone.set_defaults(func=cmd_clone)

    p_mom = sub.add_parser("moments", help="exact amplitude moments as p/q")
    p_mom.add_argument("--d", type=_count("--d", 2), required=True)
    p_mom.add_argument("--i", type=lambda raw: _parse_indices("--i", raw))
    p_mom.add_argument("--j", type=lambda raw: _parse_indices("--j", raw))
    p_mom.add_argument("--max-len", type=_count("--max-len", 1), dest="max_len")
    p_mom.add_argument("--json", action="store_true")
    p_mom.set_defaults(func=cmd_moments)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_tol(sys.argv[1:] if argv is None else argv))
        if args.command != "moments":
            # Here, not at the first np.* read: the import is charged to
            # main, not to whichever layer computes first.
            importlib.import_module("numpy")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConstructionError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except OSError as exc:
        # From stdout: each file a command opens maps its own OSError.  Send
        # whatever is still buffered to devnull, so the flush at process
        # exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"output error: cannot write all output to stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT


def process_main() -> NoReturn:
    """Run main() as the whole process, and end it without finalization.

    The `povmquad` console script and `python -m povmquad.cli` both call
    this.  An exception from main (argparse's SystemExit included) or
    from the flush propagates, so the interpreter reports it and exits as
    it would without this function: a lost write never ends as exit 0.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    process_main()
