"""Command line interface.

Subcommands: build, verify, fidelity, simulate, clone, moments.  All
stochastic commands require an explicit --seed and produce byte
identical output for identical arguments.  Exit codes: 0 success,
1 certification failure, 2 input error (or output that cannot be
written, a stdout closed by its reader included), 3 resource guard.

Each command but moments forms its JSON payload, its text lines and,
where it offers --csv, its table, and prints through the one writer
_emit.  moments streams its rows as they are formed instead, so its
memory stays flat in the table size.

Every command loads what it runs and no more.  The layer modules
quadrature, povm, symmetric, estimation and cloner are imported with
this module, so a tracer that rebinds their functions in the modules
`import povmquad.cli` has loaded reaches every call.  The rest is
imported where it is used: moments (and with it fractions) by the
moments command, fractions by optimal_fidelity in fidelity, csv by
--csv, and the binomial sampler by simulate.

A process runs the CLI through process_main, which is both the
`povmquad` console script and the `python -m povmquad.cli` entry.  It
calls main(), flushes stdout and stderr, and ends with os._exit, so the
interpreter's finalization (clearing every module and collecting
numpy's import-time heap, about 30 ms of a 0.25 s command) is skipped.
Every file a command writes is closed before main returns, and no
command registers an atexit handler or starts a thread, so nothing else
is skipped.  A failed write or flush of stdout, whatever its cause, is
an output error, exit 2; if main raises, or the final flush does, the
interpreter exits the usual way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from itertools import product
from typing import NoReturn

import numpy as np

from .cloner import clone, single_particle_fidelity, two_step_estimate
from .errors import ConstructionError, InputFormatError, ResourceLimitError, exceeds
from .estimation import (
    check_samples,
    check_shots,
    mean_fidelity_exact,
    mean_fidelity_mc,
    optimal_fidelity,
    outcome_probs,
    sample_outcomes,
)
from .limits import FULL_SPACE_GUARD_ENV, check_cost
from .povm import (
    CERTIFICATION_TOL,
    Povm,
    build_povm,
    check_completeness,
    check_optimality,
    check_universality,
    load_povm,
    save_povm,
)
from .symmetric import PureState, haar_random_state

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _StdoutError(Exception):
    """A write to stdout, or its flush, failed: a reader gone, a device full."""


@contextmanager
def _writing_stdout():
    """Turn an OSError raised inside the block into a _StdoutError.

    Only blocks that write or flush stdout and touch no file use it, so
    an OSError from a file a command reads or writes keeps its mapping.
    """
    try:
        yield
    except OSError as exc:
        raise _StdoutError(str(exc)) from exc


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
    with _writing_stdout():
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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputFormatError(f"--tol must be finite and non-negative, got {tol!r}")


def _check_seeds(args: argparse.Namespace) -> None:
    for flag in ("seed", "state_seed"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise InputFormatError(f"--{flag.replace('_', '-')} must be non-negative, got {value}")


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
    _check_tol(args.tol)
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
    _check_tol(args.tol)
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


def _fidelity_table(povms: list[Povm], samples: int, seed: int) -> list[list]:
    """One row per family: d, N, analytic, mc_estimate, stderr, optimal."""
    table = []
    for k, povm in enumerate(povms):
        exact = mean_fidelity_exact(povm)
        mc = mean_fidelity_mc(povm, samples, seed + k)
        best = optimal_fidelity(povm.N, povm.d)
        optimal = f"{best.numerator}/{best.denominator}"
        table.append([povm.d, povm.N, exact.value, mc.value, mc.stderr, optimal])
    return table


def cmd_fidelity(args: argparse.Namespace) -> int:
    check_samples(args.samples)
    if args.sweep:
        if not args.d or not args.N:
            raise InputFormatError("--sweep requires --d and --N lists")
        povms = [build_povm(d, n) for d, n in product(args.d, args.N)]
    else:
        if not args.path:
            raise InputFormatError("provide a POVM path or --sweep")
        povms = [load_povm(args.path)]
    header = ["d", "N", "analytic", "mc_estimate", "stderr", "optimal"]
    table = _fidelity_table(povms, args.samples, args.seed)
    rows = [dict(zip(header, row)) for row in table]
    _emit(
        args,
        {"operation": "fidelity", "samples": args.samples, "seed": args.seed, "rows": rows},
        _table_lines(header, ["", "", ".12f", ".12f", ".3e", ""], table),
        (header, table),
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    check_shots(args.shots)
    if (args.state_seed is None) == (args.basis is None):
        raise InputFormatError("provide exactly one of --state-seed or --basis")
    if args.basis is not None and args.basis < 0:
        raise InputFormatError(f"--basis must be non-negative, got {args.basis}")
    povm = load_povm(args.path)
    if args.state_seed is not None:
        state = haar_random_state(povm.d, args.state_seed)
        state_desc = {"kind": "haar", "seed": args.state_seed}
    else:
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
    if args.d < 2:
        raise InputFormatError(f"--d must be >= 2, got {args.d}")
    if not 1 <= args.N <= args.M:
        raise InputFormatError(f"need 1 <= N <= M, got N={args.N}, M={args.M}")
    if args.states < 1:
        raise InputFormatError(f"--states must be >= 1, got {args.states}")
    # The table has one row per state and M; it is charged before any
    # family is built or any state drawn, as the moments table is.
    check_cost(
        f"clone table rows states*(M-N+1) for states={args.states}, N={args.N}, M={args.M}",
        args.states * (args.M - args.N + 1),
        FULL_SPACE_GUARD_ENV,
    )
    # The top family is built first.  It has A >= d_M elements, so its
    # construction cost A*d_M^2 bounds every clone's d_M^3: a run the guard
    # refuses is refused before any state is drawn or cloned.
    top = build_povm(args.d, args.M)
    states = [haar_random_state(args.d, args.seed + k) for k in range(args.states)]
    table = []
    for m in range(args.N, args.M + 1):
        povm_m = top if m == args.M else build_povm(args.d, m)
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


def _parse_indices(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InputFormatError(f"cannot parse index list {raw!r}") from exc


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
    from .moments import moment_value

    if args.i is not None:
        i_tuple, j_tuple = _parse_indices(args.i), _parse_indices(args.j)
        rows = [_moment_row(i_tuple, j_tuple, moment_value(args.d, i_tuple, j_tuple))]
    elif args.max_len is not None:
        if args.d < 2 or args.max_len < 1:
            raise InputFormatError(f"need --d >= 2 and --max-len >= 1, got {args.d} and {args.max_len}")
        # Length l lists the d^l x d^l moment matrix, so the table has
        # sum_l d^(2l) rows.  The running total is checked one length at a
        # time before any row is formed, so a huge max_len is never summed.
        total = 0
        for l in range(1, args.max_len + 1):
            total += args.d ** (2 * l)
            check_cost(
                f"moment table rows sum d^(2l) over l <= {l} for d={args.d}",
                total,
                FULL_SPACE_GUARD_ENV,
            )
        indices = range(1, args.d + 1)
        rows = (
            _moment_row(i_tuple, j_tuple, moment_value(args.d, i_tuple, j_tuple))
            for l in range(1, args.max_len + 1)
            for i_tuple, j_tuple in product(product(indices, repeat=l), repeat=2)
        )
    else:
        raise InputFormatError("provide --i/--j or --max-len")
    # Rows are written as they are formed, so memory stays flat in the table size.
    with _writing_stdout():
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
    parser = argparse.ArgumentParser(
        prog="povmquad",
        description="Finite optimal POVMs for pure-state estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and certify a POVM")
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--N", type=int, required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--tol", type=float, default=CERTIFICATION_TOL)
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-verify a stored POVM")
    p_verify.add_argument("path")
    p_verify.add_argument(
        "--level",
        choices=["all", *_residual_checks()],
        default="all",
    )
    p_verify.add_argument("--tol", type=float, default=CERTIFICATION_TOL)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_fid = sub.add_parser("fidelity", help="analytic and Monte Carlo mean fidelity")
    p_fid.add_argument("path", nargs="?")
    p_fid.add_argument("--sweep", action="store_true")
    p_fid.add_argument("--d", type=int, nargs="+")
    p_fid.add_argument("--N", type=int, nargs="+")
    p_fid.add_argument("--samples", type=int, required=True)
    p_fid.add_argument("--seed", type=int, required=True)
    fmt = p_fid.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_fid.set_defaults(func=cmd_fidelity)

    p_sim = sub.add_parser("simulate", help="sample measurement outcomes")
    p_sim.add_argument("path")
    p_sim.add_argument("--shots", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--state-seed", type=int, dest="state_seed")
    p_sim.add_argument("--basis", type=int)
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_clone = sub.add_parser("clone", help="optimal cloning and clone-then-estimate")
    p_clone.add_argument("--d", type=int, required=True)
    p_clone.add_argument("--N", type=int, required=True)
    p_clone.add_argument("--M", type=int, required=True)
    p_clone.add_argument("--states", type=int, default=5)
    p_clone.add_argument("--seed", type=int, required=True)
    fmt = p_clone.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_clone.set_defaults(func=cmd_clone)

    p_mom = sub.add_parser("moments", help="exact amplitude moments as p/q")
    p_mom.add_argument("--d", type=int, required=True)
    p_mom.add_argument("--i")
    p_mom.add_argument("--j")
    p_mom.add_argument("--max-len", type=int, dest="max_len")
    p_mom.add_argument("--json", action="store_true")
    p_mom.set_defaults(func=cmd_moments)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seeds(args)
        code = args.func(args)
        with _writing_stdout():
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
    except _StdoutError as exc:
        # Send whatever is still buffered to devnull, so the flush at
        # process exit cannot raise again.
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
