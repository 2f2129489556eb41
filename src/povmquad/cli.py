"""Command line interface.

Subcommands: build, verify, fidelity, simulate, clone, moments.  All
stochastic commands require an explicit --seed and produce byte
identical output for identical arguments.  Exit codes: 0 success,
1 certification failure, 2 input error, 3 resource guard.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import product

import numpy as np

from .cloner import clone, single_particle_fidelity, two_step_estimate
from .errors import ConstructionError, InputFormatError, ResourceLimitError, exceeds
from .estimation import (
    mean_fidelity_exact,
    mean_fidelity_mc,
    optimal_fidelity,
    outcome_probs,
    sample_outcomes,
)
from .limits import FULL_SPACE_GUARD_ENV, check_cost
from .moments import moment_value
from .povm import (
    CERTIFICATION_TOL,
    Povm,
    build_povm,
    check_optimality,
    check_universality,
    load_povm,
    save_povm,
)
from .symmetric import PureState, haar_random_state, sym_dim

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _csv_out(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputFormatError(f"--tol must be finite and non-negative, got {tol!r}")


def _check_seeds(args: argparse.Namespace) -> None:
    for flag in ("seed", "state_seed"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise InputFormatError(f"--{flag.replace('_', '-')} must be non-negative, got {value}")


RESIDUAL_LEVELS = ("completeness", "optimality", "universality")


def _residuals(povm: Povm, levels: tuple[str, ...] = RESIDUAL_LEVELS) -> dict[str, float]:
    """Residuals of the requested checks, forming each frame operator once.

    Completeness is d_N times the optimality residual (as in
    check_completeness), so both come from one level-N operator.
    """
    res = {}
    if "completeness" in levels or "optimality" in levels:
        optimality = check_optimality(povm)
        if "completeness" in levels:
            res["completeness"] = sym_dim(povm.d, povm.N) * optimality
        if "optimality" in levels:
            res["optimality"] = optimality
    if "universality" in levels:
        res["universality"] = check_universality(povm)
    return res


def cmd_build(args: argparse.Namespace) -> int:
    _check_tol(args.tol)
    povm = build_povm(args.d, args.N, tol=args.tol)
    res = _residuals(povm)
    save_povm(povm, args.out)
    if args.json:
        _print_json(
            {
                "operation": "build",
                "d": args.d,
                "N": args.N,
                "elements": povm.n_outcomes,
                "out": str(args.out),
                "residuals": res,
                "weight_sum": float(np.sum(povm.weights)),
            }
        )
    else:
        print(f"built POVM d={args.d} N={args.N}: {povm.n_outcomes} elements -> {args.out}")
        for name in ("completeness", "optimality", "universality"):
            print(f"  {name} residual: {res[name]:.3e}")
        print(f"  weight sum: {float(np.sum(povm.weights))!r}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_tol(args.tol)
    povm = load_povm(args.path)
    levels = RESIDUAL_LEVELS if args.level == "all" else (args.level,)
    results = _residuals(povm, levels)
    failed = [name for name, value in results.items() if exceeds(value, args.tol)]
    if args.json:
        _print_json(
            {
                "operation": "verify",
                "path": str(args.path),
                "d": povm.d,
                "N": povm.N,
                "tol": args.tol,
                "residuals": results,
                "passed": not failed,
            }
        )
    else:
        print(f"POVM d={povm.d} N={povm.N}, {povm.n_outcomes} elements")
        for name in levels:
            verdict = "FAIL" if name in failed else "PASS"
            print(f"  {name} residual: {results[name]:.3e}  [{verdict}]")
    return EXIT_OK if not failed else EXIT_CERTIFICATION


def _fidelity_rows(povms: list[Povm], samples: int, seed: int) -> list[dict]:
    rows = []
    for k, povm in enumerate(povms):
        exact = mean_fidelity_exact(povm)
        mc = mean_fidelity_mc(povm, samples, seed + k)
        best = optimal_fidelity(povm.N, povm.d)
        rows.append(
            {
                "d": povm.d,
                "N": povm.N,
                "analytic": exact.value,
                "mc_estimate": mc.value,
                "stderr": mc.stderr,
                "optimal": f"{best.numerator}/{best.denominator}",
            }
        )
    return rows


def cmd_fidelity(args: argparse.Namespace) -> int:
    if args.sweep:
        if not args.d or not args.N:
            raise InputFormatError("--sweep requires --d and --N lists")
        povms = [build_povm(d, n) for d, n in product(args.d, args.N)]
    else:
        if not args.path:
            raise InputFormatError("provide a POVM path or --sweep")
        povms = [load_povm(args.path)]
    rows = _fidelity_rows(povms, args.samples, args.seed)
    header = ["d", "N", "analytic", "mc_estimate", "stderr", "optimal"]
    if args.json:
        _print_json({"operation": "fidelity", "samples": args.samples, "seed": args.seed, "rows": rows})
    elif args.csv:
        _csv_out(header, [[row[h] if h == "optimal" else repr(row[h]) if isinstance(row[h], float) else row[h] for h in header] for row in rows])
    else:
        print("  ".join(header))
        for row in rows:
            print(
                f"{row['d']}  {row['N']}  {row['analytic']:.12f}  "
                f"{row['mc_estimate']:.12f}  {row['stderr']:.3e}  {row['optimal']}"
            )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    povm = load_povm(args.path)
    if (args.state_seed is None) == (args.basis is None):
        raise InputFormatError("provide exactly one of --state-seed or --basis")
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
    if args.json:
        _print_json(payload)
    else:
        print(f"simulated {args.shots} shots on POVM d={povm.d} N={povm.N}")
        print(f"  state: {state_desc}")
        print(f"  nonzero outcomes: {int(np.count_nonzero(counts))}/{povm.n_outcomes}")
        print(f"  total-variation distance to exact: {tv:.6f}")
    return EXIT_OK


def cmd_clone(args: argparse.Namespace) -> int:
    if not 1 <= args.N <= args.M:
        raise InputFormatError(f"need 1 <= N <= M, got N={args.N}, M={args.M}")
    if args.states < 1:
        raise InputFormatError(f"--states must be >= 1, got {args.states}")
    states = [haar_random_state(args.d, args.seed + k) for k in range(args.states)]
    rows = []
    for m in range(args.N, args.M + 1):
        povm_m = build_povm(args.d, m)
        for idx, state in enumerate(states):
            out = clone(state, args.N, m)
            single = single_particle_fidelity(out, state)
            two_step = two_step_estimate(state, args.N, m, povm_m)
            rows.append(
                {
                    "M": m,
                    "state_index": idx,
                    "single_particle": single,
                    "two_step": two_step,
                }
            )
    header = ["M", "state_index", "single_particle", "two_step"]
    if args.json:
        _print_json(
            {
                "operation": "clone",
                "d": args.d,
                "N": args.N,
                "seed": args.seed,
                "rows": rows,
            }
        )
    elif args.csv:
        _csv_out(header, [[row["M"], row["state_index"], repr(row["single_particle"]), repr(row["two_step"])] for row in rows])
    else:
        print("  ".join(header))
        for row in rows:
            print(
                f"{row['M']}  {row['state_index']}  "
                f"{row['single_particle']:.12f}  {row['two_step']:.12f}"
            )
    return EXIT_OK


def _parse_indices(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InputFormatError(f"cannot parse index list {raw!r}") from exc


def _moment_row(d: int, i_tuple: tuple[int, ...], j_tuple: tuple[int, ...]) -> dict:
    value: Fraction = moment_value(d, i_tuple, j_tuple)
    return {"i": list(i_tuple), "j": list(j_tuple), "value": f"{value.numerator}/{value.denominator}"}


def cmd_moments(args: argparse.Namespace) -> int:
    if (args.i is None) != (args.j is None):
        raise InputFormatError("--i and --j must be given together")
    if args.i is not None:
        rows = [_moment_row(args.d, _parse_indices(args.i), _parse_indices(args.j))]
    elif args.max_len is not None:
        if args.d < 2 or args.max_len < 1:
            raise InputFormatError(f"need --d >= 2 and --max-len >= 1, got {args.d} and {args.max_len}")
        # Length l lists the d^l x d^l moment matrix.  Each d^l is checked in
        # turn before any row is formed, so d^max_len itself never is.
        for l in range(1, args.max_len + 1):
            check_cost(f"moment matrix dimension d^{l} for d={args.d}", args.d**l, FULL_SPACE_GUARD_ENV)
        indices = range(1, args.d + 1)
        rows = (
            _moment_row(args.d, i_tuple, j_tuple)
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
        choices=["all", *RESIDUAL_LEVELS],
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
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConstructionError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
