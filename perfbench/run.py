"""End-to-end benchmark of the povmquad command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {certify,query,clone} --seed N \
        --seconds S --trace {0,1}

Each command runs as a fresh `python -m povmquad.cli` process, one at a
time (a closed loop with one client), so every measurement includes
interpreter start-up, the numpy import and every lazy cache.  A pass is
the workload's command list.  Passes repeat while the next one is
expected to end within --seconds, and there is always at least one.
Every command's output is checked (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and
traced passes in pairs, the traced one through launcher.py, and prints
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, TypeVar

from checks import (
    CheckFailed,
    check_build,
    check_clone,
    check_fidelity,
    check_simulate,
    check_verify,
)
from spans import LAYER_NAMES, MAX_COUNTERS, SUMMED_COUNTERS, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launcher.py"

# The (d, N) matrix; A runs from 18 at (2,1) to 36000 at (4,2).
MATRIX = ((2, 1), (2, 4), (2, 8), (3, 2), (3, 3), (3, 4), (4, 2))
# One 4096-state overlap block at A = 36000 peaks at 3.4 GB resident.
MC_EXCLUDED = {(4, 2)}
FIDELITY_SAMPLES = 20000
SHOTS = 10000
# (d, N, M, states): M = 9 is dominated by the 9!-permutation projector,
# d = 3 by the per-state tensor-power rebuild in two_step_components.
CLONE_RUNS = ((2, 1, 9, 1), (3, 1, 4, 5))

WORKLOADS = ("certify", "query", "clone")
KINDS = ("build", "verify", "fidelity", "simulate", "clone")
# Set-up repeats at least this many times and until this long has passed.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric the traced run reports."""
    units = {"cli.import_s": "s"}
    for name in LAYER_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    for name in SUMMED_COUNTERS + MAX_COUNTERS:
        units[name] = "B" if name.endswith("bytes") else "flop" if name.endswith("flops") else "count"
    units["povm.frame_operator_useful_ratio"] = "ratio"
    units["povm.elements"] = "count"
    for kind in KINDS:
        units[f"trace_overhead.{kind}_s"] = "s"
    return units


T = TypeVar("T")


class SetupFailed(Exception):
    """The benchmark could not prepare a workload; no result is printed."""


@dataclass
class Command:
    kind: str
    argv: list[str]
    check: Callable[[int, str], object]


@dataclass
class Outcome:
    kind: str
    seconds: float
    rss_mb: float
    error: str | None
    value: object = None  # what the check returned


PYTHON_CLI = (sys.executable, "-m", "povmquad.cli")


class Runner:
    """Runs commands as fresh processes, checks them and counts operations.

    Children get the caller's environment without POVMQUAD_* variables,
    so a caller's shell cannot change the resource guards being measured,
    and with src/ first on PYTHONPATH.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("POVMQUAD_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failed = 0

    def run(self, cmd: Command, prefix: tuple[str, ...] = PYTHON_CLI) -> Outcome:
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [*prefix, *cmd.argv], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps the child and returns its own peak resident set.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        value, error = None, None
        try:
            value = cmd.check(proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"))
        except CheckFailed as exc:
            self.failed += 1
            error = str(exc)
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"FAILED {cmd.kind} {' '.join(cmd.argv)}: {error}\n{tail}", file=sys.stderr)
        return Outcome(cmd.kind, seconds, usage.ru_maxrss / 1024.0, error, value)


def _check_import(rc: int, stdout: str) -> None:
    if rc != 0:
        raise CheckFailed(f"import exited {rc}")
    path = Path(stdout.strip()).resolve()
    if SRC.resolve() not in path.parents:
        raise CheckFailed(f"povmquad.cli imported from {path}, not from {SRC}")


IMPORT_PROBE = Command(
    "import", ["-c", "import povmquad.cli; print(povmquad.cli.__file__)"], _check_import
)


def probe_import(runner: Runner) -> float:
    """Seconds for a fresh interpreter to import povmquad.cli from src/."""
    outcome = runner.run(IMPORT_PROBE, prefix=(sys.executable,))
    if outcome.error is not None:
        raise SetupFailed(outcome.error)
    return outcome.seconds


def _build_command(d: int, N: int, out: Path) -> Command:
    return Command(
        "build",
        ["build", "--d", str(d), "--N", str(N), "--out", str(out), "--json"],
        partial(check_build, d=d, N=N),
    )


def setup(workload: str, seed: int, runner: Runner) -> list[Command]:
    """Prepare one workload and return the command list of one pass.

    Every workload makes a fresh output directory, derives its command
    seeds from the workload seed and checks that povmquad imports from
    src/.  query also builds and saves the seven families it reads.
    """
    families = runner.workdir / "families"
    if families.exists():
        shutil.rmtree(families)
    families.mkdir()
    rng = random.Random(f"perfbench:{workload}:{seed}")
    probe_import(runner)
    if workload == "certify":
        return [_build_command(d, N, families / f"d{d}_N{N}.json") for d, N in MATRIX]
    if workload == "clone":
        return [
            Command(
                "clone",
                ["clone", "--d", str(d), "--N", str(N), "--M", str(M), "--states", str(states),
                 "--seed", str(rng.randrange(2**31)), "--json"],
                partial(check_clone, d=d, N=N, M=M, states=states),
            )
            for d, N, M, states in CLONE_RUNS
        ]
    plan = []
    for d, N in MATRIX:
        path = families / f"d{d}_N{N}.json"
        built = runner.run(_build_command(d, N, path))
        if built.error is not None:
            raise SetupFailed(f"building d={d}, N={N}: {built.error}")
        plan.append(Command("verify", ["verify", str(path), "--json"], partial(check_verify, d=d, N=N)))
        if (d, N) not in MC_EXCLUDED:
            plan.append(Command(
                "fidelity",
                ["fidelity", str(path), "--samples", str(FIDELITY_SAMPLES),
                 "--seed", str(rng.randrange(2**31)), "--json"],
                partial(check_fidelity, d=d, N=N),
            ))
        plan.append(Command(
            "simulate",
            ["simulate", str(path), "--shots", str(SHOTS), "--seed", str(rng.randrange(2**31)),
             "--state-seed", str(rng.randrange(2**31)), "--json"],
            partial(check_simulate, d=d, N=N, elements=built.value, shots=SHOTS),
        ))
    return plan


def run_pass(runner: Runner, plan: list[Command], spans_dir: Path | None = None) -> list[Outcome]:
    """One pass over the plan; with spans_dir, each command runs traced."""
    if spans_dir is None:
        return [runner.run(cmd) for cmd in plan]
    return [
        runner.run(cmd, prefix=(sys.executable, str(LAUNCHER), str(spans_dir / f"{i}.json"), str(i), "--"))
        for i, cmd in enumerate(plan)
    ]


def kind_seconds(outcomes: list[Outcome]) -> dict[str, float]:
    """Seconds per command kind over one pass, for the kinds the pass ran."""
    totals: dict[str, float] = {}
    for o in outcomes:
        totals[o.kind] = totals.get(o.kind, 0.0) + o.seconds
    return totals


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for permille in (999, 990, 900, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return f"p{permille / 10:g}", ordered[-(-permille * n // 1000) - 1]
    return "max", ordered[-1]


def describe(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"{name:<15} not run by this workload"
    label, value = tail(values)
    return (
        f"{name:<15} median {statistics.median(values):.4f} {unit}  "
        f"{label} {value:.4f} {unit}  n={len(values)}"
    )


def repeat_within(seconds: float, step: Callable[[int], T]) -> list[T]:
    """step(0), step(1), ... while the next call is expected to end within `seconds`.

    The expected length of a call is the median of those made so far;
    there is always at least one call.
    """
    results: list[T] = []
    durations: list[float] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - began)
    return results


def measure(workload: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[str]]:
    """Untraced run: set-up repeated, then passes for `seconds`."""
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        start = time.perf_counter()
        plan = setup(workload, seed, runner)
        setup_s.append(time.perf_counter() - start)
    passes = repeat_within(seconds, lambda _: run_pass(runner, plan))
    pass_s = [sum(o.seconds for o in p) for p in passes]
    by_kind = [kind_seconds(p) for p in passes]
    peak_rss_mb = max(o.rss_mb for p in passes for o in p)
    lines = [describe("setup_s", "s", setup_s)]
    lines += [describe(f"{kind}_s", "s", [k[kind] for k in by_kind if kind in k]) for kind in KINDS]
    lines += [
        describe("pass_s", "s", pass_s),
        f"{'peak_rss_mb':<15} {peak_rss_mb:.1f} MB  (largest single command)",
        f"{'ops_failed_frac':<15} {runner.failed / runner.attempted:.4f} ratio  "
        f"({runner.failed} of {runner.attempted} commands)",
    ]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(pass_s),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, lines


def layer_metrics(spans_dir: Path, commands: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the launcher's files."""
    docs = []
    for i in range(commands):
        path = spans_dir / f"{i}.json"
        if not path.is_file():
            raise SetupFailed(f"traced command {i} wrote no spans")
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    totals = layer_totals([span for doc in docs for span in doc["spans"]])
    metrics: dict[str, float] = {}
    for name in LAYER_NAMES:
        entry = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field, value in entry.items():
            metrics[f"{name}.{field}"] = value
    for name in SUMMED_COUNTERS:
        metrics[name] = sum(doc["counters"][name] for doc in docs)
    for name in MAX_COUNTERS:
        metrics[name] = max(doc["maxima"][name] for doc in docs)
    formed = metrics["povm.frame_operators"]
    metrics["povm.frame_operator_useful_ratio"] = (
        metrics["povm.frame_operators_distinct"] / formed if formed else 0.0
    )
    families = {tuple(f) for doc in docs for f in doc["families"]}
    metrics["povm.elements"] = sum(a for _, _, a in families)
    return metrics


def trace(workload: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[str]]:
    """Traced run: untraced and traced passes in pairs for `seconds`."""
    plan = setup(workload, seed, runner)
    import_s = statistics.median(probe_import(runner) for _ in range(IMPORT_REPEATS))
    spans_dir = runner.workdir / "spans"

    def pair(index: int) -> tuple[dict[str, float], dict[str, float]]:
        if spans_dir.exists():
            shutil.rmtree(spans_dir)
        spans_dir.mkdir()
        # Alternate which side of the pair runs first, so drift in machine
        # speed does not land on one side of the overhead.
        if index % 2 == 0:
            plain = kind_seconds(run_pass(runner, plan))
            traced = kind_seconds(run_pass(runner, plan, spans_dir))
        else:
            traced = kind_seconds(run_pass(runner, plan, spans_dir))
            plain = kind_seconds(run_pass(runner, plan))
        overhead = {kind: traced.get(kind, 0.0) - plain.get(kind, 0.0) for kind in KINDS}
        return layer_metrics(spans_dir, len(plan)), overhead

    pairs = repeat_within(seconds, pair)
    layers = [layer for layer, _ in pairs]
    overheads = [overhead for _, overhead in pairs]
    metrics = {"cli.import_s": import_s}
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    for kind in KINDS:
        metrics[f"trace_overhead.{kind}_s"] = statistics.median(o[kind] for o in overheads)
    lines = [f"traced passes: {len(layers)} (each paired with an untraced pass)"]
    return metrics, lines


def git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    """Versions, BLAS thread setting, cores, commit and seed of this run."""
    info = {"python": platform.python_version(), "numpy": "unknown", "blas": "unknown"}
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, TypeError, KeyError, AttributeError):
        pass
    info["blas_threads"] = {v: os.environ.get(v, "unset (library default)") for v in BLAS_THREAD_VARS}
    info["nproc"] = len(os.sched_getaffinity(0))
    info["commit"] = git_commit()
    info["workload"] = workload
    info["seed"] = seed
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "povmquad" / "cli.py").is_file():
        print(f"perfbench: no povmquad sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    try:
        if args.trace:
            metrics, lines = trace(args.workload, args.seed, args.seconds, runner)
            units = per_layer_units()
        else:
            metrics, lines = measure(args.workload, args.seed, args.seconds, runner)
            units = END_TO_END_UNITS
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for line in lines:
        print(line)
    if args.trace:
        for name, unit in units.items():
            print(f"{name:<52} {metrics[name]:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
