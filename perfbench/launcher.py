"""Run one povmquad command with its layer functions wrapped in spans.

Usage: python launcher.py SPANS_FILE CMD_ID -- COMMAND ARGS...

Imports povmquad from the PYTHONPATH the caller sets, rebinds each
function of spans.LAYER_FUNCTIONS in every povmquad module that holds a
reference to it, then calls povmquad.cli.main(ARGS).  Spans and counts
stay in memory and are written to SPANS_FILE as JSON when the command
returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import sys
import time

from spans import CERTIFICATION_SPANS, LAYER_FUNCTIONS, MAX_COUNTERS, SUMMED_COUNTERS


class Tracer:
    """Spans and counts of one command."""

    def __init__(self, cmd: str):
        self.cmd = cmd
        self.spans: list[dict] = []
        self.stack: list[tuple[int, str]] = []
        self.next_id = 0
        self.counters = dict.fromkeys(SUMMED_COUNTERS, 0)
        self.maxima = dict.fromkeys(MAX_COUNTERS, 0)
        self.frame_keys: set[tuple[str, int]] = set()
        self.families: set[tuple[int, int, int]] = set()

    def wrap(self, name: str, func):
        hook = _HOOKS.get(name)
        signature = inspect.signature(func) if hook else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            ancestors = [n for _, n in self.stack]
            self.stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "cmd": self.cmd}
                )
            if hook:
                hook(self, signature.bind(*args, **kwargs).arguments, result, ancestors)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        self.counters["povm.frame_operators_distinct"] = len(self.frame_keys)
        doc = {
            "spans": self.spans,
            "counters": self.counters,
            "maxima": self.maxima,
            "families": sorted(self.families),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _embed(tracer: Tracer, args: dict, result, ancestors: list[str]) -> None:
    rows, dim = result.shape
    tracer.counters["symmetric.sym_embed_batch.rows"] += rows
    if CERTIFICATION_SPANS.intersection(ancestors):
        amps = args["amplitudes"]
        digest = hashlib.sha1(amps.tobytes()).hexdigest()
        tracer.frame_keys.add((digest, int(args["N"])))
        tracer.counters["povm.frame_operators"] += 1
        tracer.counters["povm.gram_flops"] += rows * dim * dim


def _family(tracer: Tracer, args: dict, povm, ancestors: list[str]) -> None:
    tracer.families.add((povm.d, povm.N, povm.n_outcomes))


def _load(tracer: Tracer, args: dict, povm, ancestors: list[str]) -> None:
    tracer.counters["povm.load_povm.bytes"] += os.path.getsize(args["path"])
    _family(tracer, args, povm, ancestors)


def _save(tracer: Tracer, args: dict, result, ancestors: list[str]) -> None:
    tracer.counters["povm.save_povm.bytes"] += os.path.getsize(args["path"])


def _mc(tracer: Tracer, args: dict, result, ancestors: list[str]) -> None:
    samples = int(args["samples"])
    tracer.counters["estimation.mean_fidelity_mc.states"] += samples
    # The overlap block of the kernel: block states x A outcomes, complex128.
    estimation = sys.modules["povmquad.estimation"]
    block = min(getattr(estimation, "_MC_BLOCK", samples), samples)
    size = block * args["povm"].n_outcomes * 16
    key = "estimation.mc_block_bytes"
    tracer.maxima[key] = max(tracer.maxima[key], size)


def _projector(tracer: Tracer, args: dict, result, ancestors: list[str]) -> None:
    tracer.counters["symmetric.symmetric_projector_full.permutations"] += math.factorial(int(args["M"]))


def _two_step(tracer: Tracer, args: dict, result, ancestors: list[str]) -> None:
    tracer.counters["cloner.tensor_power_vectors"] += args["povm_m"].n_outcomes


_HOOKS = {
    "symmetric.sym_embed_batch": _embed,
    "povm.build_povm": _family,
    "povm.load_povm": _load,
    "povm.save_povm": _save,
    "estimation.mean_fidelity_mc": _mc,
    "symmetric.symmetric_projector_full": _projector,
    "cloner.two_step_components": _two_step,
}


def install(tracer: Tracer) -> None:
    """Rebind every layer function in each povmquad module holding it."""
    modules = [
        mod for name, mod in sys.modules.items()
        if name == "povmquad" or name.startswith("povmquad.")
    ]
    for module, fname in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(f"povmquad.{module}"), fname)
        wrapper = tracer.wrap(f"{module}.{fname}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_file, cmd_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    import povmquad.cli

    tracer = Tracer(cmd_id)
    install(tracer)
    try:
        return povmquad.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
