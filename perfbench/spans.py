"""Span bookkeeping shared by the traced launcher and the benchmark runner.

A span is a dict with keys id, parent, name, start, end and cmd.  Ids
are unique within one command (cmd); parent is the id of the enclosing
span of the same command, or None for a root.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

# The public functions the traced run wraps, as (module, function).  Every
# povmquad module that holds a reference to one of them is rebound.
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("quadrature", "sphere_grid"),
    ("quadrature", "gauss_legendre"),
    ("quadrature", "verify_exactness"),
    ("povm", "build_povm"),
    ("povm", "check_completeness"),
    ("povm", "check_optimality"),
    ("povm", "check_universality"),
    ("povm", "save_povm"),
    ("povm", "load_povm"),
    ("symmetric", "sym_embed_batch"),
    ("symmetric", "symmetric_projector_full"),
    ("estimation", "mean_fidelity_mc"),
    ("estimation", "mean_fidelity_exact"),
    ("estimation", "outcome_probs"),
    ("estimation", "sample_outcomes"),
    ("cloner", "clone"),
    ("cloner", "single_particle_fidelity"),
    ("cloner", "two_step_components"),
)

LAYER_NAMES = tuple(f"{module}.{name}" for module, name in LAYER_FUNCTIONS)

# Spans under which a sym_embed_batch call forms a frame operator (the
# weighted Gram matrix of one family at one level).
CERTIFICATION_SPANS = frozenset(
    {
        "quadrature.verify_exactness",
        "povm.check_completeness",
        "povm.check_optimality",
        "povm.check_universality",
    }
)

# Counts the launcher adds up per command; the runner adds them up per pass.
SUMMED_COUNTERS = (
    "symmetric.sym_embed_batch.rows",
    "povm.frame_operators",
    "povm.frame_operators_distinct",
    "povm.gram_flops",
    "povm.save_povm.bytes",
    "povm.load_povm.bytes",
    "estimation.mean_fidelity_mc.states",
    "symmetric.symmetric_projector_full.permutations",
    "cloner.tensor_power_vectors",
)

# Counts kept as a maximum rather than a sum.
MAX_COUNTERS = ("estimation.mc_block_bytes",)


def _covered(start: float, end: float, children: list[dict]) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    intervals = sorted(
        (max(c["start"], start), min(c["end"], end)) for c in children
    )
    covered = 0.0
    run_start = run_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """Self time of every span, keyed by (cmd, id)."""
    children: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["cmd"], span["parent"])].append(span)
    return {
        (s["cmd"], s["id"]): (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children[(s["cmd"], s["id"])])
        for s in spans
    }


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name, over every span given."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[(span["cmd"], span["id"])]
    return totals
