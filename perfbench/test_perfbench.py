"""Tests of the benchmark itself: output checks, failure counting, span arithmetic.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import run
from checks import (
    CheckFailed,
    check_build,
    check_clone,
    check_fidelity,
    check_simulate,
    check_verify,
    cloner_fidelity,
    optimal_fidelity,
)
from spans import layer_totals, self_times


def _build(**overrides) -> dict:
    doc = {
        "operation": "build", "d": 2, "N": 1, "elements": 18, "out": "f.json",
        "residuals": {"completeness": 2e-16, "optimality": 1e-16, "universality": 0.05},
        "weight_sum": 1.0,
    }
    doc.update(overrides)
    return doc


def _verify(**residuals) -> dict:
    values = {"completeness": 2e-16, "optimality": 1e-16, "universality": 0.05}
    values.update(residuals)
    return {"operation": "verify", "d": 2, "N": 1, "path": "f.json", "tol": 1e-10,
            "residuals": values, "passed": False}


def _fidelity(analytic: float | None = None, mc_offset: float = 1e-4) -> dict:
    exact = optimal_fidelity(2, 1) if analytic is None else analytic
    return {"operation": "fidelity", "samples": 20000, "seed": 1, "rows": [
        {"d": 2, "N": 1, "analytic": exact, "mc_estimate": exact + mc_offset,
         "stderr": 1e-3, "optimal": "2/3"}]}


def _clone(single_offset: float = 0.0, two_step_offset: float = 0.0) -> dict:
    rows = [
        {"M": m, "state_index": 0,
         "single_particle": cloner_fidelity(2, 1, m) + single_offset,
         "two_step": optimal_fidelity(2, 1) + (two_step_offset if m > 1 else 0.1)}
        for m in (1, 2, 3)
    ]
    return {"operation": "clone", "d": 2, "N": 1, "seed": 1, "rows": rows}


def _out(doc: dict) -> str:
    return json.dumps(doc) + "\n"


def test_correct_outputs_pass():
    assert check_build(0, _out(_build()), 2, 1) == 18
    check_verify(1, _out(_verify()), 2, 1)
    check_fidelity(0, _out(_fidelity()), 2, 1)
    simulate = {"operation": "simulate", "d": 2, "N": 1, "counts": [5] * 18 + [10]}
    check_simulate(0, _out(simulate), 2, 1, elements=19, shots=100)
    check_clone(0, _out(_clone()), 2, 1, 3, 1)


@pytest.mark.parametrize(
    "rc, stdout, check",
    [
        # An analytic fidelity 1e-9 away from (N+1)/(N+d).
        (0, _out(_fidelity(analytic=optimal_fidelity(2, 1) + 1e-9)), check_fidelity),
        # Monte Carlo 5 standard errors away.
        (0, _out(_fidelity(mc_offset=5e-3)), check_fidelity),
        (0, _out(_fidelity(mc_offset=math.nan)), check_fidelity),
        # build must exit 0.
        (1, _out(_build()), check_build),
        (0, _out(_build(residuals={"completeness": math.nan, "optimality": 0.0})), check_build),
        (0, _out(_build(residuals={"completeness": 0.0, "optimality": math.inf})), check_build),
        (0, _out(_build(residuals={"completeness": 0.0})), check_build),
        (0, _out(_build(weight_sum=1.0 + 1e-11)), check_build),
        (0, "not json\n", check_build),
        (0, "", check_build),
        (0, _out({**_build(), "operation": "verify"}), check_build),
        # verify must exit 1, and a universal minimal grid is a failure.
        (0, _out(_verify()), check_verify),
        (1, _out(_verify(universality=1e-12)), check_verify),
        (1, _out(_verify(optimality=math.nan)), check_verify),
        (1, _out(_verify(universality=math.nan)), check_verify),
        (0, _out(_clone(single_offset=1e-9)), check_clone),
        (0, _out(_clone(two_step_offset=1e-7)), check_clone),
        (0, _out({**_clone(), "rows": _clone()["rows"][:2]}), check_clone),
    ],
)
def test_doctored_output_fails(rc, stdout, check):
    args = {check_fidelity: (2, 1), check_build: (2, 1), check_verify: (2, 1),
            check_clone: (2, 1, 3, 1)}[check]
    with pytest.raises(CheckFailed):
        check(rc, stdout, *args)


@pytest.mark.parametrize(
    "counts", [[50, 51], [101, -1], [100], [50.0, 50], [True, 99], None]
)
def test_doctored_counts_fail(counts):
    doc = {"operation": "simulate", "d": 2, "N": 1, "counts": counts}
    with pytest.raises(CheckFailed):
        check_simulate(0, _out(doc), 2, 1, elements=2, shots=100)


def test_runner_counts_a_doctored_output_as_failed(tmp_path: Path):
    runner = run.Runner(tmp_path)
    doctored = _fidelity(analytic=optimal_fidelity(2, 1) + 1e-9)
    script = f"print({json.dumps(json.dumps(doctored))})"
    good = json.dumps(json.dumps(_fidelity()))
    cmd = run.Command("fidelity", ["-c", script], lambda rc, out: check_fidelity(rc, out, 2, 1))
    ok = run.Command("fidelity", ["-c", f"print({good})"], lambda rc, out: check_fidelity(rc, out, 2, 1))
    bad_exit = run.Command(
        "build", ["-c", f"print({json.dumps(json.dumps(_build()))}); raise SystemExit(1)"],
        lambda rc, out: check_build(rc, out, 2, 1),
    )
    outcomes = [runner.run(c, prefix=(sys.executable,)) for c in (cmd, ok, bad_exit)]
    assert [o.error is None for o in outcomes] == [False, True, False]
    assert (runner.attempted, runner.failed) == (3, 2)


def _span(cmd, sid, parent, name, start, end):
    return {"cmd": cmd, "id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_on_a_hand_made_tree():
    spans = [
        _span("a", 0, None, "root", 0.0, 10.0),
        _span("a", 1, 0, "child", 1.0, 4.0),
        _span("a", 2, 0, "child", 3.0, 6.0),  # overlaps the first child
        _span("a", 3, 0, "late", 8.0, 12.0),  # runs past the end of root
        _span("a", 4, 1, "leaf", 2.0, 3.0),
        # Same ids in another command must not be mixed in.
        _span("b", 0, None, "root", 0.0, 1.0),
        _span("b", 1, 0, "child", 0.25, 0.5),
    ]
    selfs = self_times(spans)
    assert selfs[("a", 0)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[("a", 1)] == pytest.approx(2.0)
    assert selfs[("a", 2)] == pytest.approx(3.0)
    assert selfs[("a", 3)] == pytest.approx(4.0)
    assert selfs[("a", 4)] == pytest.approx(1.0)
    assert selfs[("b", 0)] == pytest.approx(0.75)
    totals = layer_totals(spans)
    assert totals["root"] == pytest.approx({"calls": 2, "total_s": 11.0, "self_s": 3.75})
    assert totals["child"] == pytest.approx({"calls": 3, "total_s": 6.25, "self_s": 5.25})


def test_tail_uses_the_highest_supported_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = run.tail([float(i) for i in range(1, 101)])
    assert (label, value) == ("p90", 90.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
