"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The smoke passes run the real worker on a small subset of each workload
(``bench_workloads.SMOKE``), untraced and traced, in fresh processes.
"""

from __future__ import annotations

import copy
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_workloads as bw  # noqa: E402
import run as bench  # noqa: E402
from bench_stats import tail  # noqa: E402
from bench_trace import BOUNDARIES  # noqa: E402

#: Where each layer boundary must record calls.  A boundary renamed or
#: moved in the program then fails here instead of reading 0.
HOT_ON = {
    "analyze": (
        "check_transaction_at", "plan_level", "prune_plan", "check_statement",
        "check_rollback", "check_unit", "is_valid", "is_satisfiable",
    ),
    "explore": (
        "explore", "RaceAnalyzer.analyze", "online_signature", "Simulator.run",
        "ops.begin", "ops.commit", "ops.abort", "ops.read", "ops.write", "ops.select",
        "ops.insert", "ops.update", "find_cycle", "check",
    ),
    "fuzz": (
        "infer_application", "refine_candidates", "run_case", "explore_probe",
        "record", "load", "generate_application", "check_transaction_at", "explore",
    ),
}
#: Boundaries no workload reaches: nothing in the program calls the
#: prover's ``holds``, and no bundled scenario or generated program deletes
#: rows.  They read 0 everywhere; a new caller shows up here.
NEVER_CALLED = ("holds", "ops.delete")
#: Counters the layer table predicts to be 0 on a workload.
PREDICTED_ZERO = {
    "explore": (
        "core.prover.is_valid.calls", "core.prover.is_satisfiable.calls",
        "core.interference.bmc.decided", "core.conditions.check_transaction_at.calls",
        "core.infer.infer_application.calls",
    ),
    "analyze": (
        "engine.deadlock.find_cycle.calls", "sched.explore.runs",
        "sched.simulator.Simulator.run.calls", "engine.manager.ops.begin.calls",
        "core.infer.infer_application.calls",
    ),
}
#: Counters the layer table predicts to be positive on a workload.
PREDICTED_POSITIVE = {
    "analyze": ("core.interference.bmc.decided", "core.interference.symbolic.decided",
                "core.conditions.obligations", "core.prover.cubes_fastpath"),
    "explore": ("sched.explore.runs", "engine.storage.snapshot_captures",
                "engine.manager.abort_share"),
    "fuzz": ("core.infer.cegis_rounds", "fuzz.differential.control_share",
             "sched.explore.runs"),
}


@pytest.fixture(scope="module", params=bw.WORKLOADS)
def smoke(request):
    workload = request.param
    deadline = time.monotonic() + 160
    base = bench.run_worker(workload, 0, "run", deadline, smoke=True)
    traced = bench.run_worker(workload, 0, "traced", deadline, smoke=True)
    return workload, base, traced


def test_traced_outputs_equal_untraced(smoke):
    workload, base, traced = smoke
    assert base["problems"] == {} and traced["problems"] == {}
    assert base["outputs"] == traced["outputs"]
    assert [label for label, _ms in base["unit_ms"]] == [label for label, _ms in traced["unit_ms"]]


def test_boundaries_record_calls_where_hot(smoke):
    workload, _base, traced = smoke
    layers = traced["layers"]
    names = {name: layer for layer, name, *_ in BOUNDARIES}
    for name in HOT_ON.get(workload, ()):
        assert layers[f"{names[name]}.{name}.calls"][0] >= 1, name
    for name in NEVER_CALLED:
        assert layers[f"{names[name]}.{name}.calls"][0] == 0, name
    for metric in PREDICTED_ZERO.get(workload, ()):
        assert layers[metric][0] == 0, metric
    for metric in PREDICTED_POSITIVE.get(workload, ()):
        assert layers[metric][0] > 0, metric
    assert traced["coverage"] >= 0.95


def test_every_boundary_is_hot_somewhere():
    hot = {name for names in HOT_ON.values() for name in names} | set(NEVER_CALLED)
    assert {name for _layer, name, *_ in BOUNDARIES} <= hot


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(range(1, 101)) == (90, 90.0, 100)
    value, percentile, n = tail([float(x) for x in range(81)])
    assert (value, n) == (70.0, 81) and percentile == pytest.approx(100 * 71 / 81)
    # ties never count as beyond: 11 copies of the maximum push the pick down
    assert tail([1] * 5 + [2] * 5 + [3] * 11)[0] == 2
    with pytest.raises(ValueError):
        tail(range(10))


def _analyze_outputs(reference: dict) -> dict:
    """Outputs that agree with the reference everywhere."""
    units = [
        {"unit": list(key), "ok": bool(verdict)}
        for key, verdict in bw.expected_analyze_units(reference).items()
    ]
    apps = [{"app": app, "levels": dict(entry["levels"])} for app, entry in reference["apps"].items()]
    return {"units": units, "apps": apps}


def test_tampered_level_table_is_caught():
    reference = bw.load_reference("analyze")
    outputs = _analyze_outputs(reference)
    assert bw.check_analyze(outputs, reference) == {}
    tampered = copy.deepcopy(reference)
    tampered["apps"]["orders"]["levels"]["Delivery"] = "READ COMMITTED"
    problems = bw.check_analyze(outputs, tampered)
    assert ("orders", "Delivery", "READ COMMITTED") in problems
    assert ("orders",) in problems
    tampered = copy.deepcopy(reference)
    tampered["apps"]["banking"]["snapshot"]["Withdraw_sav"] = True
    assert ("banking", "Withdraw_sav", "SNAPSHOT") in bw.check_analyze(outputs, tampered)


def _explore_outputs(reference: dict) -> dict:
    rows = []
    for key, truth in reference["units"].items():
        rows.append({
            "unit": key.split("|"),
            "final_states": len(truth["final_states"]),
            "final_digest": bw.digest(truth["final_states"]),
            "violations": list(truth["violations"]),
            "truncated": False,
        })
    return {"units": rows}


def test_dropped_final_state_is_caught():
    reference = bw.load_reference("explore")
    assert len(reference["units"]) == 66
    outputs = _explore_outputs(reference)
    assert bw.check_explore(outputs, reference) == {}
    key = "banking|write-skew|SNAPSHOT"
    truth = reference["units"][key]
    assert len(truth["final_states"]) > 1
    row = next(row for row in outputs["units"] if row["unit"] == key.split("|"))
    row["final_digest"] = bw.digest(truth["final_states"][1:])
    assert tuple(key.split("|")) in bw.check_explore(outputs, reference)
    outputs = _explore_outputs(reference)
    row = next(row for row in outputs["units"] if row["unit"] == key.split("|"))
    row["violations"] = row["violations"][1:]
    assert tuple(key.split("|")) in bw.check_explore(outputs, reference)


def test_unsound_fuzz_case_is_caught():
    reference = bw.load_reference("fuzz")
    row = {"unit": [3], "error": None, "verdict": "UNSOUND", "tightness": None}
    outputs = {"units": [row], "ledger_reloads": True}
    assert (3,) in bw.check_fuzz(outputs, reference)
    row["verdict"] = "SOUND"
    assert bw.check_fuzz(outputs, reference) == {}
