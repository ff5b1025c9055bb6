"""Tests of the benchmark itself: its oracles, its failure counting, its seeding
and its span analysis.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

TINY_WITNESS = {"random_members": 8, "projective_dims": ((2, 3),), "copies": 1}
TINY_ELIMINATE = {"random_members": (5, 6), "copies": 1}


def failures_of(requests) -> list[str]:
    result = worker.run_pass([list(r.argv) for r in requests])
    return run.check_pass(requests, result, [None] * len(requests))


def test_oracles_agree_with_the_tool(tmp_path):
    requests = (
        workloads.certify_witness(1, tmp_path, **TINY_WITNESS)
        + workloads.certify_eliminate(1, tmp_path, **TINY_ELIMINATE)
        + workloads.hunt_soundness(1, tmp_path, restarts=4)
    )
    assert failures_of(requests) == []


def test_tiny_oracles_are_not_empty():
    assert len(workloads.random_22_witnesses(8)) == 9
    labels = [divmod(k, 3) for k in range(6)]
    # 57 subsets less the 6 pairs that differ in row and column and the 6
    # triples that use all three columns and both rows.
    assert len(workloads.projective_witnesses(labels)) == 57 - 6 - 6


def test_a_wrong_expectation_counts_as_a_failure(tmp_path):
    rand, proj = workloads.certify_witness(1, tmp_path, **TINY_WITNESS)
    pair = workloads.hunt_soundness(1, tmp_path, restarts=4)[-1]
    labels = [divmod(k, 3) for k in range(6)]
    one_short = workloads.projective_witnesses(labels)[:-1]
    wrong = [
        workloads.Request(rand.name, rand.argv, workloads.expect_unique(8)),
        workloads.Request(proj.name, proj.argv, workloads.expect_witnesses(6, one_short)),
        workloads.Request(pair.name, pair.argv, workloads.expect_hunt(False)),
    ]
    failures = failures_of(wrong)
    assert [f.split(":")[0] for f in failures] == [rand.name, proj.name, pair.name]


def test_a_report_that_changes_between_passes_is_a_failure(tmp_path):
    requests = workloads.certify_witness(1, tmp_path, **TINY_WITNESS)[:1]
    result = worker.run_pass([list(r.argv) for r in requests])
    digests = ["0" * 64]
    assert run.check_pass(requests, result, digests) == [
        f"{requests[0].name}: report differs from the first pass's report"
    ]


def test_the_seed_changes_the_inputs_but_no_verdict(tmp_path):
    made = {}
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        requests = workloads.certify_witness(
            seed, workdir, **TINY_WITNESS
        ) + workloads.certify_eliminate(seed, workdir, **TINY_ELIMINATE)
        result = worker.run_pass([list(r.argv) for r in requests])
        assert run.check_pass(requests, result, [None] * len(requests)) == []
        made[seed] = (
            [Path(r.argv[1]).read_bytes() for r in requests],
            [r["summary"]["status"] for r in result["requests"]],
        )
    files1, verdicts1 = made[1]
    files2, verdicts2 = made[2]
    assert all(a != b for a, b in zip(files1, files2))
    assert verdicts1 == verdicts2 == ["Inconclusive"] * 2 + ["Unique"] * 3


def test_self_time_subtracts_the_union_of_child_intervals():
    table = {
        "names": ["a", "b", "c", "d"],
        "parent": [-1, 0, 0, 1],
        "start_ns": [0, 10, 15, 12],
        "end_ns": [100, 30, 40, 20],
    }
    # a's children b [10, 30) and c [15, 40) overlap: together they cover 30.
    assert spans.self_times(table) == [70, 12, 25, 8]


def test_traced_pass_counts_the_layers_and_restores_the_patches(tmp_path):
    import numpy as np
    import sepcert.cli

    requests = workloads.certify_witness(1, tmp_path, **TINY_WITNESS)
    original = (sepcert.cli.main, np.linalg.svd)
    rec = spans.SpanRecorder()
    with spans.traced(rec):
        result = worker.run_pass([list(r.argv) for r in requests], rec)
    assert (sepcert.cli.main, np.linalg.svd) == original
    emitted = sum(r["bytes"] for r in result["requests"])
    layers = spans.layer_metrics(json.loads(json.dumps(rec.to_json())), emitted)
    assert set(layers) == set(spans.LAYER_UNITS)
    subsets = workloads.subset_count(8) + workloads.subset_count(6)
    assert layers["certify.subsets"] == subsets
    assert layers["certify.rank_calls_per_subset"] == 2.0
    assert layers["linalg.rank_calls"] == layers["linalg.svd_calls"] == 2 * subsets
    assert layers["linalg.lstsq_calls"] == 0
    assert layers["hunter.restarts"] == 0
    assert 0 < layers["certify.self_s"] < layers["certify.time_s"]
    assert set(rec.request) == {0, 1}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {**spans.LAYER_UNITS, **run.TRACE_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


def test_a_request_is_rescaled_by_the_slices_around_it():
    ref = run.CALIB_REF_S
    slices = [
        {"units": 10, "wall_s": 10 * ref, "cpu_s": 10 * ref},
        {"units": 10, "wall_s": 30 * ref, "cpu_s": 30 * ref},
        {"units": 5, "wall_s": 10 * ref, "cpu_s": 5 * ref},
    ]
    timings = [{"wall_s": 2.0, "cpu_s": 2.0}, {"wall_s": 3.0, "cpu_s": 1.0}]
    # A unit took twice the reference around the first request, and 40/15
    # (wall) and 35/15 (CPU) times it around the second.
    assert run.rescaled(timings, slices) == [
        pytest.approx({"wall_s": 1.0, "cpu_s": 1.0}),
        pytest.approx({"wall_s": 3.0 * 15 / 40, "cpu_s": 1.0 * 15 / 35}),
    ]


def test_a_stepped_pass_interleaves_calibration_and_ends_its_processes(tmp_path):
    requests = workloads.certify_witness(1, tmp_path, **TINY_WITNESS)
    req_path = tmp_path / "requests.json"
    req_path.write_text(json.dumps([list(r.argv) for r in requests]))
    env = run.child_env()
    watchdog = run.Watchdog(120)
    calibrator = run.Child([sys.executable, str(BENCH / "calibrate.py")], env,
                           tmp_path / "calibrate.err")
    try:
        result = run.run_worker(req_path, tmp_path / "result.json", None, env,
                                calibrator, watchdog)
    finally:
        watchdog.cancel()
        assert calibrator.close() is not None
    assert watchdog.children == []
    assert len(result["slices"]) == len(requests) + 1
    assert all(s["units"] >= 1 for s in result["slices"])
    assert run.check_pass(requests, result, [None] * len(requests)) == []
    scaled = run.rescaled(result["requests"], result["slices"])
    assert all(t["wall_s"] > 0 and t["cpu_s"] > 0 for t in scaled)
