"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run ``traffic_ps`` (the cheapest workload) for real, once untraced
and once under the profiler, so they take about a minute.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference(workload: str) -> dict:
    return json.loads((run.REFS / f"{workload}.json").read_text())


@pytest.fixture(scope="module")
def traced():
    """``run.py --workload traffic_ps --trace 1`` at the reference seed."""
    return run.trace("traffic_ps", 0)


def test_traced_run_leaves_simulated_fields_equal(traced):
    (untraced, profiled), _metrics = traced
    assert profiled["fingerprints"] == untraced["fingerprints"]
    assert all(not problems for problems in profiled["op_failures"])


def test_reference_check_passes_and_a_perturbed_reference_fails(traced):
    (untraced, _profiled), _metrics = traced
    reference = _reference("traffic_ps")["fingerprints"]
    assert run.failed_ops([untraced], reference, None) == 0
    perturbed = copy.deepcopy(reference)
    perturbed[0]["stats"]["requests_rejected"] += 1
    assert run.failed_ops([untraced], perturbed, None) == 1
    perturbed = copy.deepcopy(reference)
    perturbed[0]["elapsed"] = perturbed[0]["elapsed"] * (1 + 1e-15)
    assert run.failed_ops([untraced], perturbed, None) == 1


def test_invariant_failure_and_disagreeing_repetition_fail():
    reference = _reference("scale64")["fingerprints"]
    good = {"fingerprints": reference, "op_failures": [[]]}
    assert run.failed_ops([good, good], None, None) == 0
    broken = {"fingerprints": reference, "op_failures": [["empty run"]]}
    assert run.failed_ops([good, broken], None, None) == 1
    drifted = {"fingerprints": copy.deepcopy(reference), "op_failures": [[]]}
    drifted["fingerprints"][0]["msgs"] += 1
    assert run.failed_ops([good, drifted], None, None) == 1


def test_per_layer_metric_names_match_benchmark_json(traced):
    _reports, metrics = traced
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_value, unit) in metrics.items()} == units


def test_layer_self_times_sum_to_traced_total(traced):
    _reports, metrics = traced
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in run.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.total_s"][0], rel=1e-9)
    # traffic_ps runs no cluster layer at all
    for layer in ("osmodel", "network", "protocol", "dse", "apps", "shard"):
        assert metrics[f"{layer}.self_s"][0] == 0.0
    assert metrics["sim.self_s"][0] > 0 and metrics["traffic.self_s"][0] > 0


def test_end_to_end_result_line(capsys):
    assert run.main(["--workload", "traffic_ps", "--seed", "0", "--seconds", "0"]) == 0
    *_, provenance, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert result["metrics"]["pass_rate"]["value"] == 1.0
    stamp = json.loads(provenance)["provenance"]
    for key in ("nproc", "python", "code_fingerprint", "seed", "inputs", "program_seeds"):
        assert key in stamp
    assert stamp["checked_against"] == "reference"


def test_benchmark_json_names_this_benchmark():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_sharded_reference_equals_single_loop_but_events():
    single, sharded = _reference("scale64"), _reference("scale64_sharded")
    strip = [run._without_events(fp) for fp in single["fingerprints"]]
    assert strip == [run._without_events(fp) for fp in sharded["fingerprints"]]
    assert (single["events"], sharded["events"]) == (332_739, 349_812)


def test_paper_points_match_measure_point():
    """paper_figs mirrors experiments.harness.measure_point's configuration."""
    from repro.apps.gauss_seidel import gauss_seidel_worker
    from repro.experiments.harness import measure_point
    from repro.hardware.platforms import get_platform

    reference = _reference("paper_figs")["fingerprints"]
    for index, procs in ((0, 1), (2, 4)):  # fig5 N=100 at 1 and 4 processors
        m = measure_point(get_platform("sunos"), gauss_seidel_worker, (100, 5, 7, False), procs)
        assert (m.elapsed, m.stats) == (reference[index]["elapsed"], reference[index]["stats"])


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "scale64"]) == 2
    assert capsys.readouterr().out == ""
