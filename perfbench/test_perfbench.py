"""Self-tests of the benchmark: toy-sized workloads, reproducibility, and
the span arithmetic behind the per-layer metrics.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _rep(workload: str, work: Path, trace: bool = False, seed: int = 3) -> dict:
    return worker.run_rep(workload, seed, trace, work, toy=True, root=ROOT)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10]; children overlap each other, nest, and stick out
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (6.2, 6.5), (9.0, 12.0)]
    assert tracer.covered(0.0, 10.0, children) == pytest.approx(5.0)
    assert tracer.self_time(0.0, 10.0, children) == pytest.approx(5.0)
    assert tracer.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert tracer.self_time(0.0, 10.0, [(-5.0, 20.0)]) == pytest.approx(0.0)


def test_layer_metrics_on_a_synthetic_span_nest():
    spans = [
        ("cli.report", 0.0, 1.0, -1, None),
        ("metrics.throughput", 0.1, 0.5, 0, None),
        ("metrics.concurrency_series", 0.2, 0.4, 1, 100),
        ("metrics.export", 0.5, 0.55, 0, None),
        ("cli.simulate", 2.0, 4.0, -1, None),
        ("engine.run_simulated", 2.0, 3.9, 4, 50),
        ("engine.step", 2.1, 2.5, 5, ("launch", True)),
        ("scheduler.try_place", 2.2, 2.3, 6, True),
        ("pst.transition_task", 2.4, 2.45, 6, None),
        ("engine.step", 2.5, 2.6, 5, ("complete", False)),
    ]
    values, problems = tracer.layer_metrics(spans)
    # report: children cover 0.1-0.55 of 1.0 s
    assert values["report.self_s"] == pytest.approx(0.55)
    assert values["metrics.throughput.self_s"] == pytest.approx(0.2)
    assert values["metrics.concurrency_series.ns_per_event"] == pytest.approx(2e6)
    # simulate: 0.1 s uncovered; run_simulated minus scheduler and pst calls
    assert values["simulate.self_s"] == pytest.approx(0.1)
    assert values["engine.run_simulated.self_s"] == pytest.approx(1.75)
    assert values["engine.steps"] == 2
    assert values["engine.useful_step_ratio"] == pytest.approx(0.5)
    assert values["engine.step.launch.us_per_call"] == pytest.approx(4e5)
    assert values["scheduler.try_place.none_ratio"] == pytest.approx(1.0)
    assert values["engine.events_per_s"] == pytest.approx(50 / 1.9)
    assert len(problems) == 1 and problems[0].startswith("report:")


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_each_workload_passes_its_checks_at_toy_size(workload, tmp_path):
    rep = _rep(workload, tmp_path)
    assert rep["problems"] == []
    assert rep["not_done"] == 0 and rep["tasks"] > 0
    for phase in ("setup_s", "execute_s", "report_s"):
        assert rep[phase] > 0
    assert rep["wall_s"] >= rep["setup_s"] + rep["execute_s"] + rep["report_s"]
    # each phase is its wall time divided by the slowdown the probe saw
    first = {"setup_s": "example", "report_s": "report"}
    for phase, command in first.items():
        assert rep[phase] == pytest.approx(
            rep["raw"][phase] / rep["slowdown"][command])


def test_repetition_count_depends_only_on_workload_and_seconds():
    assert run.repetitions("headline", 20, False) == round(
        20 / run.REP_COST_S["headline"])
    assert run.repetitions("fault-retry", 1, False) == 3
    assert run.repetitions("fault-retry", 1, True) == 1
    assert run.repetitions("headline", 60, True) == round(
        60 / (2 * run.REP_COST_S["headline"]))
    assert set(run.REP_COST_S) == set(suite.WORKLOADS)


@pytest.mark.parametrize("workload", ["headline", "cores-full", "fault-retry"])
def test_two_in_process_repetitions_give_identical_digests(workload, tmp_path):
    first = _rep(workload, tmp_path / "a")
    second = _rep(workload, tmp_path / "b")
    assert first["attempts"] == second["attempts"]
    assert all(a["sha256"] for a in first["attempts"])
    assert _rep(workload, tmp_path / "c", seed=4)["attempts"] != first["attempts"]


def test_checks_catch_a_changed_log(tmp_path):
    rep = _rep("headline", tmp_path / "a")
    wl = suite.build("headline", 3, tmp_path / "a", toy=True)
    tampered = [dict(rep["attempts"][0], sha256="0" * 64)]
    golden = {"headline": {"3": tampered}}
    outcome = suite.check(wl, 3, {"simulate": 0}, golden)
    assert any("golden" in p for p in outcome["problems"])
    outcome = suite.check(wl, 3, {"simulate": 2}, None)
    assert "simulate exited 2" in outcome["problems"]


def test_traced_run_reports_every_layer_and_restores_the_program(tmp_path):
    worker.import_program(ROOT)
    import ensemblekit.engine as engine

    original = engine.step
    faulty = _rep("fault-retry", tmp_path / "f", trace=True)
    assert engine.step is original
    layers = faulty["layers"]
    assert set(layers) == set(tracer.UNITS) - {"trace.overhead_s"}
    assert layers["engine.step.node_fault.calls"] > 0
    assert layers["resilience.retry_loop.attempts"] == 2
    assert layers["resilience.collect_failures.calls"] > 0
    assert layers["local.run_local.s"] == 0

    clean = _rep("headline", tmp_path / "h", trace=True)["layers"]
    assert clean["engine.step.node_fault.calls"] == 0
    assert clean["scheduler.try_place.calls"] > 0

    local = _rep("local-desk", tmp_path / "l", trace=True)["layers"]
    assert local["local.tasks_per_s"] > 0
    assert local["local.turnaround_p95_ms"] >= local["local.turnaround_p50_ms"]
    assert local["engine.steps"] == 0


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_fault_list_is_a_function_of_the_seed():
    a = suite.node_faults(7, 200, 8000, 7000.0)
    assert a == suite.node_faults(7, 200, 8000, 7000.0)
    assert a != suite.node_faults(8, 200, 8000, 7000.0)
    assert sum(f.endswith(":persistent") for f in a) == 2
    for fault in a:
        node, _, rest = fault.partition("@")
        assert 0 <= int(node) < 8000
        assert 85.0 < float(rest.split(":")[0]) <= 7000.0
