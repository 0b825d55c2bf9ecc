import pytest

from ensemblekit import events as ev
from ensemblekit import resilience
from ensemblekit.engine import (
    DurationSpec,
    FailureModel,
    RuntimeModel,
    run_simulated,
)
from ensemblekit.errors import EmptyPlan, IncompleteLog
from ensemblekit.events import EventLog
from ensemblekit.pst import Stage, WorkflowSpec, validate_workflow
from ensemblekit.resilience import (
    KIND_CANCELED,
    KIND_NODE_FAILURE,
    KIND_TASK_FAULT,
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from conftest import (
    exaconstit_task,
    make_task,
    simulated_attempts,
    single_stage,
    small_platform,
)

FIXED = RuntimeModel(default=DurationSpec.fixed(100.0))


def run_with_fault(n_tasks=4, fault=None, nodes=4, walltime=10000.0):
    platform = small_platform(nodes=nodes)
    wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(n_tasks)])
    log = run_simulated(wf, platform, nodes, walltime, FIXED, fault)
    return wf, log


class TestCollectFailures:
    def test_counts_failed_tasks(self):
        wf, log = run_with_fault(fault=FailureModel.persistent_node(2, 10.0))
        records = collect_failures(log, wf)
        assert [r.uid for r in records] == ["t2"]
        assert records[0].kind == KIND_NODE_FAILURE
        assert records[0].stage_index == 0

    def test_all_done_yields_nothing(self):
        wf, log = run_with_fault()
        assert collect_failures(log, wf) == []

    def test_task_fault_kind(self):
        wf, log = run_with_fault(fault=FailureModel.task_fault("t1", 0.5))
        records = collect_failures(log, wf)
        assert [(r.uid, r.kind) for r in records] == [("t1", KIND_TASK_FAULT)]

    def test_canceled_only_with_flag(self):
        platform = small_platform()
        wf = single_stage("s", [make_task(f"t{i}", procs=8, expected=400.0)
                                for i in range(3)])
        log = run_simulated(
            wf, platform, 1, 500.0, RuntimeModel(default=DurationSpec.expected())
        )
        assert collect_failures(log, wf) == []
        records = collect_failures(log, wf, retry_canceled=True)
        assert {r.uid for r in records} == {"t1", "t2"}
        assert all(r.kind == KIND_CANCELED for r in records)

    def test_incomplete_log_rejected(self):
        wf, log = run_with_fault()
        truncated = EventLog(events=[e for e in log if e.kind != ev.JOB_END])
        with pytest.raises(IncompleteLog):
            collect_failures(truncated, wf)

    def test_done_in_later_log_not_collected(self):
        # per-log semantics: collecting from the retry log sees only its events
        wf, log1 = run_with_fault(fault=FailureModel.task_fault("t1", 1.0))
        retry = single_stage("s", [make_task("t1", procs=8)], workflow_name="r")
        platform = small_platform()
        log2 = run_simulated(retry, platform, 4, 10000.0, FIXED)
        assert collect_failures(log2, wf) == []


class TestPlanResubmission:
    def test_widest_stage_full_concurrency_sizing(self, frontier):
        # eight failed 8-node members want 64 nodes
        wf = single_stage("members", [exaconstit_task(f"m{i}") for i in range(8)])
        records = [
            r
            for r in (
                collect_failures(
                    run_simulated(
                        wf, frontier, 64, 7200.0,
                        RuntimeModel(default=DurationSpec.fixed(100.0)),
                        FailureModel(
                            task_faults=tuple(
                                FailureModel.task_fault(f"m{i}", 1.0).task_faults[0]
                                for i in range(8)
                            )
                        ),
                    ),
                    wf,
                )
            )
        ]
        assert len(records) == 8
        plan = plan_resubmission(records, wf, frontier, 8000)
        assert plan.nodes == 64
        assert plan.walltime_s == 7200.0

    def test_allocation_capped_by_original(self, frontier):
        wf = single_stage("members", [exaconstit_task(f"m{i}") for i in range(8)])
        fm = FailureModel(
            task_faults=tuple(
                FailureModel.task_fault(f"m{i}", 1.0).task_faults[0]
                for i in range(8)
            )
        )
        log = run_simulated(
            wf, frontier, 16, 7200.0,
            RuntimeModel(default=DurationSpec.fixed(100.0)), fm,
        )
        records = collect_failures(log, wf)
        plan = plan_resubmission(records, wf, frontier, 16)
        assert plan.nodes == 16  # never more than the original job

    def test_stage_order_preserved(self):
        platform = small_platform()
        wf = WorkflowSpec(
            name="wf",
            stages=(
                Stage(name="early", tasks=(make_task("y", procs=8),)),
                Stage(name="mid", tasks=(make_task("mid", procs=8),)),
                Stage(name="late", tasks=(make_task("x", procs=8),)),
            ),
        )
        fm = FailureModel(
            task_faults=(
                FailureModel.task_fault("x", 1.0).task_faults[0],
                FailureModel.task_fault("y", 1.0).task_faults[0],
            )
        )
        log = run_simulated(wf, platform, 4, 10000.0, FIXED, fm)
        records = collect_failures(log, wf)
        plan = plan_resubmission(records, wf, platform, 4)
        assert [s.name for s in plan.workflow.stages] == ["early", "late"]
        assert [t.uid for s in plan.workflow.stages for t in s.tasks] == ["y", "x"]

    def test_single_small_task_minimal_plan(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("only")])
        log = run_simulated(
            wf, platform, 4, 10000.0, FIXED, FailureModel.task_fault("only", 1.0)
        )
        plan = plan_resubmission(collect_failures(log, wf), wf, platform, 4)
        assert plan.nodes == 1

    def test_empty_records_rejected(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        with pytest.raises(EmptyPlan):
            plan_resubmission([], wf, platform, 4)

    def test_plan_serializes_to_runnable_workflow(self, tmp_path):
        platform = small_platform()
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(3)])
        log = run_simulated(
            wf, platform, 4, 10000.0, FIXED, FailureModel.task_fault("t1", 1.0)
        )
        plan = plan_resubmission(collect_failures(log, wf), wf, platform, 4)
        path = tmp_path / "plan.json"
        plan.save(path, attempt=2, parent_log="job1.jsonl")
        restored = WorkflowSpec.load(path)
        assert validate_workflow(restored) == []
        retry_log = run_simulated(restored, platform, plan.nodes,
                                  min(plan.walltime_s, 10000.0), FIXED)
        assert sum(1 for e in retry_log if e.kind == ev.TASK_DONE) == 1
        sidecar = (tmp_path / "plan.json.meta.json").read_text()
        assert '"attempt": 2' in sidecar
        assert '"parent_log": "job1.jsonl"' in sidecar


class TestRetryLoop:
    def test_bad_node_then_clean_attempt(self):
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(8)])
        runner = simulated_attempts(
            platform, FIXED, FailureModel.persistent_node(1, 10.0)
        )
        logs, unresolved = retry_loop(
            wf, platform, runner, 4, 10000.0, max_attempts=2
        )
        assert len(logs) == 2
        assert unresolved == []
        retried = {e.task_uid for e in logs[1] if e.kind == ev.TASK_DONE}
        failed_first = {e.task_uid for e in logs[0] if e.kind == ev.TASK_FAILED}
        assert retried == failed_first

    def test_deterministic_fault_exhausts_attempts(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].name)
            return collect_failures(*args, **kwargs)

        monkeypatch.setattr(resilience, "collect_failures", counting)
        platform = small_platform()
        wf = single_stage("s", [make_task("t", procs=8), make_task("u", procs=8)])
        fm = FailureModel.task_fault("t", 1.0)
        runner = simulated_attempts(platform, FIXED, fm, fm, fm)
        logs, unresolved = retry_loop(
            wf, platform, runner, 4, 10000.0, max_attempts=3
        )
        assert len(logs) == 3
        assert [r.uid for r in unresolved] == ["t"]
        # one harvest per spec per attempt, reused to plan the retry
        assert calls == ["s", "s-retry", "s-retry-retry"]
        for log in logs[1:]:
            assert {e.task_uid for e in log if e.kind in ev.TERMINAL_KINDS} == {"t"}

    def test_zero_failures_single_log(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t", procs=8)])
        runner = simulated_attempts(platform, FIXED)
        logs, unresolved = retry_loop(
            wf, platform, runner, 4, 10000.0, max_attempts=5
        )
        assert len(logs) == 1
        assert unresolved == []

    def test_multiset_identity_over_attempt_chain(self):
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(6)])
        runner = simulated_attempts(
            platform, FIXED, FailureModel.persistent_node(0, 10.0)
        )
        logs, unresolved = retry_loop(
            wf, platform, runner, 4, 10000.0, max_attempts=3
        )
        all_uids = {t.uid for t in wf.tasks()}
        done = set()
        for log in logs:
            for e in log:
                if e.kind == ev.TASK_DONE:
                    assert e.task_uid not in done  # a task succeeds once
                    done.add(e.task_uid)
        assert done | {r.uid for r in unresolved} == all_uids
        # per-attempt identity: tasks in attempt k = done(k) + planned(k+1)
        for i, log in enumerate(logs):
            in_log = {
                e.task_uid for e in log if e.kind in ev.TERMINAL_KINDS
            }
            done_k = {e.task_uid for e in log if e.kind == ev.TASK_DONE}
            failed_k = {e.task_uid for e in log if e.kind == ev.TASK_FAILED}
            assert done_k | failed_k == in_log
            if i + 1 < len(logs):
                next_planned = {
                    e.task_uid
                    for e in logs[i + 1]
                    if e.kind in ev.TERMINAL_KINDS
                }
                assert next_planned == failed_k
