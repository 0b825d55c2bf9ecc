import hashlib

import pytest

from ensemblekit import events as ev
from ensemblekit import resilience
from ensemblekit.engine import (
    NodeFault,
    RuntimeModel,
    TaskFault,
    run_simulated,
)
from ensemblekit.errors import EmptyPlan, IncompleteLog, MalformedLog
from ensemblekit.pst import Stage, WorkflowSpec, validate_workflow
from ensemblekit.resilience import (
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from conftest import (
    exaconstit_task,
    log_of,
    make_task,
    simulated_attempts,
    single_stage,
    small_platform,
)

FIXED = RuntimeModel("fixed", 100.0)


def run_with_fault(n_tasks=4, nodes=4, walltime=10000.0, **faults):
    platform = small_platform(nodes=nodes)
    wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(n_tasks)])
    log = run_simulated(wf, platform, nodes, walltime, FIXED, **faults)
    return wf, log


class TestCollectFailures:
    def test_counts_failed_tasks(self):
        wf, log = run_with_fault(
            node_faults=(NodeFault(2, 10.0, persistent=True),)
        )
        assert collect_failures(log, wf) == ["t2"]

    def test_all_done_yields_nothing(self):
        wf, log = run_with_fault()
        assert collect_failures(log, wf) == []

    def test_task_fault_kind(self):
        wf, log = run_with_fault(
            task_faults=(TaskFault("t1", 0.5),)
        )
        assert collect_failures(log, wf) == ["t1"]
        # why it failed stays in the log, in the terminal event's detail
        assert [e.detail for e in log if e.kind == ev.TASK_FAILED] == [
            "task_fault"
        ]

    def test_failures_come_in_workflow_order(self):
        # t3 fails 10 s into its run and t1 at its end, so the log records
        # t3's failure first; the uids still come in the workflow's order
        wf, log = run_with_fault(
            task_faults=(TaskFault("t3", 0.1), TaskFault("t1", 1.0))
        )
        failed = [e.task_uid for e in log if e.kind == ev.TASK_FAILED]
        assert failed == ["t3", "t1"]
        assert collect_failures(log, wf) == ["t1", "t3"]

    def test_canceled_only_with_flag(self):
        platform = small_platform()
        wf = single_stage("s", [make_task(f"t{i}", procs=8, expected=400.0)
                                for i in range(3)])
        log = run_simulated(
            wf, platform, 1, 500.0, RuntimeModel()
        )
        assert collect_failures(log, wf) == []
        assert collect_failures(log, wf, retry_canceled=True) == ["t1", "t2"]

    def test_incomplete_log_rejected(self):
        wf, log = run_with_fault()
        truncated = log_of(e for e in log if e.kind != ev.JOB_END)
        with pytest.raises(IncompleteLog):
            collect_failures(truncated, wf)

    def test_done_in_later_log_not_collected(self):
        # per-log semantics: collecting from the retry log sees only its events
        wf, log1 = run_with_fault(
            task_faults=(TaskFault("t1", 1.0),)
        )
        retry = single_stage("s", [make_task("t1", procs=8)], workflow_name="r")
        platform = small_platform()
        log2 = run_simulated(retry, platform, 4, 10000.0, FIXED)
        assert collect_failures(log2, retry) == []
        # the retry log does not account for the first job's other tasks
        with pytest.raises(MalformedLog, match=r"3 tasks of workflow s have "
                           r"no terminal event in the log: t0 t2 t3$"):
            collect_failures(log2, wf)

    def test_task_without_terminal_event_rejected(self):
        # a task open at JOB_END or absent from the log is named; tasks of
        # another pipeline in the same log are ignored
        wf, log = run_with_fault(
            node_faults=(NodeFault(2, 10.0, persistent=True),)
        )
        failed = next(e for e in log if e.kind == ev.TASK_FAILED)
        cut = log_of(e for e in log if e is not failed)
        with pytest.raises(MalformedLog, match=r": t2$"):
            collect_failures(cut, wf)
        other = single_stage("s", [make_task("t0", procs=8)])
        assert collect_failures(log, other) == []


class TestPlanResubmission:
    def test_widest_stage_full_concurrency_sizing(self, frontier):
        # eight failed 8-node members want 64 nodes
        wf = single_stage("members", [exaconstit_task(f"m{i}") for i in range(8)])
        failed = collect_failures(
            run_simulated(
                wf, frontier, 64, 7200.0,
                RuntimeModel("fixed", 100.0),
                task_faults=tuple(
                    TaskFault(f"m{i}", 1.0)
                    for i in range(8)
                ),
            ),
            wf,
        )
        assert len(failed) == 8
        plan = plan_resubmission(failed, wf, frontier, 8000)
        assert plan.nodes == 64
        assert plan.walltime_s == 7200.0

    def test_allocation_capped_by_original(self, frontier):
        wf = single_stage("members", [exaconstit_task(f"m{i}") for i in range(8)])
        log = run_simulated(
            wf, frontier, 16, 7200.0,
            RuntimeModel("fixed", 100.0),
            task_faults=tuple(
                TaskFault(f"m{i}", 1.0)
                for i in range(8)
            ),
        )
        failed = collect_failures(log, wf)
        plan = plan_resubmission(failed, wf, frontier, 16)
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
        log = run_simulated(
            wf, platform, 4, 10000.0, FIXED,
            task_faults=(
                TaskFault("x", 1.0),
                TaskFault("y", 1.0),
            ),
        )
        failed = collect_failures(log, wf)
        plan = plan_resubmission(failed, wf, platform, 4)
        assert [s.name for s in plan.workflow.stages] == ["early", "late"]
        assert [t.uid for s in plan.workflow.stages for t in s.tasks] == ["y", "x"]

    def test_single_small_task_minimal_plan(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("only")])
        log = run_simulated(
            wf, platform, 4, 10000.0, FIXED,
            task_faults=(TaskFault("only", 1.0),),
        )
        plan = plan_resubmission(collect_failures(log, wf), wf, platform, 4)
        assert plan.nodes == 1

    def test_empty_records_rejected(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        with pytest.raises(EmptyPlan):
            plan_resubmission([], wf, platform, 4)

    def test_a_uid_not_in_the_spec_is_rejected(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        with pytest.raises(MalformedLog, match=r"unknown tasks: \['ghost'\]"):
            plan_resubmission(["t", "ghost"], wf, platform, 4)

    def test_plan_serializes_to_runnable_workflow(self, tmp_path):
        platform = small_platform()
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(3)])
        log = run_simulated(
            wf, platform, 4, 10000.0, FIXED,
            task_faults=(TaskFault("t1", 1.0),),
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
            platform, FIXED,
            {"node_faults": (NodeFault(1, 10.0, persistent=True),)},
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
        faults = {"task_faults": (TaskFault("t", 1.0),)}
        runner = simulated_attempts(platform, FIXED, faults, faults, faults)
        logs, unresolved = retry_loop(
            wf, platform, runner, 4, 10000.0, max_attempts=3
        )
        assert len(logs) == 3
        assert unresolved == ["t"]
        # one harvest per attempt, reused to plan the retry
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
            platform, FIXED,
            {"node_faults": (NodeFault(0, 10.0, persistent=True),)},
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
        assert done | set(unresolved) == all_uids
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

    def test_chain_allocations_and_logs_are_pinned(self, tmp_path):
        # persistent node faults in each of four attempts: the failures
        # shrink, the cap binds while the widest failed stage (9, then 5
        # nodes) is wider than the job retried, then the retry narrows
        platform = small_platform(nodes=8)
        wf = WorkflowSpec(name="chain", stages=(
            Stage(name="a", tasks=tuple(
                make_task(f"a{i}", procs=8) for i in range(12))),
            Stage(name="b", tasks=tuple(
                make_task(f"b{i}", procs=16) for i in range(4))),
        ))
        runner = simulated_attempts(platform, FIXED, *(
            {"node_faults": tuple(
                NodeFault(n, 10.0, persistent=True) for n in nodes)}
            for nodes in ((0, 1, 2), (0, 1), (0,), (0,))
        ))
        logs, unresolved = retry_loop(
            wf, platform, runner, 4, 10000.0, max_attempts=4
        )
        assert [ev.allocation(log)[1] for log in logs] == [4, 4, 4, 2]
        digests = []
        for k, log in enumerate(logs, 1):
            path = tmp_path / f"attempt-{k}.jsonl"
            log.save_jsonl(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == [
            "5cd72d20f1a55f5962c03f918f862cb7ad8f53eb2db3a2be6772a5bad881dd9c",
            "ed91639290bef4d33794b89f0fad842ec76eeba10cfd357eabb49b334378e494",
            "dde898d6c21b0f6fc204a06a23ae642fd90f22f814e52eae5dfe16c8ea9517c8",
            "03c35bbd0f42eeb0d2485d943a95417e51983293f40963a5e06c1abeb206752b",
        ]
        assert unresolved == ["a0", "b0"]
