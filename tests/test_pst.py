import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit.errors import IllegalTransition
from ensemblekit.pst import (
    JobRun,
    Stage,
    TaskState,
    WorkflowSpec,
    transition_task,
    validate_workflow,
)
from conftest import exaconstit_task, make_task, single_stage


def two_stage(first, second, name="wf"):
    return WorkflowSpec(
        name=name,
        stages=(
            Stage(name="s0", tasks=tuple(first)),
            Stage(name="s1", tasks=tuple(second)),
        ),
    )


class TestValidation:
    def test_duplicate_uid_reported(self):
        spec = single_stage("s0", [make_task("t1"), make_task("t1")])
        violations = validate_workflow(spec)
        assert any("duplicate uid t1" in v for v in violations)

    def test_exaca_shaped_task_is_valid(self):
        # 8 MPI ranks, 7 cores and 1 GPU each: the single-node decomposition
        spec = single_stage(
            "s0", [make_task("exaca", procs=8, threads=7, gpus=1)]
        )
        assert validate_workflow(spec) == []

    def test_nonpositive_processes_reported(self):
        spec = single_stage("s0", [make_task("bad", procs=0)])
        violations = validate_workflow(spec)
        assert any("cpu_processes must be >= 1" in v for v in violations)

    def test_empty_stage_and_empty_executable(self):
        spec = WorkflowSpec(
            name="wf",
            stages=(
                Stage(name="empty", tasks=()),
                Stage(name="s1", tasks=(make_task("t1", executable=""),)),
            ),
        )
        violations = validate_workflow(spec)
        assert any("empty" in v for v in violations)
        assert any("executable" in v for v in violations)

    def test_all_violations_returned_in_one_pass(self):
        spec = single_stage(
            "s0",
            [make_task("t1", procs=0), make_task("t1"), make_task("t2", threads=0)],
        )
        violations = validate_workflow(spec)
        assert len(violations) == 3


class TestTransitions:
    def test_new_to_scheduled(self):
        run = JobRun([single_stage("s0", [make_task("a")])])
        task = run.runs["a"]
        transition_task(task, TaskState.SCHEDULED, ts=1.5)
        assert task.state is TaskState.SCHEDULED
        assert task.history == [(1.5, TaskState.SCHEDULED)]

    def test_terminal_absorbs(self):
        run = JobRun([single_stage("s0", [make_task("a")])])
        task = run.runs["a"]
        for state in (TaskState.SCHEDULED, TaskState.RUNNING, TaskState.DONE):
            transition_task(task, state)
        with pytest.raises(IllegalTransition) as err:
            transition_task(task, TaskState.RUNNING)
        assert "DONE" in str(err.value) and "RUNNING" in str(err.value)

    def test_running_to_failed(self):
        run = JobRun([single_stage("s0", [make_task("a")])])
        task = run.runs["a"]
        transition_task(task, TaskState.SCHEDULED)
        transition_task(task, TaskState.RUNNING)
        transition_task(task, TaskState.FAILED)
        assert task.state is TaskState.FAILED

    @pytest.mark.parametrize(
        "start", [TaskState.NEW, TaskState.SCHEDULED, TaskState.RUNNING]
    )
    def test_cancel_from_any_nonterminal(self, start):
        run = JobRun([single_stage("s0", [make_task("a")])])
        task = run.runs["a"]
        path = {
            TaskState.NEW: [],
            TaskState.SCHEDULED: [TaskState.SCHEDULED],
            TaskState.RUNNING: [TaskState.SCHEDULED, TaskState.RUNNING],
        }[start]
        for state in path:
            transition_task(task, state)
        transition_task(task, TaskState.CANCELED)
        assert task.state is TaskState.CANCELED

    def test_skipping_scheduled_is_illegal(self):
        run = JobRun([single_stage("s0", [make_task("a")])])
        with pytest.raises(IllegalTransition):
            transition_task(run.runs["a"], TaskState.RUNNING)


def finish_ok(job, uid, outcome=TaskState.DONE):
    """Run a task through SCHEDULED and RUNNING, then finish it."""
    transition_task(job.runs[uid], TaskState.SCHEDULED)
    transition_task(job.runs[uid], TaskState.RUNNING)
    return uids(job.finish(uid, outcome))


def uids(runs):
    return [r.desc.uid for r in runs]


class TestFrontier:
    def test_first_stage_all_new(self):
        job = JobRun([two_stage([make_task("a"), make_task("b")], [make_task("c")])])
        assert uids(job.first_stages()) == ["a", "b"]
        assert all(r.state is TaskState.NEW for r in job.first_stages())

    def test_stage_not_fully_terminal_blocks_next(self):
        job = JobRun([two_stage([make_task("a"), make_task("b")], [make_task("c")])])
        assert finish_ok(job, "a") == []
        transition_task(job.runs["b"], TaskState.SCHEDULED)
        transition_task(job.runs["b"], TaskState.RUNNING)
        assert job.runs["c"].state is TaskState.NEW
        assert not job.all_terminal

    def test_next_stage_opens_when_previous_terminal(self):
        # hand enumeration: a DONE, b FAILED (both terminal) -> stage 2 eligible
        job = JobRun(
            [two_stage([make_task("a"), make_task("b")], [make_task("c"), make_task("d")])]
        )
        assert finish_ok(job, "a") == []
        assert finish_ok(job, "b", TaskState.FAILED) == ["c", "d"]

    def test_complete_pipeline_has_empty_frontier(self):
        job = JobRun([single_stage("s0", [make_task("a")])])
        assert finish_ok(job, "a") == []
        assert job.all_terminal
        assert job.tally == "done=1 failed=0 canceled=0"

    def test_frontier_idempotent(self):
        job = JobRun([two_stage([make_task("a")], [make_task("b")])])
        assert uids(job.first_stages()) == uids(job.first_stages()) == ["a"]
        assert all(r.history == [] for r in job.runs.values())

    def test_finish_rejects_a_nonterminal_state(self):
        job = JobRun([single_stage("s0", [make_task("a")])])
        with pytest.raises(IllegalTransition):
            job.finish("a", TaskState.SCHEDULED)
        assert job.runs["a"].state is TaskState.NEW

    def test_cancel_of_a_later_stage_is_not_reopened(self):
        # walltime cancels tasks in any stage; a stage opened afterwards
        # offers only its NEW tasks, and a fully canceled one is skipped
        spec = WorkflowSpec(
            name="wf",
            stages=tuple(
                Stage(name=f"s{i}", tasks=tuple(make_task(u) for u in names))
                for i, names in enumerate([["a"], ["b", "c"], ["d"], ["e"]])
            ),
        )
        job = JobRun([spec])
        assert job.finish("b", TaskState.CANCELED) == ()
        assert job.finish("d", TaskState.CANCELED) == ()
        assert finish_ok(job, "a") == ["c"]
        assert finish_ok(job, "c") == ["e"]
        assert finish_ok(job, "e") == []
        assert job.all_terminal
        assert job.tally == "done=3 failed=0 canceled=2"


class TestPipelinesFrontier:
    def test_two_pipelines_simultaneously_eligible(self):
        job = JobRun([
            single_stage("s0", [make_task("a")], workflow_name="p1"),
            single_stage("s0", [make_task("b")], workflow_name="p2"),
        ])
        assert uids(job.first_stages()) == ["a", "b"]

    def test_complete_pipeline_contributes_nothing(self):
        job = JobRun([
            single_stage("s0", [make_task("a")], workflow_name="p1"),
            two_stage([make_task("x")], [make_task("y")], name="p2"),
        ])
        assert finish_ok(job, "a") == []
        assert finish_ok(job, "x") == ["y"]
        assert not job.all_terminal

    def test_mixed_stages_equal_per_pipeline_oracle(self):
        specs = [
            two_stage(
                [make_task(f"p{i}a"), make_task(f"p{i}b")],
                [make_task(f"p{i}c")],
                name=f"p{i}",
            )
            for i in range(3)
        ]
        combined = JobRun(specs)
        alone = {spec.name: JobRun([spec]) for spec in specs}
        # advance each pipeline differently, interleaved across pipelines
        for uid, outcome in [
            ("p1a", TaskState.DONE),
            ("p2a", TaskState.FAILED),
            ("p1b", TaskState.DONE),
            ("p1c", TaskState.DONE),
        ]:
            oracle = alone[uid[:2]]
            assert finish_ok(combined, uid, outcome) == finish_ok(
                oracle, uid, outcome
            )
        for name, oracle in alone.items():
            for uid, run in oracle.runs.items():
                assert combined.runs[uid].state is run.state
        assert uids(combined.first_stages()) == [
            u for spec in specs for u in uids(alone[spec.name].first_stages())
        ]

    def test_runs_keyed_in_pipeline_stage_task_order(self):
        job = JobRun([
            two_stage([make_task("b"), make_task("a")], [make_task("z")], name="p1"),
            single_stage("s0", [make_task("c")], workflow_name="p2"),
        ])
        assert list(job.runs) == ["b", "a", "z", "c"]


# -- randomized trace properties ----------------------------------------------


@st.composite
def workflow_shapes(draw):
    n_stages = draw(st.integers(min_value=1, max_value=4))
    return [draw(st.integers(min_value=1, max_value=4)) for _ in range(n_stages)]


def build_workflow(shape, name="wf"):
    stages = tuple(
        Stage(
            name=f"s{i}",
            tasks=tuple(make_task(f"{name}s{i}t{j}") for j in range(n)),
        )
        for i, n in enumerate(shape)
    )
    return WorkflowSpec(name=name, stages=stages)


@given(
    shapes=st.lists(workflow_shapes(), min_size=1, max_size=2),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_random_traces_respect_stage_order(shapes, data):
    """Driving tasks only through first_stages/finish can never start stage
    k+1 of a pipeline before its stage k is fully terminal, and every
    trajectory matches NEW SCHEDULED RUNNING (DONE|FAILED)."""
    specs = [build_workflow(shape, f"p{i}") for i, shape in enumerate(shapes)]
    job = JobRun(specs)
    stage_of = {uid: (spec.name, i) for spec in specs
                for uid, i in spec.stage_index().items()}
    eligible = uids(job.first_stages())
    schedule_order: list[str] = []
    in_flight: list[str] = []
    while True:
        moves = []
        if eligible:
            moves.append("schedule")
        if in_flight:
            moves.append("finish")
        if not moves:
            break
        move = data.draw(st.sampled_from(moves))
        if move == "schedule":
            uid = data.draw(st.sampled_from(sorted(eligible)))
            eligible.remove(uid)
            transition_task(job.runs[uid], TaskState.SCHEDULED)
            transition_task(job.runs[uid], TaskState.RUNNING)
            schedule_order.append(uid)
            in_flight.append(uid)
        else:
            uid = data.draw(st.sampled_from(sorted(in_flight)))
            outcome = data.draw(
                st.sampled_from([TaskState.DONE, TaskState.FAILED])
            )
            in_flight.remove(uid)
            eligible.extend(uids(job.finish(uid, outcome)))
    assert job.all_terminal
    assert len(schedule_order) == len(job.runs)
    # within a pipeline, a stage-k+1 task only starts after every stage-k
    # task has finished; pipelines do not wait on each other
    first_seen = {uid: i for i, uid in enumerate(schedule_order)}
    for uid, (pipeline, stage) in stage_of.items():
        for other, (other_pipeline, other_stage) in stage_of.items():
            if other_pipeline == pipeline and other_stage < stage:
                assert first_seen[other] < first_seen[uid]
    # trajectories match the regular language
    for task in job.runs.values():
        states = [s for _, s in task.history]
        assert states == [
            TaskState.SCHEDULED,
            TaskState.RUNNING,
            task.state,
        ]
        assert task.state in (TaskState.DONE, TaskState.FAILED)
    done = sum(r.state is TaskState.DONE for r in job.runs.values())
    assert job.tally == (
        f"done={done} failed={len(job.runs) - done} canceled=0"
    )


def test_json_round_trip_field_names():
    spec = two_stage(
        [exaconstit_task("m1", expected=700.0)],
        [make_task("opt", tags={"kind": "optimize"})],
    )
    doc = spec.to_json()
    task_doc = doc["stages"][0]["tasks"][0]
    assert set(task_doc) == {
        "uid",
        "executable",
        "arguments",
        "pre_exec",
        "cpu_processes",
        "cpu_threads_per_process",
        "gpus_per_process",
        "expected_runtime_s",
        "tags",
    }
    restored = WorkflowSpec.from_json(json.loads(json.dumps(doc)))
    assert restored == spec


def test_stage_name_mirrors_enclosing_stage():
    spec = single_stage("melt-pool", [make_task("a")])
    assert spec.stages[0].tasks[0].stage_name == "melt-pool"
