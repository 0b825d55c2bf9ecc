import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit.cli import main
from ensemblekit.errors import MalformedLog
from ensemblekit.events import Event, EventLog
from ensemblekit.pst import (
    JobRun,
    Stage,
    TaskDescription,
    WorkflowSpec,
    validate_workflow,
)
from ensemblekit.scheduler import Pilot
from conftest import exaconstit_task, make_task, single_stage, small_platform


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


TASK_KINDS = (ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_DONE,
              ev.TASK_FAILED, ev.TASK_CANCELED)


def walk(*kinds):
    """An event log of task t's events of ``kinds``, in order."""
    log = EventLog()
    for kind in kinds:
        log.append(Event(0.0, kind, "t", (0,)))
    return log


class TestTransitions:
    """The task lifecycle, as the event log that holds it checks it."""

    def test_new_to_scheduled(self):
        assert walk().last_kind("t") is None
        assert walk(ev.TASK_SCHEDULED).last_kind("t") == ev.TASK_SCHEDULED

    def test_terminal_absorbs(self):
        log = walk(ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_DONE)
        for kind in TASK_KINDS:
            with pytest.raises(MalformedLog) as err:
                log.append(Event(0.0, kind, "t", (0,)))
            assert str(err.value) == f"task t: {kind} after TASK_DONE"
        assert len(log) == 3 and log.last_kind("t") == ev.TASK_DONE

    def test_running_to_failed(self):
        log = walk(ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_FAILED)
        assert log.last_kind("t") == ev.TASK_FAILED

    @pytest.mark.parametrize(
        "last", [None, ev.TASK_SCHEDULED, ev.TASK_LAUNCHED]
    )
    def test_cancel_from_any_nonterminal(self, last):
        path = {
            None: [],
            ev.TASK_SCHEDULED: [ev.TASK_SCHEDULED],
            ev.TASK_LAUNCHED: [ev.TASK_SCHEDULED, ev.TASK_LAUNCHED],
        }[last]
        log = walk(*path)
        assert log.last_kind("t") == last
        log.append(Event(0.0, ev.TASK_CANCELED, "t", (0,)))
        assert log.last_kind("t") == ev.TASK_CANCELED

    def test_skipping_scheduled_is_illegal(self):
        for kind in (ev.TASK_LAUNCHED, ev.TASK_DONE, ev.TASK_FAILED):
            log = walk()
            with pytest.raises(MalformedLog, match="after no event"):
                log.append(Event(0.0, kind, "t", (0,)))
            assert len(log) == 0


def booted(*specs):
    """A Pilot of ``specs`` on 4 nodes of 8 cores, booted at ts 0."""
    pilot = Pilot(list(specs), small_platform(), 4)
    pilot.boot(0.0)
    return pilot


def run_to_end(pilot, uid, kind=ev.TASK_DONE):
    """Place every queued task that fits, launch ``uid`` and end it with
    ``kind``; the uids queued after, which are the new tasks of the stage
    it opened."""
    while pilot.place(0.0) is not None:
        pass
    pilot.launch(uid, 0.0)
    pilot.finish(uid, kind, 0.0)
    return uids(pilot.queue)


def uids(descs):
    return [desc.uid for desc in descs]


class TestFrontier:
    def test_first_stage_all_new(self):
        spec = two_stage([make_task("a"), make_task("b")], [make_task("c")])
        assert JobRun([spec]).first_stages() == spec.stages[0].tasks
        pilot = booted(spec)
        assert uids(pilot.queue) == ["a", "b"]
        assert all(pilot.log.last_kind(u) is None for u in "abc")

    def test_stage_not_fully_terminal_blocks_next(self):
        job = JobRun([two_stage([make_task("a"), make_task("b")], [make_task("c")])])
        assert uids(job.finish("a")) == []
        assert not job.all_terminal

    def test_next_stage_opens_when_previous_terminal(self):
        # hand enumeration: a DONE, b FAILED (both terminal) -> stage 2 eligible
        pilot = booted(
            two_stage([make_task("a"), make_task("b")], [make_task("c"), make_task("d")])
        )
        assert run_to_end(pilot, "a") == []
        assert run_to_end(pilot, "b", ev.TASK_FAILED) == ["c", "d"]

    def test_complete_pipeline_has_empty_frontier(self):
        pilot = booted(single_stage("s0", [make_task("a")]))
        assert run_to_end(pilot, "a") == []
        assert pilot.job.all_terminal
        assert pilot.tally == "done=1 failed=0 canceled=0"

    def test_a_task_finishes_once(self):
        job = JobRun([two_stage([make_task("a"), make_task("b")], [make_task("c")])])
        assert uids(job.finish("a")) == []
        for uid in ("a", "nosuch"):
            with pytest.raises(KeyError):
                job.finish(uid)
        assert not job.all_terminal
        assert uids(job.finish("b")) == ["c"]

    def test_frontier_idempotent(self):
        job = JobRun([two_stage([make_task("a")], [make_task("b")])])
        assert uids(job.first_stages()) == uids(job.first_stages()) == ["a"]
        assert not job.all_terminal

    def test_finish_rejects_a_nonterminal_state(self):
        pilot = booted(single_stage("s0", [make_task("a")]))
        for kind in (ev.TASK_SCHEDULED, ev.TASK_LAUNCHED):
            with pytest.raises(MalformedLog, match="not a terminal event"):
                pilot.finish("a", kind, 0.0)
        assert len(pilot.log) == 2 and pilot.log.last_kind("a") is None
        assert pilot.tally == "done=0 failed=0 canceled=0"
        assert uids(pilot.queue) == ["a"] and not pilot.job.all_terminal

    def test_cancel_of_a_later_stage_is_not_reopened(self):
        # walltime cancels mid-stage: every open task, placed or not yet
        # queued, ends canceled once, in job order, and the stages its
        # cancels open leave nothing queued
        spec = WorkflowSpec(
            name="wf",
            stages=tuple(
                Stage(name=f"s{i}", tasks=tuple(make_task(u) for u in names))
                for i, names in enumerate([["a"], ["b", "c"], ["d"], ["e"]])
            ),
        )
        pilot = booted(spec)
        assert run_to_end(pilot, "a") == ["b", "c"]
        assert run_to_end(pilot, "b") == []
        assert pilot.log.last_kind("c") == ev.TASK_SCHEDULED
        pilot.cancel_all(1.0, "walltime")
        canceled = [e.task_uid for e in pilot.log if e.kind == ev.TASK_CANCELED]
        assert canceled == ["c", "d", "e"]
        assert all(pilot.log.last_kind(u) == ev.TASK_CANCELED for u in "cde")
        assert len(pilot.queue) == 0
        assert pilot.job.all_terminal
        assert pilot.tally == "done=2 failed=0 canceled=3"


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
        assert uids(job.finish("a")) == []
        assert uids(job.finish("x")) == ["y"]
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
        combined = booted(*specs)
        alone = {spec.name: booted(spec) for spec in specs}
        # advance each pipeline differently, interleaved across pipelines
        for uid, outcome in [
            ("p1a", ev.TASK_DONE),
            ("p2a", ev.TASK_FAILED),
            ("p1b", ev.TASK_DONE),
            ("p1c", ev.TASK_DONE),
        ]:
            oracle = alone[uid[:2]]
            assert run_to_end(combined, uid, outcome) == run_to_end(
                oracle, uid, outcome
            )
        def ends(pilot, name):
            return [(e.task_uid, e.kind) for e in pilot.log
                    if e.kind in ev.TERMINAL_KINDS
                    and e.task_uid.startswith(name)]

        for name, oracle in alone.items():
            assert ends(combined, name) == ends(oracle, name)
        assert uids(combined.job.first_stages()) == [
            u for spec in specs
            for u in uids(alone[spec.name].job.first_stages())
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
    k+1 of a pipeline before its stage k is fully terminal. The test keeps
    each task's state itself and drives it new -> running -> DONE|FAILED,
    so every task the job offers is offered once, while new."""
    specs = [build_workflow(shape, f"p{i}") for i, shape in enumerate(shapes)]
    job = JobRun(specs)
    stage_of = {t.uid: (spec.name, i) for spec in specs
                for i, stage in enumerate(spec.stages) for t in stage.tasks}
    state = dict.fromkeys(stage_of, "new")
    eligible: list[str] = []

    def offer(descs):
        for uid in uids(descs):
            assert state[uid] == "new" and uid not in eligible
            eligible.append(uid)

    offer(job.first_stages())
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
            state[uid] = "running"
            schedule_order.append(uid)
            in_flight.append(uid)
        else:
            uid = data.draw(st.sampled_from(sorted(in_flight)))
            in_flight.remove(uid)
            state[uid] = data.draw(st.sampled_from(["DONE", "FAILED"]))
            offer(job.finish(uid))
    assert job.all_terminal
    assert len(schedule_order) == len(job.runs)
    # within a pipeline, a stage-k+1 task only starts after every stage-k
    # task has finished; pipelines do not wait on each other
    first_seen = {uid: i for i, uid in enumerate(schedule_order)}
    for uid, (pipeline, stage) in stage_of.items():
        for other, (other_pipeline, other_stage) in stage_of.items():
            if other_pipeline == pipeline and other_stage < stage:
                assert first_seen[other] < first_seen[uid]
    assert set(state.values()) <= {"DONE", "FAILED"}


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


# JSON-typed values, NaN, infinities and control characters included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=5,
)
# json.dumps writes these keys as strings
json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
strings = st.lists(st.text(), max_size=3)
sequences = strings | st.lists(json_values, max_size=3) | st.text(max_size=3)
tasks = st.builds(
    TaskDescription,
    uid=st.text() | json_values,
    executable=st.text() | json_values,
    arguments=sequences,
    pre_exec=sequences,
    cpu_processes=st.integers() | json_values,
    cpu_threads_per_process=st.integers() | json_values,
    gpus_per_process=st.integers() | json_values,
    expected_runtime_s=st.none() | st.floats() | json_values,
    tags=(
        st.dictionaries(st.text(), st.text(), max_size=3)
        | st.dictionaries(json_keys, json_values, max_size=3)
    ),
)
stages = st.builds(
    Stage, name=st.text() | json_values,
    tasks=st.lists(tasks, max_size=3).map(tuple),
)
specs = st.builds(
    WorkflowSpec, name=st.text() | json_values,
    stages=st.lists(stages, max_size=3),
)


@given(spec=specs)
@settings(max_examples=60, deadline=None)
def test_save_writes_json_dumps_of_to_json(spec, tmp_path_factory):
    """save writes json.dumps(to_json(), indent=2) byte for byte, also for
    values validate_workflow rejects: no stages, an empty stage, bool
    counts, a NaN runtime, str arguments, nested and non-str-keyed tags."""
    path = tmp_path_factory.getbasetemp() / "saved.json"
    spec.save(path)
    assert path.read_bytes() == (
        json.dumps(spec.to_json(), indent=2) + "\n"
    ).encode("ascii")


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["--example", "exaconstit", "--tasks", "7875", "--no-optimizer",
             "--seed", "1"],
            "66c4b5e27f2ee89d1e0cbbccdc2215ad9ad6b3e1b62a743794feef132c2aeddd",
        ),
        (
            ["--example", "uq-stage1", "--desk", "--cases", "40",
             "--uq-params", "10", "--sleep", "0", "--seed", "0"],
            "8768b0ade45d48faa60d4ae697a9f59a513af735fc5d1519f5debd8a4242e139",
        ),
    ],
    ids=["headline", "local-desk"],
)
def test_example_files_keep_their_bytes(argv, sha256, tmp_path, capsys):
    out = tmp_path / "wf.json"
    assert main(["example", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
