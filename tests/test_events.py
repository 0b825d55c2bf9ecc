"""EventLog.append: the one place a log's task lifecycle is checked."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit.errors import IllegalTransition, MalformedLog
from ensemblekit.events import (
    MAX_SLOTS,
    Event,
    EventLog,
    scheduled_detail,
    scheduled_slots,
)
from ensemblekit.pst import TaskRun, TaskState, transition_task
from conftest import make_task

# written out here, not taken from the events module, so the property
# below checks the module's table against the state machine
STATE_OF = {
    ev.TASK_SCHEDULED: TaskState.SCHEDULED,
    ev.TASK_LAUNCHED: TaskState.RUNNING,
    ev.TASK_DONE: TaskState.DONE,
    ev.TASK_FAILED: TaskState.FAILED,
    ev.TASK_CANCELED: TaskState.CANCELED,
}


def task_event(ts, kind, uid="t"):
    detail = scheduled_detail(1, 0, [1]) if kind == ev.TASK_SCHEDULED else ""
    return Event(ts=ts, kind=kind, task_uid=uid, node_ids=(0,), detail=detail)


@given(walk=st.lists(st.sampled_from(sorted(STATE_OF)), max_size=6))
@settings(max_examples=300, deadline=None)
def test_append_accepts_exactly_the_legal_walks(walk):
    log = EventLog()
    log.append(Event(ts=0.0, kind=ev.JOB_START))
    run = TaskRun(desc=make_task("t"))
    for i, kind in enumerate(walk, start=1):
        try:
            transition_task(run, STATE_OF[kind])
            legal = True
        except IllegalTransition:
            legal = False
        before = len(log)
        try:
            log.append(task_event(float(i), kind))
            accepted = True
        except MalformedLog:
            accepted = False
        assert accepted == legal, (walk[:i], run.state)
        # a rejected event leaves the log as it was
        assert len(log) == before + accepted


def test_tasks_are_checked_independently():
    log = EventLog()
    log.append(task_event(1.0, ev.TASK_SCHEDULED, "a"))
    log.append(task_event(2.0, ev.TASK_CANCELED, "b"))  # NEW -> CANCELED
    log.append(task_event(3.0, ev.TASK_LAUNCHED, "a"))
    with pytest.raises(MalformedLog, match="task b"):
        log.append(task_event(4.0, ev.TASK_SCHEDULED, "b"))


def test_constructor_replays_events_through_append():
    good = [task_event(1.0, ev.TASK_SCHEDULED), task_event(2.0, ev.TASK_LAUNCHED)]
    assert EventLog(events=list(good)).events == good
    with pytest.raises(MalformedLog):
        EventLog(events=good + [task_event(3.0, ev.TASK_SCHEDULED)])
    # the replayed state carries on into later appends
    log = EventLog(events=list(good))
    log.append(task_event(3.0, ev.TASK_DONE))
    with pytest.raises(MalformedLog):
        log.append(task_event(4.0, ev.TASK_FAILED))


def test_slots_up_to_the_float_exact_limit():
    assert scheduled_slots(scheduled_detail(2, 1, [3, 4])) == (14, 7)
    assert scheduled_slots(scheduled_detail(1, 0, [MAX_SLOTS])) == (MAX_SLOTS, 0)
    for detail in (
        scheduled_detail(1, 0, [MAX_SLOTS + 1]),
        scheduled_detail(2, 0, [MAX_SLOTS // 2 + 1]),
        scheduled_detail(1, 2, [MAX_SLOTS // 2, 1]),
    ):
        with pytest.raises(MalformedLog, match="slots"):
            scheduled_slots(detail)
