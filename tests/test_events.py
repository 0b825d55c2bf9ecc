"""EventLog.append: the one place a log's task lifecycle is checked; the
log writer and reader."""

import functools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit.engine import RuntimeModel, run_simulated
from ensemblekit.errors import IncompleteLog, MalformedLog
from ensemblekit.events import (
    MAX_SLOTS,
    Event,
    EventLog,
    scheduled_detail,
    scheduled_slots,
)
from ensemblekit.platform import get_profile, max_walltime_for
from ensemblekit.workloads import generate_example
from conftest import log_of, make_task, single_stage, small_platform

# the task lifecycle, written out here, not taken from the events module,
# so the property below checks the module's table against it: a task's
# last event (None before its first) -> the task events that may follow
FOLLOWS = {
    None: {ev.TASK_SCHEDULED, ev.TASK_CANCELED},
    ev.TASK_SCHEDULED: {ev.TASK_LAUNCHED, ev.TASK_CANCELED},
    ev.TASK_LAUNCHED: {ev.TASK_DONE, ev.TASK_FAILED, ev.TASK_CANCELED},
    ev.TASK_DONE: set(),
    ev.TASK_FAILED: set(),
    ev.TASK_CANCELED: set(),
}


def task_event(ts, kind, uid="t"):
    detail = scheduled_detail(1, 0, [1]) if kind == ev.TASK_SCHEDULED else ""
    return Event(ts=ts, kind=kind, task_uid=uid, node_ids=(0,), detail=detail)


@given(walk=st.lists(st.sampled_from(sorted(FOLLOWS.keys() - {None})),
                     max_size=6))
@settings(max_examples=300, deadline=None)
def test_append_accepts_exactly_the_legal_walks(walk):
    log = EventLog()
    log.append(Event(ts=0.0, kind=ev.JOB_START))
    last = None
    for i, kind in enumerate(walk, start=1):
        before = len(log)
        try:
            log.append(task_event(float(i), kind))
            accepted = True
        except MalformedLog:
            accepted = False
        assert accepted == (kind in FOLLOWS[last]), (walk[:i], last)
        # a rejected event leaves the log and the task's state as they were
        assert len(log) == before + accepted
        if accepted:
            last = kind
        assert log.last_kind("t") == last


def test_tasks_are_checked_independently():
    log = EventLog()
    log.append(task_event(1.0, ev.TASK_SCHEDULED, "a"))
    log.append(task_event(2.0, ev.TASK_CANCELED, "b"))  # NEW -> CANCELED
    log.append(task_event(3.0, ev.TASK_LAUNCHED, "a"))
    with pytest.raises(MalformedLog, match="task b"):
        log.append(task_event(4.0, ev.TASK_SCHEDULED, "b"))


def test_slots_up_to_the_float_exact_limit():
    assert scheduled_slots(scheduled_detail(2, 1, [3, 4])) == (2, 1, [3, 4])
    assert scheduled_slots(scheduled_detail(1, 0, [MAX_SLOTS])) == (
        1, 0, [MAX_SLOTS]
    )
    for detail in (
        scheduled_detail(1, 0, [MAX_SLOTS + 1]),
        scheduled_detail(2, 0, [MAX_SLOTS // 2 + 1]),
        scheduled_detail(1, 2, [MAX_SLOTS // 2, 1]),
    ):
        with pytest.raises(MalformedLog, match="slots"):
            scheduled_slots(detail)


@pytest.mark.parametrize("ts", [math.inf, -math.inf, math.nan, True, "1"],
                         ids=repr)
def test_append_rejects_a_ts_that_is_not_a_finite_number(ts):
    log = log_of([Event(0.0, ev.JOB_START)])
    with pytest.raises(MalformedLog, match="not a finite number"):
        log.append(task_event(ts, ev.TASK_SCHEDULED))
    assert log.events == [Event(0.0, ev.JOB_START)]
    # the task's lifecycle did not move either
    log.append(task_event(1.0, ev.TASK_SCHEDULED))


def test_append_rejects_an_unknown_kind():
    log = EventLog()
    for kind in ("BOGUS", 'JOB_START", "x'):
        with pytest.raises(MalformedLog, match="unknown event kind"):
            log.append(Event(0.0, kind))
    assert log.events == []


def test_append_rejects_an_event_after_job_end():
    log = EventLog()
    log.append(Event(0.0, ev.JOB_START))
    log.append(Event(1.0, ev.JOB_END))
    for event in (Event(1.0, ev.TASK_SCHEDULED, "a"), Event(1.0, ev.JOB_END)):
        with pytest.raises(MalformedLog, match="after JOB_END"):
            log.append(event)
    assert [e.kind for e in log] == [ev.JOB_START, ev.JOB_END]
    assert log.complete and log.job_end_ts() == 1.0


@pytest.mark.parametrize(
    "event,match",
    [
        (Event(0.0, ev.JOB_START, None, (True,)), "node_ids"),
        (Event(0.0, ev.JOB_START, None, [0]), "node_ids"),
        (Event(0.0, ev.JOB_START, None, (0, -1)), "node_ids"),
        (Event(0.0, ev.JOB_START, None, (0.0,)), "node_ids"),
        (Event(0.0, ev.JOB_START, None, "01"), "node_ids"),
        (Event(0.0, ev.TASK_SCHEDULED, 5), "task_uid"),
        (Event(0.0, ev.TASK_SCHEDULED, ("a",)), "task_uid"),
        (Event(0.0, ev.JOB_START, detail=5), "detail"),
        (Event(0.0, ev.JOB_START, detail=None), "detail"),
    ],
)
def test_append_rejects_a_field_of_the_wrong_type(event, match):
    log = EventLog()
    with pytest.raises(MalformedLog, match=match):
        log.append(event)
    assert log.events == []


# all of Unicode, lone surrogates included, and the characters JSON escapes;
# but no high surrogate just before a low one: JSON writes that pair as the
# escapes of the one non-BMP character it reads them back as
_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\\x00\x1f\x7f\ud800\udfff\U0001f600')
).filter(lambda s: not re.search("[\ud800-\udbff][\udc00-\udfff]", s))
_TS = st.one_of(
    st.integers(-(10**308), 10**308),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7e308]),
)


@given(
    ts=st.lists(_TS, min_size=2, max_size=2).map(sorted),
    uid=_TEXT,
    node_ids=st.none() | st.lists(st.integers(0, 2**63), max_size=4).map(tuple),
    detail=_TEXT,
)
# an int ts whose float rounds up: equal to the last ts, not below it
@example(ts=[2**60 - 1] * 2, uid="", node_ids=None, detail="")
@settings(max_examples=100, deadline=None)
def test_saved_lines_are_json_dumps_of_the_records(ts, uid, node_ids, detail):
    log = EventLog()
    log.append(Event(ts[0], ev.JOB_START, detail=detail))
    log.append(Event(ts[1], ev.TASK_SCHEDULED, uid, node_ids))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        log.save_jsonl(path)
        assert path.read_text() == "".join(
            json.dumps(e._asdict()) + "\n" for e in log
        )
        # the reader gives every ts back as a float
        assert EventLog.load_jsonl(path).events == [
            e._replace(ts=float(e.ts)) for e in log
        ]


def _seeded_run(tasks, nodes):
    """The in-memory log of a seeded run of exaconstit members on
    frontier-sim, each member on 8 nodes."""
    spec = generate_example("exaconstit",
                            {"tasks": tasks, "optimizer": False, "seed": 1})
    model = RuntimeModel("uniform", 600.0, 1244.0, seed=1)
    platform = get_profile("frontier-sim")
    walltime = max_walltime_for(platform.policy, nodes)
    return run_simulated(spec, platform, nodes, walltime, model)


def _deep_size(log):
    """sys.getsizeof summed over the distinct objects a log's event list
    reaches: the list, its events and their fields, node ids included."""
    seen, total, todo = set(), 0, [log.events]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, tuple | list):
                todo.extend(obj)
    return total


def test_loaded_log_keeps_each_distinct_value_once(tmp_path):
    path = tmp_path / "run.jsonl"
    _seeded_run(12, 64).save_jsonl(path)
    log = EventLog.load_jsonl(path)
    by_task = {}
    for event in log:
        assert event.kind is getattr(ev, event.kind)
        if event.task_uid is not None:
            by_task.setdefault(event.task_uid, []).append(event)
    assert len(by_task) == 12
    for scheduled, *rest in by_task.values():
        assert [e.kind for e in rest] == [ev.TASK_LAUNCHED, ev.TASK_DONE]
        for event in rest:
            assert event.task_uid is scheduled.task_uid
            assert event.node_ids is scheduled.node_ids
    # every member reserves the same widths
    details = {id(e.detail) for e in log if e.kind == ev.TASK_SCHEDULED}
    assert len(details) == 1


def test_loaded_log_is_no_larger_than_the_engine_log(tmp_path):
    engine_log = _seeded_run(500, 800)
    path = tmp_path / "run.jsonl"
    engine_log.save_jsonl(path)
    assert _deep_size(EventLog.load_jsonl(path)) <= _deep_size(engine_log)


@pytest.mark.parametrize("ids", ["[true]", "[1.0]", "[1, false]"])
def test_load_rejects_node_ids_equal_to_an_accepted_tuple(tmp_path, ids):
    # (True,) and (1.0,) equal (1,), which the first line makes shareable
    path = tmp_path / "run.jsonl"
    path.write_text(
        '{"ts": 0, "kind": "JOB_START", "node_ids": [1]}\n'
        '{"ts": 0, "kind": "JOB_START", "node_ids": [1, 0]}\n'
        f'{{"ts": 0, "kind": "BOOTSTRAP_DONE", "node_ids": {ids}}}\n'
    )
    with pytest.raises(MalformedLog,
                       match=f"^{re.escape(str(path))}:3: event node_ids"):
        EventLog.load_jsonl(path)


@pytest.mark.parametrize("ids", [(True,), (1.0,), (1, False)], ids=repr)
def test_append_rejects_node_ids_equal_to_an_accepted_tuple(ids):
    # the log holds (1,) and (1, 0), each equal to one of ids; only the very
    # tuple a task's previous event carries skips the check
    accepted = (1,) if len(ids) == 1 else (1, 0)
    log = EventLog()
    log.append(Event(0.0, ev.JOB_START, None, (1,)))
    log.append(Event(0.0, ev.JOB_START, None, (1, 0)))
    log.append(Event(0.0, ev.TASK_SCHEDULED, "t", accepted,
                     scheduled_detail(1, 0, [1] * len(accepted))))
    for event in (Event(1.0, ev.NODE_FAILED, None, ids),
                  Event(1.0, ev.TASK_LAUNCHED, "t", ids)):
        with pytest.raises(MalformedLog, match=re.escape(
                f"event node_ids {ids!r} is not a tuple of ints >= 0")):
            log.append(event)
        assert len(log) == 3
    log.append(Event(1.0, ev.TASK_LAUNCHED, "t", accepted))
    assert log.last_kind("t") == ev.TASK_LAUNCHED


@pytest.mark.parametrize("ids", [(1,), (0, 1), (), (1, 0)], ids=repr)
@pytest.mark.parametrize("kind", [ev.TASK_LAUNCHED, ev.TASK_DONE,
                                  ev.TASK_FAILED, ev.TASK_CANCELED])
def test_a_later_event_names_no_nodes_or_the_scheduled_ones(kind, ids):
    # scheduled on (0,): a later event may name no nodes or (0,), even as
    # an equal tuple of its own, and a launch without nodes leaves the
    # terminal event checked against the scheduled nodes
    log = log_of([
        Event(0.0, ev.JOB_START),
        Event(0.0, ev.TASK_SCHEDULED, "t", (0,), scheduled_detail(1, 0, [1])),
    ])
    if kind in (ev.TASK_DONE, ev.TASK_FAILED):
        log.append(Event(1.0, ev.TASK_LAUNCHED, "t", None))
    before = len(log)
    with pytest.raises(MalformedLog, match=re.escape(
            f"task t: {kind} names nodes {ids}, not the nodes (0,) it was "
            f"scheduled on")):
        log.append(Event(2.0, kind, "t", ids))
    assert len(log) == before
    log.append(Event(2.0, kind, "t", tuple([0])))
    assert log.last_kind("t") == kind


@pytest.mark.parametrize(
    "events",
    [[], [Event(0.0, ev.BOOTSTRAP_DONE), Event(5.0, ev.JOB_END)]],
    ids=["empty", "no-job-start"],
)
def test_allocation_of_a_log_with_no_job_start_is_incomplete(events):
    with pytest.raises(IncompleteLog, match="^log has no JOB_START event$"):
        ev.allocation(log_of(events))


def test_load_rejects_a_launch_on_other_nodes(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(
        '{"ts": 0, "kind": "JOB_START"}\n'
        '{"ts": 1, "kind": "TASK_SCHEDULED", "task_uid": "t", '
        '"node_ids": [0], "detail": "%s"}\n'
        '{"ts": 2, "kind": "TASK_LAUNCHED", "task_uid": "t", '
        '"node_ids": [1]}\n' % scheduled_detail(1, 0, [1]).replace('"', '\\"')
    )
    with pytest.raises(MalformedLog, match=re.escape(
            f"{path}:3: task t: TASK_LAUNCHED names nodes (1,), not the "
            f"nodes (0,) it was scheduled on")):
        EventLog.load_jsonl(path)


@functools.cache
def _small_log_lines() -> tuple[str, ...]:
    """A log of six whole-node tasks on nodes 0 and 1, so that an edited
    node id often equals the one it replaces."""
    spec = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(6)])
    log = run_simulated(spec, small_platform(nodes=2), 2, 10000.0,
                        RuntimeModel("uniform", 10.0, 20.0, seed=1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        log.save_jsonl(path)
        return tuple(path.read_text().splitlines())


# the values an edit writes, as JSON text; "int" is the line's ts as an int
_LITERALS = ["true", "1.0", "-0.0", "int", "1e400"]


@st.composite
def _mutated_lines(draw):
    """The small seeded log with 1 to 3 lines deleted, duplicated, swapped,
    with one value (ts, kind, uid, detail or a node id) edited, or with a
    key that is not a field added, in place of an optional field or
    beside it."""
    lines = list(_small_log_lines())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "edit", "extra key"]
        ))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "edit":
            rec = json.loads(lines[i])
            literal = draw(st.sampled_from(_LITERALS))
            if literal == "int":
                if not math.isfinite(rec["ts"]):  # an earlier 1e400 edit
                    continue
                literal = str(int(rec["ts"]))
            where = draw(st.sampled_from(
                ["ts", "kind", "task_uid", "detail"]
                + list(range(len(rec.get("node_ids") or ())))
            ))
            if isinstance(where, int):
                rec["node_ids"][where] = "\0"
            else:
                rec[where] = "\0"
            lines[i] = json.dumps(rec).replace('"\\u0000"', literal)
        elif op == "extra key":
            rec = json.loads(lines[i])
            rec[draw(st.sampled_from(["extra", "Detail", "node_id"]))] = 0
            dropped = draw(st.sampled_from(
                [None, "task_uid", "node_ids", "detail"]
            ))
            rec.pop(dropped, None)
            lines[i] = json.dumps(rec)
    return lines


def _append_records(lines) -> EventLog:
    """Each line's record, appended one by one: an int ts as a float and
    node ids as a tuple, as the loader documents; MalformedLog for a record
    with a key that is not an Event field."""
    log = EventLog()
    for line in lines:
        rec = json.loads(line)
        if rec.keys() - set(Event._fields):
            raise MalformedLog(f"not an event: {rec!r}")
        ts, ids = rec["ts"], rec.get("node_ids")
        log.append(Event(
            float(ts) if type(ts) is int else ts, rec["kind"],
            rec.get("task_uid"), tuple(ids) if type(ids) is list else ids,
            rec.get("detail", ""),
        ))
    return log


@given(lines=_mutated_lines())
@settings(max_examples=300, deadline=None)
def test_load_is_append_of_the_parsed_records(lines):
    try:
        expected = _append_records(lines)
    except MalformedLog:
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        try:
            loaded = EventLog.load_jsonl(path)
        except MalformedLog:
            assert expected is None
            return
    assert expected is not None
    assert loaded.events == expected.events
    # the same types too: (True,) == (1,) and -0.0 == 0.0, but their reprs
    # differ
    assert [repr(e) for e in loaded] == [repr(e) for e in expected]
    for got, want in zip(loaded, expected):
        assert list(map(type, got)) == list(map(type, want))
        assert list(map(type, got.node_ids or ())) == list(
            map(type, want.node_ids or ())
        )
