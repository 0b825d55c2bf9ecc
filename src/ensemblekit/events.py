"""Append-only event log: the contract between engine, resilience and metrics.

Persisted as JSON lines, one event per line, with fields exactly
:class:`Event`'s ``ts, kind, task_uid, node_ids, detail``: a line with
another field is rejected, and a missing optional one takes its default.
Timestamps are finite seconds from job start and non-decreasing within one
log. The writer emits one fixed layout, byte-equal to ``json.dumps`` of
the event's record.

The log is the one holder of each task's state: its last event. A task
with no event is new, and every ``TASK_*`` event names its task and follows
its last one as :data:`_FOLLOWS` allows: ``TASK_SCHEDULED``, then
``TASK_LAUNCHED``, then one of ``TASK_DONE`` / ``TASK_FAILED``, with
``TASK_CANCELED`` allowed from each of those open states; nothing follows a
terminal event. A task's later events name no nodes or the nodes of its
``TASK_SCHEDULED``. No other kind names a task, and nothing follows JOB_END.
:meth:`EventLog.append` checks these rules beside the timestamp order and
each field's type, so readers of a log fold it without checking again, and
the pilot and engine ask it for a task's state through
:meth:`EventLog.last_kind`.

Two details have one writer and one reader each, both here: JOB_START's run
metadata (:func:`run_metadata`, :func:`allocation`) and TASK_SCHEDULED's
reservation widths (:func:`scheduled_detail`, :func:`scheduled_slots`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

from ensemblekit.errors import IncompleteLog, MalformedLog, ValidationError
from ensemblekit.platform import NodeSpec, PlatformConfig
from ensemblekit.pst import MAX_SLOTS, count_violation, is_number

JOB_START = "JOB_START"
BOOTSTRAP_DONE = "BOOTSTRAP_DONE"
TASK_SCHEDULED = "TASK_SCHEDULED"
TASK_LAUNCHED = "TASK_LAUNCHED"
TASK_DONE = "TASK_DONE"
TASK_FAILED = "TASK_FAILED"
TASK_CANCELED = "TASK_CANCELED"
NODE_FAILED = "NODE_FAILED"
JOB_END = "JOB_END"

KINDS = frozenset(
    {
        JOB_START,
        BOOTSTRAP_DONE,
        TASK_SCHEDULED,
        TASK_LAUNCHED,
        TASK_DONE,
        TASK_FAILED,
        TASK_CANCELED,
        NODE_FAILED,
        JOB_END,
    }
)

TERMINAL_KINDS = frozenset({TASK_DONE, TASK_FAILED, TASK_CANCELED})
_TASK_KINDS = frozenset(
    {TASK_SCHEDULED, TASK_LAUNCHED, TASK_DONE, TASK_FAILED, TASK_CANCELED}
)

# the task lifecycle: a task's last event (None before its first: the task
# is new) -> the task events that may follow it
_FOLLOWS: dict[Optional[str], frozenset[str]] = {
    None: frozenset({TASK_SCHEDULED, TASK_CANCELED}),
    TASK_SCHEDULED: frozenset({TASK_LAUNCHED, TASK_CANCELED}),
    TASK_LAUNCHED: frozenset({TASK_DONE, TASK_FAILED, TASK_CANCELED}),
    TASK_DONE: frozenset(),
    TASK_FAILED: frozenset(),
    TASK_CANCELED: frozenset(),
}


# the JSON parser without json.loads' and raw_decode's Python wrappers: a
# stripped line leaves them no whitespace to skip, only the check for data
# after the value and the error for no value at all
_scan = json.JSONDecoder().scan_once
# tuple's own constructor: Event(...) runs NamedTuple's __new__ in Python
_new = tuple.__new__
# a line's fields in Event order
_fields = itemgetter("ts", "kind", "task_uid", "node_ids", "detail")


def _all_at_least(values, least: int) -> bool:
    """Every value is an int >= least. type(), not isinstance(): a JSON
    true/false loads as bool, an int."""
    for v in values:
        if type(v) is not int or v < least:
            return False
    return True


class Event(NamedTuple):
    ts: float
    kind: str
    task_uid: Optional[str] = None
    node_ids: Optional[tuple[int, ...]] = None
    detail: str = ""


@dataclass
class EventLog:
    """Events in append order. Every event goes through :meth:`append`'s
    checks."""

    events: list[Event] = field(default_factory=list, init=False)
    # each task's last event, carrying the node ids of its first: its kind
    # for the lifecycle check, its node ids for the task's next event
    _last: dict[str, Event] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def append(self, event: Event) -> None:
        """Raises MalformedLog, leaving the log as it was, for an event
        after JOB_END, of unknown kind, with a ts that is not a finite
        number or is earlier than the last one, a uid or detail not a str
        (a uid may be None), or node ids not None or a tuple of ints >= 0;
        and for a TASK_* event off its task's lifecycle or naming no task,
        or another kind naming a task, or a task's later event whose node
        ids are neither None nor those of its TASK_SCHEDULED.

        Node ids that are the very tuple object the task's previous event
        carries passed these checks with it and are not checked again; an
        equal tuple is, since ``(True,) == (1.0,) == (1,)``."""
        ts, kind, uid, node_ids, detail = event
        events = self.events
        prev = events[-1] if events else None
        if prev is not None and prev[1] == JOB_END:
            raise MalformedLog(f"{kind} event after JOB_END")
        if not isinstance(kind, str) or kind not in KINDS:
            raise MalformedLog(f"unknown event kind {kind!r}")
        # ts - ts is 0.0 for a finite float, nan for inf and nan
        if not (type(ts) is float and ts - ts == 0.0 or is_number(ts)):
            raise MalformedLog(f"event ts {ts!r} is not a finite number")
        if uid is None:
            last = None
        elif isinstance(uid, str):
            last = self._last.get(uid)
        else:
            raise MalformedLog(f"event task_uid {uid!r} is not a string")
        if node_ids is not None and not (
            last is not None and node_ids is last[3]
            or type(node_ids) is tuple and _all_at_least(node_ids, 0)
        ):
            raise MalformedLog(
                f"event node_ids {node_ids!r} is not a tuple of ints >= 0"
            )
        if not isinstance(detail, str):
            raise MalformedLog(f"event detail {detail!r} is not a string")
        # a difference: the float last - 1e-12 can round a large int last up
        # past an equal ts
        if prev is not None and prev[0] - ts > 1e-12:
            raise MalformedLog(
                f"timestamps must be non-decreasing: {ts} after {prev[0]}"
            )
        if uid is None:
            if kind in _TASK_KINDS:
                raise MalformedLog(f"{kind} event names no task")
        else:
            # _FOLLOWS holds task kinds only, so this also rejects another
            # kind that names a task
            last_kind = None if last is None else last[1]
            if kind not in _FOLLOWS[last_kind]:
                raise MalformedLog(
                    f"task {uid}: {kind} after {last_kind or 'no event'}"
                    if kind in _TASK_KINDS
                    else f"{kind} event names task {uid!r}"
                )
            if last is None or node_ids is last[3] or node_ids == last[3]:
                self._last[uid] = event
            elif node_ids is None:  # the task keeps its scheduled nodes
                self._last[uid] = _new(Event, (ts, kind, uid, last[3], detail))
            else:
                raise MalformedLog(
                    f"task {uid}: {kind} names nodes {node_ids}, not the "
                    f"nodes {last[3]} it was scheduled on"
                )
        events.append(event)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def last_kind(self, uid: str) -> Optional[str]:
        """The kind of task ``uid``'s last event; None if no event names it."""
        last = self._last.get(uid)
        return None if last is None else last[1]

    @property
    def complete(self) -> bool:
        """Whether the log ends with JOB_END, after which nothing follows."""
        return bool(self.events) and self.events[-1].kind == JOB_END

    def job_end_ts(self) -> float:
        if not self.complete:
            raise IncompleteLog("log has no JOB_END event")
        return self.events[-1].ts

    def bootstrap_ts(self) -> float:
        for e in self.events:
            if e.kind == BOOTSTRAP_DONE:
                return e.ts
        raise IncompleteLog("log has no BOOTSTRAP_DONE event")

    def save_jsonl(self, path: str | Path) -> None:
        # the text of each distinct node-id tuple, by value: a task's
        # scheduled, launched and terminal events share one tuple
        ids: dict[tuple[int, ...], str] = {}
        with open(path, "w") as f:
            f.writelines(_line(event, ids) for event in self.events)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "EventLog":
        """Raises MalformedLog naming ``path:lineno`` for the first line
        that is not UTF-8 JSON, not a JSON object of :class:`Event`'s
        fields with ``ts`` and ``kind``, or that :meth:`append` rejects;
        reads an int ts as a float and node ids as a tuple. Keeps one
        object per distinct kind (the module constant), uid, node-id tuple
        and detail. Each line's node ids are checked once, before they are
        shared: equal tuples are not trusted by value, and a task's later
        events carry its first event's tuple, which :meth:`append` does not
        check again."""
        log = cls()
        share = {kind: kind for kind in KINDS}.setdefault  # value -> itself
        with open(path, "rb") as f:
            for lineno, raw in enumerate(f, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    try:
                        rec, end = _scan(line, 0)
                    except StopIteration as e:
                        raise json.JSONDecodeError(
                            "Expecting value", line, e.value
                        ) from None
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                    try:  # every line the writer writes has just the five
                        ts, kind, uid, node_ids, detail = (
                            _fields(rec) if len(rec) == 5 else _record(rec)
                        )
                    except (KeyError, TypeError):
                        ts, kind, uid, node_ids, detail = _record(rec)
                    try:
                        kind, uid = share(kind, kind), share(uid, uid)
                        if detail:  # "" is one object already
                            detail = share(detail, detail)
                    except TypeError:  # unhashable, which append rejects
                        pass
                    if type(node_ids) is list:
                        node_ids = tuple(node_ids)
                        # share only ids append accepts: (True,) == (1,)
                        if _all_at_least(node_ids, 0):
                            node_ids = share(node_ids, node_ids)
                    if type(ts) is int:
                        ts = float(ts)
                    log.append(_new(Event, (ts, kind, uid, node_ids, detail)))
                except MalformedLog as e:
                    raise MalformedLog(f"{path}:{lineno}: {e}") from e
                # ValueError covers bad JSON, bad UTF-8 and an int past
                # Python's digit limit; RecursionError, deep nesting;
                # OverflowError, an int ts beyond the float range
                except (ValueError, RecursionError, OverflowError) as e:
                    raise MalformedLog(
                        f"{path}:{lineno}: not a JSON event line: {e}"
                    ) from e
        return log


def _record(rec) -> Event:
    """The event of a decoded line that is not just the five fields, the
    missing ones at their defaults; MalformedLog if it is not an object of
    Event's fields with ts and kind."""
    try:
        return Event(**rec)
    except TypeError as e:  # not an object, a field missing or unknown
        raise MalformedLog(f"not an event: {e}: {rec!r}") from e


def _line(event: Event, ids: dict[tuple[int, ...], str]) -> str:
    """One log line: ``json.dumps`` of the event's fields as a record, for
    every event :meth:`EventLog.append` accepts (a known kind, a finite int
    or float ts, str uid and detail, int node ids). ``ids`` caches the text
    of the node-id tuples seen so far."""
    ts, kind, uid, node_ids, detail = event
    if node_ids is None:
        nodes = "null"
    else:
        nodes = ids.get(node_ids)
        if nodes is None:
            nodes = ids[node_ids] = "[%s]" % ", ".join(map(str, node_ids))
    return (
        '{"ts": %r, "kind": "%s", "task_uid": %s, "node_ids": %s, '
        '"detail": %s}\n'
    ) % (
        ts,
        kind,
        "null" if uid is None else _quote(uid),
        nodes,
        _quote(detail),
    )


def scheduled_detail(threads: int, gpus_pp: int, chunks: Sequence[int]) -> str:
    """Reservation widths carried on TASK_SCHEDULED so metrics can account
    core/GPU slot-seconds from the log alone: compact JSON, as
    ``json.dumps(..., separators=(",", ":"))`` writes it for ints."""
    return '{"threads":%r,"gpus_pp":%r,"chunks":[%s]}' % (
        threads, gpus_pp, ",".join(map(str, chunks))
    )


def scheduled_slots(detail: str) -> tuple[int, int, list[int]]:
    """The widths ``(threads, gpus_pp, chunks)`` of a TASK_SCHEDULED detail:
    a JSON object with int ``threads`` >= 1, int ``gpus_pp`` >= 0 and
    ``chunks`` a list of ints >= 1 (ranks per node); neither width times
    the ranks may exceed :data:`MAX_SLOTS`."""
    try:
        doc = json.loads(detail)
        threads, gpus_pp, chunks = doc["threads"], doc["gpus_pp"], doc["chunks"]
    # ValueError: bad JSON, or an int past Python's digit limit
    except (ValueError, RecursionError) as e:
        raise MalformedLog(f"unparseable TASK_SCHEDULED detail: {detail!r}") from e
    except (KeyError, TypeError) as e:  # not an object, or a key missing
        raise MalformedLog(
            f"TASK_SCHEDULED detail lacks threads, gpus_pp or chunks: "
            f"{detail!r}"
        ) from e
    if not (
        type(threads) is int and threads >= 1
        and type(gpus_pp) is int and gpus_pp >= 0
        and type(chunks) is list
        and _all_at_least(chunks, 1)
    ):
        raise MalformedLog(f"TASK_SCHEDULED detail has bad widths: {detail!r}")
    ranks = sum(chunks)
    if threads * ranks > MAX_SLOTS or gpus_pp * ranks > MAX_SLOTS:
        raise MalformedLog(
            f"TASK_SCHEDULED detail reserves more than {MAX_SLOTS} slots: "
            f"{detail!r}"
        )
    return threads, gpus_pp, chunks


def run_metadata(platform: PlatformConfig, nodes: int, **meta) -> str:
    """JOB_START's detail, read back by :func:`allocation`: JSON of the
    platform and allocation, ``backend``, ``bootstrap_s`` and ``walltime_s``
    (null, 0, null) unless ``meta`` gives them, then ``meta``'s other keys."""
    node = platform.node
    start = {"backend": None, "platform": platform.name,
             "allocation_nodes": nodes, "cores_total": node.cores_total,
             "cores_reserved": node.cores_reserved,
             "gpus_per_node": node.gpus, "bootstrap_s": 0.0, "walltime_s": None}
    start.update(meta)  # a key already above keeps its place
    return json.dumps(start)


def allocation(log: EventLog) -> tuple[NodeSpec, int]:
    """The node shape and count in the first JOB_START's run metadata, JSON
    integers read as written (MalformedLog if one is missing or bad)."""
    start = next((e.detail for e in log if e.kind == JOB_START), "")
    try:
        meta = json.loads(start)
        node = NodeSpec(meta["cores_total"], meta.get("cores_reserved", 0),
                        meta.get("gpus_per_node", 0))
        nodes = meta["allocation_nodes"]
    # ValueError: bad JSON or an int past the digit limit; TypeError: no dict
    except (ValueError, RecursionError, TypeError, KeyError,
            ValidationError) as e:
        raise MalformedLog(f"bad run metadata in JOB_START: {e!r}") from e
    reason = count_violation("allocation_nodes", nodes, 1)
    if reason:
        raise MalformedLog(f"bad run metadata in JOB_START: {reason}")
    return node, nodes
