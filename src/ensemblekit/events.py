"""Append-only event log: the contract between engine, resilience and metrics.

Persisted as JSON lines, one event per line, with fields exactly
``ts, kind, task_uid, node_ids, detail``. Timestamps are seconds from job
start and non-decreasing within one log.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ensemblekit.errors import IncompleteLog, MalformedLog

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


@dataclass(frozen=True)
class Event:
    ts: float
    kind: str
    task_uid: Optional[str] = None
    node_ids: Optional[tuple[int, ...]] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.node_ids is not None:
            object.__setattr__(self, "node_ids", tuple(self.node_ids))

    def to_record(self) -> dict:
        return {
            "ts": self.ts,
            "kind": self.kind,
            "task_uid": self.task_uid,
            "node_ids": list(self.node_ids) if self.node_ids is not None else None,
            "detail": self.detail,
        }

    @classmethod
    def from_record(cls, rec: object) -> "Event":
        """Raises MalformedLog for anything but a JSON object with a known
        ``kind``, a finite numeric ``ts`` and ``node_ids`` null or a list."""
        if not isinstance(rec, dict):
            raise MalformedLog(f"event is not a JSON object: {rec!r}")
        if "ts" not in rec or "kind" not in rec:
            raise MalformedLog(f"event lacks ts or kind: {rec!r}")
        ts, kind = rec["ts"], rec["kind"]
        # type(), not isinstance(): JSON true/false load as bool, an int
        if type(ts) not in (int, float) or not math.isfinite(ts):
            raise MalformedLog(f"event ts {ts!r} is not a finite number")
        if not isinstance(kind, str) or kind not in KINDS:
            raise MalformedLog(f"unknown event kind {kind!r}")
        node_ids = rec.get("node_ids")
        if node_ids is not None and not isinstance(node_ids, list):
            raise MalformedLog(f"event node_ids {node_ids!r} is not a list")
        return cls(
            ts=float(ts),
            kind=kind,
            task_uid=rec.get("task_uid"),
            node_ids=tuple(node_ids) if node_ids is not None else None,
            detail=rec.get("detail", ""),
        )


@dataclass
class EventLog:
    events: list[Event] = field(default_factory=list)

    def append(self, event: Event) -> None:
        if self.events and event.ts < self.events[-1].ts - 1e-12:
            raise MalformedLog(
                f"timestamps must be non-decreasing: "
                f"{event.ts} after {self.events[-1].ts}"
            )
        self.events.append(event)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    @property
    def complete(self) -> bool:
        return any(e.kind == JOB_END for e in self.events)

    def job_end_ts(self) -> float:
        for e in reversed(self.events):
            if e.kind == JOB_END:
                return e.ts
        raise IncompleteLog("log has no JOB_END event")

    def bootstrap_ts(self) -> float:
        for e in self.events:
            if e.kind == BOOTSTRAP_DONE:
                return e.ts
        raise IncompleteLog("log has no BOOTSTRAP_DONE event")

    def job_meta(self) -> dict:
        """Run metadata embedded in the JOB_START detail."""
        for e in self.events:
            if e.kind == JOB_START:
                try:
                    return json.loads(e.detail) if e.detail else {}
                except json.JSONDecodeError:
                    return {}
        return {}

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as f:
            for event in self.events:
                f.write(json.dumps(event.to_record()) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "EventLog":
        log = cls()
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise MalformedLog(f"{path}:{lineno}: {e.msg}") from e
                log.append(Event.from_record(rec))
        return log


def scheduled_detail(threads: int, gpus_pp: int, chunks: list[int]) -> str:
    """Reservation widths carried on TASK_SCHEDULED so metrics can account
    core/GPU slot-seconds from the log alone."""
    return json.dumps(
        {"threads": threads, "gpus_pp": gpus_pp, "chunks": chunks},
        separators=(",", ":"),
    )


def parse_scheduled_detail(detail: str) -> dict:
    try:
        doc = json.loads(detail)
    except json.JSONDecodeError as e:
        raise MalformedLog(f"unparseable TASK_SCHEDULED detail: {detail!r}") from e
    for key in ("threads", "gpus_pp", "chunks"):
        if key not in doc:
            raise MalformedLog(f"TASK_SCHEDULED detail missing {key!r}")
    return doc
