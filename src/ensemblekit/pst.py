"""Pipeline-Stage-Task domain model.

A pipeline is an ordered sequence of stages; a stage is a set of independent
tasks. Stages run sequentially within a pipeline, tasks concurrently within a
stage, and pipelines concurrently with each other. This module holds the
static workflow description, its JSON form, and :class:`JobRun`, the one
model of stage progression that both backends drive. A task's lifecycle
state is not kept here: the job's event log (:mod:`ensemblekit.events`)
holds it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ensemblekit.errors import ConfigError, ParseError, ValidationError


# the most slots one task may reserve, and the most cores or GPUs of a
# node: every count up to it is exact as a float, and the accounting
# multiplies slots by seconds in floats
MAX_SLOTS = 2**53


def is_number(value: object) -> bool:
    """An int or float within the float range. type(), not isinstance():
    JSON true/false load as bool, an int."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def count_violation(name: str, value: object, least: int) -> Optional[str]:
    """Why ``value`` is not an int in [least, MAX_SLOTS], or None."""
    if type(value) is not int:
        return f"{name} must be an integer, not {value!r}"
    if value < least:
        return f"{name} must be >= {least}"
    if value > MAX_SLOTS:
        return f"{name} must be <= {MAX_SLOTS}"
    return None


def _strings(value: object) -> bool:
    if type(value) is not tuple:
        return False
    for v in value:
        if not isinstance(v, str):
            return False
    return True


@dataclass(frozen=True, slots=True)
class TaskDescription:
    """One self-contained executable with its resource requirements.

    ``cpu_processes`` counts MPI ranks, ``cpu_threads_per_process`` cores per
    rank, ``gpus_per_process`` GPUs per rank. ``pre_exec`` holds shell lines
    run before the executable to prepare the environment. Fields come
    straight from workflow JSON; :meth:`violations` names each one of the
    wrong type or out of range.
    """

    uid: str
    executable: str
    arguments: tuple[str, ...] = ()
    pre_exec: tuple[str, ...] = ()
    cpu_processes: int = 1
    cpu_threads_per_process: int = 1
    gpus_per_process: int = 0
    expected_runtime_s: Optional[float] = None
    tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # copy sequences and mappings; anything else is left for violations()
        if isinstance(self.arguments, (tuple, list)):
            object.__setattr__(self, "arguments", tuple(self.arguments))
        if isinstance(self.pre_exec, (tuple, list)):
            object.__setattr__(self, "pre_exec", tuple(self.pre_exec))
        if isinstance(self.tags, (dict, Mapping)):
            object.__setattr__(self, "tags", dict(self.tags))

    def violations(self) -> list[str]:
        out = []
        uid = self.uid
        procs = self.cpu_processes
        threads = self.cpu_threads_per_process
        gpus = self.gpus_per_process
        for reason in (
            count_violation("cpu_processes", procs, 1),
            count_violation("cpu_threads_per_process", threads, 1),
            count_violation("gpus_per_process", gpus, 0),
        ):
            if reason:
                out.append(f"task {uid}: {reason}")
        if not out and procs * max(threads, gpus) > MAX_SLOTS:
            out.append(
                f"task {uid}: reserves more than {MAX_SLOTS} core or GPU slots"
            )
        if not isinstance(uid, str):
            out.append(f"task uid {uid!r} is not a string")
        elif not uid:
            out.append("task has empty uid")
        if not (isinstance(self.executable, str) and self.executable):
            out.append(f"task {uid}: executable must be a non-empty string")
        if not _strings(self.arguments):
            out.append(f"task {uid}: arguments must be a list of strings")
        if not _strings(self.pre_exec):
            out.append(f"task {uid}: pre_exec must be a list of strings")
        runtime = self.expected_runtime_s
        if runtime is not None and not (is_number(runtime) and runtime > 0):
            out.append(
                f"task {uid}: expected_runtime_s must be a finite number > 0, "
                f"not {runtime!r}"
            )
        if not isinstance(self.tags, dict):
            out.append(f"task {uid}: tags must be a JSON object")
        return out


@dataclass(frozen=True)
class Stage:
    """A named set of independent tasks; no ordering among them."""

    name: str
    tasks: tuple[TaskDescription, ...]


@dataclass(frozen=True)
class WorkflowSpec:
    """A pipeline: ordered stages, each a set of tasks."""

    name: str
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    def tasks(self) -> Iterable[TaskDescription]:
        for stage in self.stages:
            yield from stage.tasks

    def task_count(self) -> int:
        return sum(len(s.tasks) for s in self.stages)

    def to_json(self) -> dict:
        """The workflow JSON document: the reference :meth:`save` matches
        byte for byte, as ``json.dumps`` of it with ``indent=2``."""
        return {
            "name": self.name,
            "stages": [
                {
                    "name": s.name,
                    "tasks": [
                        {
                            "uid": t.uid,
                            "executable": t.executable,
                            "arguments": list(t.arguments),
                            "pre_exec": list(t.pre_exec),
                            "cpu_processes": t.cpu_processes,
                            "cpu_threads_per_process": t.cpu_threads_per_process,
                            "gpus_per_process": t.gpus_per_process,
                            "expected_runtime_s": t.expected_runtime_s,
                            "tags": dict(t.tags),
                        }
                        for t in s.tasks
                    ],
                }
                for s in self.stages
            ],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "WorkflowSpec":
        """The workflow of a JSON document, read by the records' own
        fields: a missing optional field takes its default, and a key that
        is not a field raises TypeError naming it. Each task is built in one
        pass over its record (:func:`_task`), with no copy of the record.
        The tasks keep one object per distinct string of their executables,
        arguments, pre_exec lines and tags; values that are not strings are
        kept as they are."""
        share = {}.setdefault  # value -> its first object
        return cls(**{**doc, "stages": tuple(
            Stage(**{**s, "tasks": tuple(
                _task(t, share) for t in s.get("tasks", ())
            )})
            for s in doc["stages"]
        )})

    def save(self, path: str | Path) -> None:
        """Write ``json.dumps(self.to_json(), indent=2)`` and a newline,
        byte for byte, one task at a time. A value JSON cannot encode raises
        TypeError as ``json.dumps`` does, after the tasks before it."""
        with open(path, "w") as f:
            f.writelines(_document(self))

    @classmethod
    def load(cls, path: str | Path) -> "WorkflowSpec":
        """Raises ParseError naming the path for a file that cannot be
        read, is not JSON, lacks a required field or has a key that is not
        a field; field values are left for :func:`validate_workflow`."""
        try:
            return cls.from_json(json.loads(Path(path).read_text()))
        # ValueError: bad JSON or UTF-8; RecursionError: deep nesting;
        # KeyError, TypeError: a key missing or unknown, or a section of the
        # wrong type
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as e:
            raise ParseError(f"{path}: {e}") from e


# the keys of a task record
_FIELDS = frozenset(f.name for f in fields(TaskDescription))


def _task(record: object, share) -> TaskDescription:
    """``TaskDescription(**record)``, built by position from one pass over
    the record: the executable, and the strings of the arguments, pre_exec
    and tags, are ``share(value, value)``, and lists of arguments and
    pre_exec lines become tuples as they are read. A record the constructor
    rejects (not a mapping, a key that is not a field, no uid or no
    executable) raises the constructor's own TypeError."""
    if not (type(record) is dict or isinstance(record, Mapping)) or not (
        "uid" in record and "executable" in record
        and _FIELDS.issuperset(record)
    ):
        TaskDescription(**record)  # raises
    get = record.get
    executable = record["executable"]
    return TaskDescription(
        record["uid"],
        share(executable, executable) if type(executable) is str
        else executable,
        _shared_list(get("arguments", ()), share),
        _shared_list(get("pre_exec", ()), share),
        get("cpu_processes", 1),
        get("cpu_threads_per_process", 1),
        get("gpus_per_process", 0),
        get("expected_runtime_s"),
        _shared_tags(get("tags", {}), share),
    )


def _shared_list(value: object, share) -> object:
    """A list as a tuple of its items, each string ``share(v, v)``; any
    other value as it is."""
    if type(value) is not list:
        return value
    if not value:
        return ()
    return tuple([share(v, v) if type(v) is str else v for v in value])


def _shared_tags(value: object, share) -> object:
    """A dict whose string keys and values are ``share(v, v)``; an empty
    dict, or any other value, as it is: the constructor copies a dict."""
    if type(value) is not dict or not value:
        return value
    return {
        (share(k, k) if type(k) is str else k):
        (share(v, v) if type(v) is str else v)
        for k, v in value.items()
    }


def _value(v: object, depth: int) -> str:
    """``json.dumps(v, indent=2)`` as it reads ``depth`` levels deep in an
    indented document: the fixed schema's values directly, anything else
    through ``json.dumps`` with its inner lines indented. ``ensure_ascii``
    leaves no raw newline inside a string, so that indentation is exact."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:  # not bool, which json writes as true/false
        return int.__repr__(v)
    if t is float and math.isfinite(v):
        return float.__repr__(v)
    if v is None:
        return "null"
    if t is list:
        if not v:
            return "[]"
        if all(type(x) is str for x in v):
            pad = "\n" + "  " * depth
            return "[%s  %s%s]" % (
                pad, (",%s  " % pad).join(map(_quote, v)), pad
            )
    elif t is dict:
        if not v:
            return "{}"
        if all(type(k) is str and type(x) is str for k, x in v.items()):
            pad = "\n" + "  " * depth
            return "{%s  %s%s}" % (
                pad,
                (",%s  " % pad).join(
                    "%s: %s" % (_quote(k), _quote(x)) for k, x in v.items()
                ),
                pad,
            )
    return json.dumps(v, indent=2).replace("\n", "\n" + "  " * depth)


# one task of the document, its fields at depth 5 in to_json's order
_TASK = (
    "        {\n"
    '          "uid": %s,\n'
    '          "executable": %s,\n'
    '          "arguments": %s,\n'
    '          "pre_exec": %s,\n'
    '          "cpu_processes": %s,\n'
    '          "cpu_threads_per_process": %s,\n'
    '          "gpus_per_process": %s,\n'
    '          "expected_runtime_s": %s,\n'
    '          "tags": %s\n'
    "        }"
)


def _document(spec: WorkflowSpec) -> Iterator[str]:
    """The text :meth:`WorkflowSpec.save` writes, one task per chunk, with
    the conversions of :meth:`WorkflowSpec.to_json`."""
    yield '{\n  "name": %s,\n  "stages": [' % _value(spec.name, 1)
    sep = "\n"
    for s in spec.stages:
        yield '%s    {\n      "name": %s,\n      "tasks": [' % (
            sep, _value(s.name, 3)
        )
        tsep = "\n"
        for t in s.tasks:
            yield tsep + _TASK % (
                _value(t.uid, 5),
                _value(t.executable, 5),
                _value(list(t.arguments), 5),
                _value(list(t.pre_exec), 5),
                _value(t.cpu_processes, 5),
                _value(t.cpu_threads_per_process, 5),
                _value(t.gpus_per_process, 5),
                _value(t.expected_runtime_s, 5),
                _value(dict(t.tags), 5),
            )
            tsep = ",\n"
        yield "]\n    }" if tsep == "\n" else "\n      ]\n    }"
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def validate_workflow(spec: WorkflowSpec) -> list[str]:
    """Return every violation in the spec; the empty list means valid.

    Violations are data, not faults: duplicate uids, empty stages, and
    non-positive resource fields are all reported in one pass.
    """
    out: list[str] = []
    seen: set[str] = set()
    if not isinstance(spec.name, str):
        out.append(f"workflow name {spec.name!r} is not a string")
    if not spec.stages:
        out.append("workflow has no stages")
    for stage in spec.stages:
        if not isinstance(stage.name, str):
            out.append(f"stage name {stage.name!r} is not a string")
        if not stage.tasks:
            out.append(f"stage {stage.name} is empty")
        for task in stage.tasks:
            if isinstance(task.uid, str):  # else violations() names it
                if task.uid in seen:
                    out.append(f"duplicate uid {task.uid}")
                seen.add(task.uid)
            out.extend(task.violations())
    return out


def check_workflow(spec: WorkflowSpec) -> None:
    """Raise ValidationError listing every violation of the spec, if any."""
    violations = validate_workflow(spec)
    if violations:
        raise ValidationError("; ".join(violations))


class JobRun:
    """The stage progression of one job's pipelines.

    Both backends drive a job through it: :meth:`first_stages` gives the
    tasks eligible at the start, and :meth:`finish` records that a task
    ended and returns the tasks of the stage it opened. ``runs`` holds every
    :class:`TaskDescription` keyed by uid, in pipeline, stage, task order.
    Each task's state is its last event in the job's log. Only the pilot's
    drive loop mutates a job, on one thread.
    """

    def __init__(self, specs: Sequence[WorkflowSpec]):
        self.runs: dict[str, TaskDescription] = {}
        # per pipeline and stage: its tasks (_stages) and how many of them
        # have not ended yet (_left); _current[p] is pipeline p's earliest
        # stage with work left; _where holds the tasks not ended yet
        self._stages: list[list[tuple[TaskDescription, ...]]] = []
        self._where: dict[str, tuple[int, int]] = {}
        for p, spec in enumerate(specs):
            check_workflow(spec)
            for s, stage in enumerate(spec.stages):
                where = (p, s)  # one tuple for the stage's tasks
                for desc in stage.tasks:
                    if desc.uid in self.runs:
                        raise ConfigError(
                            f"task uid {desc.uid} appears in more than one "
                            f"pipeline of this job"
                        )
                    self.runs[desc.uid] = desc
                    self._where[desc.uid] = where
            self._stages.append([tuple(st.tasks) for st in spec.stages])
        self._left = [[len(st) for st in stages] for stages in self._stages]
        self._current = [0] * len(self._stages)

    def first_stages(self) -> tuple[TaskDescription, ...]:
        """The tasks of every pipeline's first stage, in pipeline order."""
        return tuple(desc for stages in self._stages for desc in stages[0])

    def finish(self, uid: str) -> tuple[TaskDescription, ...]:
        """Record that a task ended. When that leaves its pipeline's current
        stage with no task left, the pipeline moves on to its next stage
        with work left, whose tasks are returned; otherwise (). KeyError,
        changing nothing, for a uid that is not a task or ended already."""
        p, s = self._where.pop(uid)
        left = self._left[p]
        left[s] -= 1
        before = stage = self._current[p]
        while stage < len(left) and left[stage] == 0:
            stage += 1
        self._current[p] = stage
        if stage == before or stage == len(left):
            return ()
        return self._stages[p][stage]

    @property
    def all_terminal(self) -> bool:
        return not self._where
