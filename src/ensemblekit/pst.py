"""Pipeline-Stage-Task domain model.

A pipeline is an ordered sequence of stages; a stage is a set of independent
tasks. Stages run sequentially within a pipeline, tasks concurrently within a
stage, and pipelines concurrently with each other. This module holds the
static workflow description, its JSON form, the task lifecycle state machine,
and :class:`JobRun`, the one model of stage progression that both backends
drive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from ensemblekit.errors import (
    ConfigError,
    IllegalTransition,
    ParseError,
    ValidationError,
)


class TaskState(Enum):
    NEW = "NEW"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset({TaskState.DONE, TaskState.FAILED, TaskState.CANCELED})

# Allowed edges. CANCELED is additionally reachable from any non-terminal
# state (walltime expiry); terminal states absorb.
_EDGES: dict[TaskState, frozenset[TaskState]] = {
    TaskState.NEW: frozenset({TaskState.SCHEDULED, TaskState.CANCELED}),
    TaskState.SCHEDULED: frozenset({TaskState.RUNNING, TaskState.CANCELED}),
    TaskState.RUNNING: frozenset(
        {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED}
    ),
    TaskState.DONE: frozenset(),
    TaskState.FAILED: frozenset(),
    TaskState.CANCELED: frozenset(),
}


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
    return type(value) is tuple and all(isinstance(v, str) for v in value)


# the integer fields of a task and the least value of each
_COUNTS = (
    ("cpu_processes", 1),
    ("cpu_threads_per_process", 1),
    ("gpus_per_process", 0),
)


@dataclass(frozen=True)
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
    stage_name: str = ""
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
        for name, least in _COUNTS:
            reason = count_violation(name, getattr(self, name), least)
            if reason:
                out.append(f"task {uid}: {reason}")
        if not out and self.cpu_processes * max(
            self.cpu_threads_per_process, self.gpus_per_process
        ) > MAX_SLOTS:
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

    def __post_init__(self) -> None:
        # stage_name on each task mirrors the enclosing stage
        fixed = tuple(
            t if t.stage_name == self.name else replace(t, stage_name=self.name)
            for t in self.tasks
        )
        object.__setattr__(self, "tasks", fixed)


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

    def stage_index(self) -> dict[str, int]:
        """Map task uid to the index of its stage."""
        return {
            t.uid: i for i, stage in enumerate(self.stages) for t in stage.tasks
        }

    def to_json(self) -> dict:
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
        stages = tuple(
            Stage(
                name=s["name"],
                tasks=tuple(
                    TaskDescription(
                        uid=t["uid"],
                        executable=t["executable"],
                        arguments=t.get("arguments", ()),
                        pre_exec=t.get("pre_exec", ()),
                        cpu_processes=t.get("cpu_processes", 1),
                        cpu_threads_per_process=t.get(
                            "cpu_threads_per_process", 1
                        ),
                        gpus_per_process=t.get("gpus_per_process", 0),
                        expected_runtime_s=t.get("expected_runtime_s"),
                        stage_name=s["name"],
                        tags=t.get("tags", {}),
                    )
                    for t in s.get("tasks", ())
                ),
            )
            for s in doc["stages"]
        )
        return cls(name=doc["name"], stages=stages)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "WorkflowSpec":
        """Raises ParseError naming the path for a file that cannot be
        read, is not JSON, or lacks the workflow's keys; field values are
        left for :func:`validate_workflow`."""
        try:
            return cls.from_json(json.loads(Path(path).read_text()))
        # ValueError: bad JSON or UTF-8; RecursionError: deep nesting;
        # KeyError, TypeError: a key missing or a section of the wrong type
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as e:
            raise ParseError(f"{path}: {e}") from e


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


@dataclass
class TaskRun:
    """Runtime record of one task: state, assigned nodes, transition times."""

    desc: TaskDescription
    state: TaskState = TaskState.NEW
    node_ids: tuple[int, ...] = ()
    history: list[tuple[float, TaskState]] = field(default_factory=list)


def transition_task(run: TaskRun, to: TaskState, ts: float = 0.0) -> TaskRun:
    """Advance a task along a legal edge, recording the timestamp.

    Raises IllegalTransition naming both states for any other edge; terminal
    states absorb.
    """
    if to not in _EDGES[run.state]:
        raise IllegalTransition(
            f"task {run.desc.uid}: illegal transition "
            f"{run.state.value} -> {to.value}"
        )
    run.state = to
    run.history.append((ts, to))
    return run


class JobRun:
    """The mutable state of every task of one job's pipelines.

    Both backends drive a job through it: :meth:`first_stages` gives the
    tasks eligible at the start, and :meth:`finish` records a terminal state
    and returns the tasks of the stage it opened. ``runs`` holds every
    :class:`TaskRun` keyed by uid, in pipeline, stage, task order. Only the
    backend's event loop mutates a job; all mutation happens on one thread.
    """

    def __init__(self, specs: Sequence[WorkflowSpec]):
        self.runs: dict[str, TaskRun] = {}
        # per pipeline and stage: its runs (_stages) and how many of them are
        # not terminal yet (_left); _current[p] is pipeline p's earliest
        # stage with work left
        self._stages: list[list[tuple[TaskRun, ...]]] = []
        self._where: dict[str, tuple[int, int]] = {}
        for p, spec in enumerate(specs):
            check_workflow(spec)
            for s, stage in enumerate(spec.stages):
                for desc in stage.tasks:
                    if desc.uid in self.runs:
                        raise ConfigError(
                            f"task uid {desc.uid} appears in more than one "
                            f"pipeline of this job"
                        )
                    self.runs[desc.uid] = TaskRun(desc=desc)
                    self._where[desc.uid] = (p, s)
            self._stages.append(
                [tuple(self.runs[t.uid] for t in st.tasks) for st in spec.stages]
            )
        self._left = [[len(st) for st in stages] for stages in self._stages]
        self._current = [0] * len(self._stages)
        self._unfinished = len(self.runs)
        self._tally = dict.fromkeys(_TERMINAL, 0)

    def first_stages(self) -> tuple[TaskRun, ...]:
        """The tasks of every pipeline's first stage, in pipeline order."""
        return tuple(run for stages in self._stages for run in stages[0])

    def finish(
        self, uid: str, state: TaskState, ts: float = 0.0
    ) -> tuple[TaskRun, ...]:
        """Move a task to a terminal state. When that leaves its pipeline's
        current stage fully terminal, the pipeline moves on to its next
        stage with work left, whose NEW tasks are returned; otherwise ()."""
        if not state.terminal:
            raise IllegalTransition(
                f"task {uid}: {state.value} is not a terminal state"
            )
        transition_task(self.runs[uid], state, ts)
        self._unfinished -= 1
        self._tally[state] += 1
        p, s = self._where[uid]
        left = self._left[p]
        left[s] -= 1
        before = stage = self._current[p]
        while stage < len(left) and left[stage] == 0:
            stage += 1
        self._current[p] = stage
        if stage == before or stage == len(left):
            return ()
        return tuple(
            r for r in self._stages[p][stage] if r.state is TaskState.NEW
        )

    @property
    def all_terminal(self) -> bool:
        return self._unfinished == 0

    @property
    def tally(self) -> str:
        """Terminal-state counts as the JOB_END detail reports them."""
        n = self._tally
        return (
            f"done={n[TaskState.DONE]} failed={n[TaskState.FAILED]} "
            f"canceled={n[TaskState.CANCELED]}"
        )
