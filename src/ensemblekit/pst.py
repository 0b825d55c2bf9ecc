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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from ensemblekit.errors import ConfigError, IllegalTransition


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


@dataclass(frozen=True)
class TaskDescription:
    """One self-contained executable with its resource requirements.

    ``cpu_processes`` counts MPI ranks, ``cpu_threads_per_process`` cores per
    rank, ``gpus_per_process`` GPUs per rank. ``pre_exec`` holds shell lines
    run before the executable to prepare the environment.
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
        object.__setattr__(self, "arguments", tuple(self.arguments))
        object.__setattr__(self, "pre_exec", tuple(self.pre_exec))
        object.__setattr__(self, "tags", dict(self.tags))

    def violations(self) -> list[str]:
        out = []
        if not self.uid:
            out.append("task has empty uid")
        if not self.executable:
            out.append(f"task {self.uid}: executable is empty")
        if self.cpu_processes < 1:
            out.append(f"task {self.uid}: cpu_processes must be >= 1")
        if self.cpu_threads_per_process < 1:
            out.append(f"task {self.uid}: cpu_threads_per_process must be >= 1")
        if self.gpus_per_process < 0:
            out.append(f"task {self.uid}: gpus_per_process must be >= 0")
        if self.expected_runtime_s is not None and self.expected_runtime_s <= 0:
            out.append(f"task {self.uid}: expected_runtime_s must be > 0")
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
                        arguments=tuple(t.get("arguments", ())),
                        pre_exec=tuple(t.get("pre_exec", ())),
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
        return cls.from_json(json.loads(Path(path).read_text()))


def validate_workflow(spec: WorkflowSpec) -> list[str]:
    """Return every violation in the spec; the empty list means valid.

    Violations are data, not faults: duplicate uids, empty stages, and
    non-positive resource fields are all reported in one pass.
    """
    out: list[str] = []
    seen: set[str] = set()
    if not spec.stages:
        out.append("workflow has no stages")
    for stage in spec.stages:
        if not stage.tasks:
            out.append(f"stage {stage.name} is empty")
        for task in stage.tasks:
            if task.uid in seen:
                out.append(f"duplicate uid {task.uid}")
            seen.add(task.uid)
            out.extend(task.violations())
    return out


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
            violations = validate_workflow(spec)
            if violations:
                raise ConfigError(
                    f"workflow {spec.name} invalid: " + "; ".join(violations)
                )
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
