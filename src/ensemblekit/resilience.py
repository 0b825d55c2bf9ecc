"""Order-preserving failure resubmission.

A failure is a task uid: the uids of a spec's tasks that a job's event log
ends FAILED (or CANCELED) are regrouped by their original stage, in
original stage order, into a fresh workflow with a right-sized allocation
request: enough nodes for full concurrency of the widest failed stage,
never more than the job it retries used. Why a task failed stays in the
log, in its terminal event's detail. Retries run as fresh jobs on a fresh
allocation, through an attempt runner the caller passes to
:func:`retry_loop`, so one protocol serves both backends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import (
    ConfigError,
    EmptyPlan,
    IncompleteLog,
    MalformedLog,
)
from ensemblekit.events import EventLog
from ensemblekit.platform import PlatformConfig, max_walltime_for, task_footprint
from ensemblekit.pst import Stage, WorkflowSpec


def collect_failures(
    log: EventLog, spec: WorkflowSpec, retry_canceled: bool = False
) -> list[str]:
    """The uids of the spec's tasks whose last event in this log is
    TASK_FAILED (or TASK_CANCELED when retry_canceled), in workflow order.
    DONE tasks never appear; tasks from other pipelines in the same log are
    ignored. MalformedLog, naming them, when tasks of the spec have no
    terminal event in the log."""
    if not log.complete:
        raise IncompleteLog("cannot collect failures from a log without JOB_END")
    retried = {ev.TASK_FAILED}
    if retry_canceled:
        retried.add(ev.TASK_CANCELED)
    failed, missing = [], []
    for task in spec.tasks():
        kind = log.last_kind(task.uid)
        if kind in retried:
            failed.append(task.uid)
        elif kind not in ev.TERMINAL_KINDS:
            missing.append(task.uid)
    if missing:
        raise MalformedLog(
            f"{len(missing)} tasks of workflow {spec.name} have no terminal "
            f"event in the log: {' '.join(missing)}"
        )
    return failed


@dataclass
class ResubmissionPlan:
    """A runnable retry workflow plus its allocation request."""

    workflow: WorkflowSpec
    nodes: int
    walltime_s: float

    def save(self, path: str | Path, attempt: int, parent_log: str) -> None:
        path = Path(path)
        self.workflow.save(path)
        sidecar = {
            "attempt": attempt,
            "parent_log": parent_log,
            "allocation": {"nodes": self.nodes, "walltime_s": self.walltime_s},
        }
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(sidecar, indent=2) + "\n"
        )


def plan_resubmission(
    failed: Sequence[str],
    spec: WorkflowSpec,
    platform: PlatformConfig,
    job_nodes: int,
) -> ResubmissionPlan:
    """Rebuild the tasks whose uids are ``failed`` into a smaller job
    preserving stage order.

    The allocation is sized for full concurrency of the widest failed stage
    and capped by ``job_nodes``, the allocation of the job that failed them;
    the walltime comes from the policy table.
    """
    if not failed:
        raise EmptyPlan("no failed tasks to plan from")
    failed_uids = set(failed)
    unknown = failed_uids - {t.uid for t in spec.tasks()}
    if unknown:
        raise MalformedLog(f"failures name unknown tasks: {sorted(unknown)}")

    stages = []
    widths = []
    for stage in spec.stages:
        tasks = tuple(t for t in stage.tasks if t.uid in failed_uids)
        if not tasks:
            continue
        stages.append(Stage(name=stage.name, tasks=tasks))
        widths.append(
            sum(task_footprint(t, platform.node)[0] for t in tasks)
        )

    nodes = min(job_nodes, max(widths))
    walltime_s = max_walltime_for(platform.policy, nodes)
    return ResubmissionPlan(
        workflow=WorkflowSpec(name=f"{spec.name}-retry", stages=tuple(stages)),
        nodes=nodes,
        walltime_s=walltime_s,
    )


RunAttempt = Callable[[WorkflowSpec, int, int, Optional[float]], EventLog]


# returns (logs, unresolved): perfbench/tracer.py reads the logs from r[0]
def retry_loop(
    spec: WorkflowSpec,
    platform: PlatformConfig,
    run_attempt: RunAttempt,
    nodes: int,
    walltime_s: Optional[float],
    max_attempts: int,
    retry_canceled: bool = False,
) -> tuple[list[EventLog], list[str]]:
    """Run a job, then re-submit its failures as a fresh smaller job until
    clean or out of attempts. Returns all logs and the uids still failed.

    ``run_attempt(spec, attempt, nodes, walltime_s)`` runs attempt
    ``attempt`` (from 1) as a fresh job on its own backend and returns its
    log. Attempt 1 gets ``nodes`` and ``walltime_s`` (None for a backend
    without a walltime); a retry gets the nodes its plan needs, never more
    than the job it retries, and the policy walltime for them.
    """
    if max_attempts < 1:
        raise ConfigError("max_attempts must be >= 1")
    logs: list[EventLog] = []
    for attempt in range(1, max_attempts + 1):
        log = run_attempt(spec, attempt, nodes, walltime_s)
        logs.append(log)
        failed = collect_failures(log, spec, retry_canceled)
        if not failed or attempt == max_attempts:
            break
        plan = plan_resubmission(failed, spec, platform, nodes)
        spec, nodes, walltime_s = plan.workflow, plan.nodes, plan.walltime_s
    return logs, failed
