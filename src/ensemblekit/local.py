"""Local process backend: runs tasks as real subprocesses at desk scale.

Progresses stages through the same ``pst.JobRun`` as the simulator and places
tasks through the same slot table, on one node shaped like the platform's,
with ``max_parallel`` as an extra cap on running tasks. Each task's pre_exec
lines and executable run under one shell, with stdout/stderr captured per
task under the output directory. Emits the same event-log schema as the
simulator, with wall-clock timestamps relative to job start.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import time
from collections import deque
from pathlib import Path
from typing import Sequence

from ensemblekit import events as ev
from ensemblekit.errors import ConfigError
from ensemblekit.events import Event, EventLog
from ensemblekit.platform import PlatformConfig
from ensemblekit.pst import (
    JobRun,
    TaskDescription,
    TaskRun,
    TaskState,
    WorkflowSpec,
    transition_task,
)
from ensemblekit.scheduler import (
    SlotTable,
    release,
    schedule_head,
    task_footprints,
)

_POLL_INTERVAL_S = 0.005


def _compose_command(desc: TaskDescription) -> str:
    parts = list(desc.pre_exec)
    parts.append(shlex.join([desc.executable, *desc.arguments]))
    return " && ".join(parts)


def run_local(
    specs: Sequence[WorkflowSpec] | WorkflowSpec,
    platform: PlatformConfig,
    max_parallel: int,
    out_dir: str | Path,
) -> EventLog:
    """Execute pipelines as subprocesses, at most max_parallel at a time and
    never more than fit the cores and GPUs of one platform node.

    A task wider than that node raises Unplaceable before anything spawns.
    A nonzero exit becomes TASK_FAILED (with the exit code in the detail) and
    the pipeline still runs to JOB_END; a spawn failure is recorded the same
    way. Tasks run with the output directory as working directory, so
    relative paths hand files between stages.
    """
    if isinstance(specs, WorkflowSpec):
        specs = [specs]
    if max_parallel < 1:
        raise ConfigError("max_parallel must be >= 1")
    job = JobRun(specs)
    table = SlotTable(platform.node, 1)
    footprints = task_footprints(table, (r.desc for r in job.runs.values()))

    out_dir = Path(out_dir)
    log_dir = out_dir / "task-logs"
    log_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    now = lambda: time.monotonic() - t0

    log = EventLog()
    meta = {
        "backend": "local",
        "platform": platform.name,
        "allocation_nodes": 1,
        "cores_total": platform.node.cores_total,
        "cores_reserved": platform.node.cores_reserved,
        "gpus_per_node": platform.node.gpus,
        "bootstrap_s": 0.0,
        "walltime_s": None,
        "max_parallel": max_parallel,
    }
    log.append(Event(ts=0.0, kind=ev.JOB_START, detail=json.dumps(meta)))
    log.append(Event(ts=now(), kind=ev.BOOTSTRAP_DONE))

    queue: deque[TaskRun] = deque(job.first_stages())
    running: dict[str, tuple[TaskRun, subprocess.Popen, object, object]] = {}

    def spawn(run: TaskRun) -> None:
        desc = run.desc
        stdout = open(log_dir / f"{desc.uid}.out", "wb")
        stderr = open(log_dir / f"{desc.uid}.err", "wb")
        try:
            proc = subprocess.Popen(
                ["/bin/sh", "-c", _compose_command(desc)],
                stdout=stdout,
                stderr=stderr,
                cwd=out_dir,
            )
        except OSError as e:
            stdout.close()
            stderr.close()
            launched(run)
            finish(run, ev.TASK_FAILED, f"spawn_error: {e}")
            return
        launched(run)
        running[desc.uid] = (run, proc, stdout, stderr)

    def launched(run: TaskRun) -> None:
        ts = now()
        transition_task(run, TaskState.RUNNING, ts)
        log.append(
            Event(ts=ts, kind=ev.TASK_LAUNCHED, task_uid=run.desc.uid,
                  node_ids=run.node_ids)
        )

    def finish(run: TaskRun, kind: str, detail: str) -> None:
        uid = run.desc.uid
        ts = now()
        state = TaskState.DONE if kind == ev.TASK_DONE else TaskState.FAILED
        queue.extend(job.finish(uid, state, ts))
        release(table, table.placement_of(uid))
        log.append(
            Event(ts=ts, kind=kind, task_uid=uid, node_ids=run.node_ids,
                  detail=detail)
        )

    while queue or running:
        while queue and len(running) < max_parallel:
            run = schedule_head(table, footprints, queue, log, now())
            if run is None:
                break
            spawn(run)
        finished = [
            uid for uid, (_, proc, _, _) in running.items()
            if proc.poll() is not None
        ]
        for uid in finished:
            run, proc, stdout, stderr = running.pop(uid)
            stdout.close()
            stderr.close()
            rc = proc.returncode
            if rc == 0:
                finish(run, ev.TASK_DONE, "")
            else:
                finish(run, ev.TASK_FAILED, f"exit_code={rc}")
        if not finished and running:
            time.sleep(_POLL_INTERVAL_S)

    log.append(Event(ts=now(), kind=ev.JOB_END, detail=job.tally))
    return log
