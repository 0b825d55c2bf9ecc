"""Local process backend: runs tasks as real subprocesses at desk scale.

Runs a job through the same :class:`~ensemblekit.scheduler.Pilot` as the
simulator, on one node shaped like the platform's, with ``max_parallel`` as
an extra cap on running tasks; this module only spawns tasks, polls them and
reaps them. Each task's pre_exec lines and executable run under one shell,
with stdout/stderr captured per task under the output directory. Emits the
same event-log schema as the simulator, with wall-clock timestamps relative
to job start.
"""

from __future__ import annotations

import shlex
import subprocess
import time
from pathlib import Path
from typing import Sequence

from ensemblekit import events as ev
from ensemblekit.errors import ConfigError
from ensemblekit.events import EventLog
from ensemblekit.platform import PlatformConfig
from ensemblekit.pst import TaskDescription, TaskRun, WorkflowSpec
from ensemblekit.scheduler import Pilot

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
    pilot = Pilot(specs, platform, 1, backend="local", max_parallel=max_parallel)

    out_dir = Path(out_dir)
    log_dir = out_dir / "task-logs"
    log_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    now = lambda: time.monotonic() - t0

    pilot.boot(now())
    running: dict[str, tuple[subprocess.Popen, object, object]] = {}

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
            pilot.launch(run, now())
            pilot.finish(desc.uid, ev.TASK_FAILED, now(), f"spawn_error: {e}")
            return
        pilot.launch(run, now())
        running[desc.uid] = (proc, stdout, stderr)

    while pilot.queue or running:
        while len(running) < max_parallel and (
            (run := pilot.place(now())) is not None
        ):
            spawn(run)
        finished = [
            uid for uid, (proc, _, _) in running.items()
            if proc.poll() is not None
        ]
        for uid in finished:
            proc, stdout, stderr = running.pop(uid)
            stdout.close()
            stderr.close()
            rc = proc.returncode
            if rc == 0:
                pilot.finish(uid, ev.TASK_DONE, now())
            else:
                pilot.finish(uid, ev.TASK_FAILED, now(), f"exit_code={rc}")
        if not finished and running:
            time.sleep(_POLL_INTERVAL_S)

    pilot.end(now())
    return pilot.log
