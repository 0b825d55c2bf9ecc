"""Local process backend: runs tasks as real subprocesses at desk scale.

Runs a job through the same :class:`~ensemblekit.scheduler.Pilot` as the
simulator, on one node shaped like the platform's, with ``max_parallel`` as
an extra cap on running tasks; this module only spawns tasks, waits on
their exits and reaps them. The wait blocks on one pidfd per child (Linux
>= 5.3), so a slot is refilled the moment any task ends. Each task's
pre_exec lines and executable run under one shell, in a session of their
own, with stdout/stderr captured per task under the output directory.
Emits the same event-log schema as the simulator, with wall-clock
timestamps relative to job start.
"""

from __future__ import annotations

import os
import selectors
import shlex
import signal
import subprocess
import time
from pathlib import Path
from typing import Sequence

from ensemblekit import events as ev
from ensemblekit.errors import ConfigError, Interrupted
from ensemblekit.events import EventLog
from ensemblekit.platform import PlatformConfig
from ensemblekit.pst import TaskDescription, TaskRun, WorkflowSpec
from ensemblekit.scheduler import Pilot

# how long an interrupted task's process group gets to exit after SIGTERM
# before its leader is sent SIGKILL
_TERM_GRACE_S = 2.0

# uid -> (the task's shell, the pidfd that turns readable when it exits)
_Running = dict[str, tuple[subprocess.Popen, int]]


def _compose_command(desc: TaskDescription) -> str:
    parts = list(desc.pre_exec)
    parts.append(shlex.join([desc.executable, *desc.arguments]))
    return " && ".join(parts)


def _reap(selector: selectors.BaseSelector, running: _Running, uid: str) -> int:
    """Forget a task's pidfd and wait for its shell; its exit code."""
    proc, pidfd = running.pop(uid)
    selector.unregister(pidfd)
    os.close(pidfd)
    return proc.wait()


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def _stop(selector: selectors.BaseSelector, running: _Running) -> None:
    """Terminate every running task's process group and reap its shell,
    killing a shell still alive after :data:`_TERM_GRACE_S`."""
    for proc, _ in running.values():
        _signal_group(proc, signal.SIGTERM)
    deadline = time.monotonic() + _TERM_GRACE_S
    while running and (left := deadline - time.monotonic()) > 0:
        for key, _ in selector.select(left):
            _reap(selector, running, key.data)
    for uid in list(running):
        _signal_group(running[uid][0], signal.SIGKILL)
        _reap(selector, running, uid)


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

    A KeyboardInterrupt (SIGINT) terminates and reaps the running tasks,
    cancels every task not yet terminal with detail ``interrupted``, logs
    JOB_END and raises :class:`~ensemblekit.errors.Interrupted` carrying
    that complete log.
    """
    if isinstance(specs, WorkflowSpec):
        specs = [specs]
    if max_parallel < 1:
        raise ConfigError("max_parallel must be >= 1")
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError) as e:
        raise ConfigError(
            f"the local backend needs os.pidfd_open (Linux >= 5.3): {e}"
        ) from e
    pilot = Pilot(specs, platform, 1, backend="local", max_parallel=max_parallel)

    out_dir = Path(out_dir)
    log_dir = out_dir / "task-logs"
    log_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    now = lambda: time.monotonic() - t0

    pilot.boot(now())
    selector = selectors.DefaultSelector()
    running: _Running = {}

    def spawn(run: TaskRun) -> None:
        desc = run.desc
        try:
            # the child holds its own copies of the log files' descriptors
            with open(log_dir / f"{desc.uid}.out", "wb") as stdout, open(
                log_dir / f"{desc.uid}.err", "wb"
            ) as stderr:
                proc = subprocess.Popen(
                    ["/bin/sh", "-c", _compose_command(desc)],
                    stdout=stdout,
                    stderr=stderr,
                    cwd=out_dir,
                    start_new_session=True,
                )
        except OSError as e:
            pilot.launch(run, now())
            pilot.finish(desc.uid, ev.TASK_FAILED, now(), f"spawn_error: {e}")
            return
        pilot.launch(run, now())
        pidfd = os.pidfd_open(proc.pid)
        running[desc.uid] = (proc, pidfd)
        selector.register(pidfd, selectors.EVENT_READ, desc.uid)

    interrupted = False
    try:
        while True:
            while len(running) < max_parallel and (
                (run := pilot.place(now())) is not None
            ):
                spawn(run)
            if not running:
                break
            for key, _ in selector.select():
                rc = _reap(selector, running, key.data)
                if rc == 0:
                    pilot.finish(key.data, ev.TASK_DONE, now())
                else:
                    pilot.finish(
                        key.data, ev.TASK_FAILED, now(), f"exit_code={rc}"
                    )
    except KeyboardInterrupt:
        interrupted = True
    finally:
        _stop(selector, running)
        selector.close()

    if interrupted:
        pilot.cancel_all(now(), "interrupted")
        pilot.end(now())
        raise Interrupted(f"run interrupted: {pilot.job.tally}", pilot.log)
    pilot.end(now())
    return pilot.log
