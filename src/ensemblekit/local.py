"""Local process backend: runs tasks as real subprocesses at desk scale.

The backend that one job's :class:`~ensemblekit.scheduler.Pilot` drives
with wall-clock time, through the same drive loop as the simulator, on one
node shaped like the platform's, with ``max_parallel`` as an extra cap on
running tasks; this module only spawns tasks, waits on their exits and
reaps them. The wait blocks on one pidfd per child (Linux >= 5.3), so a
slot is refilled the moment any task ends.

A task without pre_exec lines is exec'd directly as ``[executable,
*arguments]``, with no shell in between; a task with them runs ``/bin/sh
-c "pre && ... && <quoted command>"``. Either way the task runs in a
session of its own, in the output directory, with the runner's environment
except that ``PWD`` names that directory's real path, and with
stdout/stderr captured per task under the output directory. An executable
that cannot be exec'd (missing, not executable, a script without ``#!``)
fails the task with detail ``spawn_error: <OSError>``; a task killed by
signal N fails with ``exit_code=-N``.
Emits the same event-log schema as the simulator, with wall-clock
timestamps relative to job start.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import shlex
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Sequence

from ensemblekit import events as ev
from ensemblekit.errors import ConfigError, Interrupted
from ensemblekit.events import EventLog
from ensemblekit.platform import PlatformConfig
from ensemblekit.pst import TaskDescription, WorkflowSpec
from ensemblekit.scheduler import Pilot

# how long an interrupted task's process group gets to exit after SIGTERM
# before its leader is sent SIGKILL
_TERM_GRACE_S = 2.0


def _argv(desc: TaskDescription) -> list[str]:
    """The task's command itself, or, with pre_exec lines, one shell that
    runs them and then the command."""
    command = [desc.executable, *desc.arguments]
    if not desc.pre_exec:
        return command
    line = " && ".join([*desc.pre_exec, shlex.join(command)])
    return ["/bin/sh", "-c", line]


def _name_max(path: Path) -> int:
    """The longest file name, in bytes, that the nearest existing directory
    of ``path`` takes; -1 where the file system sets none or cannot say."""
    while not path.is_dir() and path != path.parent:
        path = path.parent
    try:
        return os.pathconf(path, "PC_NAME_MAX")
    except OSError:
        return -1


def _check_startable(desc: TaskDescription, name_max: int) -> None:
    """ConfigError, naming the task and the field, unless the uid can name
    the task's log files and each string of its command can reach exec: a
    string that holds NUL or that :func:`os.fsencode` cannot encode, or a
    uid that holds ``/`` or whose ``<uid>.out`` is longer than ``name_max``
    bytes (no limit when negative)."""
    fields = [("uid", desc.uid), ("executable", desc.executable)]
    fields += [("argument", arg) for arg in desc.arguments]
    fields += [("pre_exec line", line) for line in desc.pre_exec]
    for name, text in fields:
        try:
            size = len(os.fsencode(text))
        except UnicodeEncodeError as e:
            reason = f"cannot be encoded: {e.reason}"
        else:
            if "\0" in text:
                reason = "holds NUL"
            elif name == "uid" and "/" in text:
                reason = "holds '/', so it cannot name a log file"
            elif name == "uid" and 0 <= name_max < size + len(".out"):
                reason = (
                    f"is {size} bytes, too long to name a log file: the "
                    f"output directory takes names of at most {name_max} bytes"
                )
            else:
                continue
        raise ConfigError(f"task {desc.uid!r}: {name} {text!r} {reason}")


@contextlib.contextmanager
def _held(signals: list[int]):
    """Run the block with each of signals recorded instead of handled; then
    restore their handlers and raise the first one recorded again."""
    caught: list[int] = []
    previous = {}
    try:
        for sig in signals:
            previous[sig] = signal.signal(
                sig, lambda signum, frame: caught.append(signum)
            )
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if caught:
            signal.raise_signal(caught[0])


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


class _Processes:
    """The backend a local job's :class:`Pilot` drives: each placed task
    runs as a subprocess, at most ``max_parallel`` at a time, and
    :meth:`advance` waits on their pidfds for the next exits."""

    def __init__(self, pilot: Pilot, out_dir: Path, max_parallel: int):
        self.pilot = pilot
        self.out_dir = out_dir
        self.log_dir = out_dir / "task-logs"
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.max_parallel = max_parallel
        # the runner's environment with the PWD that a shell started in the
        # output directory would export; bytes, so that Popen's encoding of
        # every variable for every task has nothing to convert
        pwd = os.fsencode(os.path.realpath(out_dir))
        self.env = {**os.environb, b"PWD": pwd}
        self.selector = selectors.DefaultSelector()
        # uid -> (the task's process, the pidfd that turns readable at its exit)
        self.running: dict[str, tuple[subprocess.Popen, int]] = {}
        # the signals whose Python handlers (KeyboardInterrupt) start holds
        # off; none off the main thread, where no handler runs
        self.held = [
            sig for sig in (signal.SIGINT, signal.SIGTERM)
            if threading.current_thread() is threading.main_thread()
            and callable(signal.getsignal(sig))
        ]
        self.t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self.t0

    def ready(self) -> bool:
        return len(self.running) < self.max_parallel

    def start(self, desc: TaskDescription) -> None:
        """Spawn a placed task and log its launch; a spawn that fails, or a
        child that cannot be waited on, launches and fails the task. A
        signal in :attr:`held` is raised only once the child is in
        :attr:`running`, so that :meth:`stop` kills every forked child."""
        with _held(self.held):
            try:
                # the child holds its own copies of the log files' descriptors
                out = self.log_dir / f"{desc.uid}.out"
                err = self.log_dir / f"{desc.uid}.err"
                with open(out, "wb") as stdout, open(err, "wb") as stderr:
                    proc = subprocess.Popen(
                        _argv(desc),
                        stdout=stdout,
                        stderr=stderr,
                        cwd=self.out_dir,
                        env=self.env,
                        start_new_session=True,
                    )
                self._watch(desc.uid, proc)
            except OSError as e:
                self.pilot.launch(desc.uid, self.now())
                self.pilot.finish(
                    desc.uid, ev.TASK_FAILED, self.now(), f"spawn_error: {e}"
                )
                return
            self.pilot.launch(desc.uid, self.now())

    def _watch(self, uid: str, proc: subprocess.Popen) -> None:
        """Wait on a new child through its pidfd; if that cannot be set up,
        kill the child's process group, reap the child and re-raise."""
        pidfd = -1
        try:
            pidfd = os.pidfd_open(proc.pid)
            self.selector.register(pidfd, selectors.EVENT_READ, uid)
        except BaseException:
            if pidfd >= 0:
                os.close(pidfd)
            _signal_group(proc, signal.SIGKILL)
            proc.wait()
            raise
        self.running[uid] = (proc, pidfd)

    def advance(self) -> None:
        """Wait until tasks exit and finish each by its exit code; with no
        task running (the last one failed to spawn) there is nothing to
        wait for."""
        for key, _ in self.selector.select() if self.running else ():
            if (rc := self._reap(key.data)) == 0:
                self.pilot.finish(key.data, ev.TASK_DONE, self.now())
            else:
                self.pilot.finish(
                    key.data, ev.TASK_FAILED, self.now(), f"exit_code={rc}"
                )

    def _reap(self, uid: str) -> int:
        """Forget a task's pidfd and reap its process; its exit code."""
        proc, pidfd = self.running.pop(uid)
        self.selector.unregister(pidfd)
        os.close(pidfd)
        return proc.wait()

    def stop(self) -> None:
        """Terminate every running task's process group and reap its leader,
        killing a leader still alive after :data:`_TERM_GRACE_S`; then close
        the selector."""
        running = self.running
        for proc, _ in running.values():
            _signal_group(proc, signal.SIGTERM)
        deadline = time.monotonic() + _TERM_GRACE_S
        while running and (left := deadline - time.monotonic()) > 0:
            for key, _ in self.selector.select(left):
                self._reap(key.data)
        for uid in list(running):
            _signal_group(running[uid][0], signal.SIGKILL)
            self._reap(uid)
        self.selector.close()


def run_local(
    specs: Sequence[WorkflowSpec] | WorkflowSpec,
    platform: PlatformConfig,
    max_parallel: int,
    out_dir: str | Path,
) -> EventLog:
    """Execute pipelines as subprocesses, at most max_parallel at a time and
    never more than fit the cores and GPUs of one platform node.

    A task wider than that node raises Unplaceable, and one that could not
    start (:func:`_check_startable`) ConfigError, before anything spawns.
    A nonzero exit becomes TASK_FAILED (detail ``exit_code=N``, negative for
    a signal) and the pipeline still runs to JOB_END; a spawn failure is
    recorded the same way, with detail ``spawn_error: <OSError>``. Tasks run
    with the output directory as working directory, so relative paths hand
    files between stages.

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
    name_max = _name_max(out_dir)
    for desc in pilot.job.runs.values():
        _check_startable(desc, name_max)
    processes = _Processes(pilot, out_dir, max_parallel)
    pilot.boot(processes.now())
    interrupted = False
    try:
        pilot.drive(processes)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        processes.stop()

    if interrupted:
        if not pilot.log.complete:  # else the interrupt came after JOB_END
            pilot.cancel_all(processes.now(), "interrupted")
            pilot.end(processes.now())
        raise Interrupted(f"run interrupted: {pilot.tally}", pilot.log)
    return pilot.log
