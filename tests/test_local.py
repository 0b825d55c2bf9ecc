import errno
import json
import os
import selectors
import signal
import subprocess
import sys
import time

import pytest

from ensemblekit import events as ev
from ensemblekit import local as local_backend
from ensemblekit.errors import ConfigError, Interrupted, Unplaceable
from ensemblekit.events import EventLog
from ensemblekit.local import run_local
from ensemblekit.metrics import compute_utilization, concurrency_series
from ensemblekit.platform import get_profile, usable_cores
from ensemblekit.pst import Stage, TaskDescription, WorkflowSpec
from ensemblekit.scheduler import Pilot
from conftest import events_by_task, make_task, single_stage, small_platform


def sh_task(uid, script, **kw):
    return TaskDescription(
        uid=uid, executable="/bin/sh", arguments=("-c", script), **kw
    )


@pytest.fixture
def local():
    return get_profile("local")


def test_stage_ordering_hands_files_downstream(local, tmp_path):
    wf = WorkflowSpec(
        name="handoff",
        stages=(
            Stage(name="write", tasks=(sh_task("writer", "echo payload > stage1.txt"),)),
            Stage(
                name="read",
                tasks=(sh_task("reader", "test -f stage1.txt && cat stage1.txt"),),
            ),
        ),
    )
    log = run_local(wf, local, 2, tmp_path)
    assert {e.task_uid for e in log if e.kind == ev.TASK_DONE} == {
        "writer",
        "reader",
    }
    assert (tmp_path / "stage1.txt").read_text() == "payload\n"
    out = (tmp_path / "task-logs" / "reader.out").read_text()
    assert out == "payload\n"


def test_failing_command_is_terminal_not_fatal(local, tmp_path):
    wf = WorkflowSpec(
        name="partial",
        stages=(
            Stage(
                name="s0",
                tasks=(sh_task("bad", "exit 1"), sh_task("good", "true")),
            ),
            Stage(name="s1", tasks=(sh_task("after", "true"),)),
        ),
    )
    log = run_local(wf, local, 2, tmp_path)
    fail = next(e for e in log if e.kind == ev.TASK_FAILED)
    assert fail.task_uid == "bad"
    assert fail.detail == "exit_code=1"
    # the pipeline proceeded past the failure and the job ended
    assert any(e.kind == ev.TASK_DONE and e.task_uid == "after" for e in log)
    assert log.complete


def test_missing_executable_recorded_as_failure(local, tmp_path):
    wf = single_stage("s", [make_task("ghost", executable="/no/such/binary")])
    log = run_local(wf, local, 1, tmp_path)
    fail = next(e for e in log if e.kind == ev.TASK_FAILED)
    assert fail.task_uid == "ghost"
    assert fail.detail == (
        f"spawn_error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
        "'/no/such/binary'"
    )


def py_task(uid, code, *args, **kw):
    return TaskDescription(
        uid=uid, executable=sys.executable, arguments=("-c", code, *args), **kw
    )


def _stdout(out_dir, uid):
    return (out_dir / "task-logs" / f"{uid}.out").read_text()


def test_a_task_without_pre_exec_is_a_child_of_the_runner(local, tmp_path):
    wf = single_stage("s", [
        py_task("direct", "import os; print(os.getppid())"),
        sh_task("sh", "echo $PPID"),
    ])
    log = run_local(wf, local, 2, tmp_path)
    assert log[-1].detail == "done=2 failed=0 canceled=0"
    for uid in ("direct", "sh"):
        assert _stdout(tmp_path, uid) == f"{os.getpid()}\n"


@pytest.mark.parametrize("pre_exec", [(), ("true",)])
def test_arguments_arrive_verbatim(local, tmp_path, pre_exec):
    args = ("two words", "it's", '"quoted"', "$HOME", "*", "")
    wf = single_stage("s", [py_task(
        "argv", "import json, sys; print(json.dumps(sys.argv[1:]))", *args,
        pre_exec=pre_exec,
    )])
    log = run_local(wf, local, 1, tmp_path)
    assert log[-1].detail == "done=1 failed=0 canceled=0"
    assert json.loads(_stdout(tmp_path, "argv")) == list(args)


@pytest.mark.parametrize("pre_exec", [(), ("true",)])
def test_pwd_is_the_real_path_of_the_output_directory(
    local, tmp_path, pre_exec
):
    real = tmp_path / "real"
    real.mkdir()
    link = tmp_path / "link"
    link.symlink_to(real)
    wf = single_stage("s", [py_task(
        "pwd", "import os; print(os.environ['PWD'], os.getcwd())",
        pre_exec=pre_exec,
    )])
    run_local(wf, local, 1, link)
    expected = os.path.realpath(real)
    assert _stdout(real, "pwd") == f"{expected} {expected}\n"


def test_a_script_without_a_shebang_is_a_spawn_error(local, tmp_path):
    script = tmp_path / "no-shebang"
    script.write_text("true\n")
    script.chmod(0o755)
    wf = single_stage("s", [make_task("script", executable=str(script))])
    log = run_local(wf, local, 1, tmp_path)
    assert [e.kind for e in log if e.task_uid == "script"] == [
        ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_FAILED
    ]
    assert log[-2].detail.startswith(f"spawn_error: [Errno {errno.ENOEXEC}] ")


def test_missing_executable_after_pre_exec_is_the_shells_127(local, tmp_path):
    wf = single_stage("s", [make_task(
        "ghost", executable="/no/such/binary", pre_exec=("true",)
    )])
    log = run_local(wf, local, 1, tmp_path)
    assert log[-2].kind == ev.TASK_FAILED
    assert log[-2].detail == "exit_code=127"


def test_a_task_killed_by_a_signal_records_its_negative(local, tmp_path):
    wf = single_stage("s", [py_task(
        "killed", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"
    )])
    log = run_local(wf, local, 1, tmp_path)
    assert log[-2].kind == ev.TASK_FAILED
    assert log[-2].detail == f"exit_code=-{signal.SIGKILL}"


def test_spawn_failure_fails_the_task_and_frees_its_slots(
    tmp_path, monkeypatch
):
    # an 8-core node fits all three tasks at once, so a leaked slot shows
    # in the table at the end instead of stalling the run
    host = small_platform(cores=8, nodes=1)
    real_popen = subprocess.Popen

    def popen(argv, **kw):
        if "unspawnable" in argv[-1]:
            raise OSError(12, "Cannot allocate memory")
        return real_popen(argv, **kw)

    pilots = []

    class RecordingPilot(Pilot):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            pilots.append(self)

    monkeypatch.setattr(local_backend.subprocess, "Popen", popen)
    monkeypatch.setattr(local_backend, "Pilot", RecordingPilot)
    wf = single_stage(
        "s",
        [sh_task("boom", "echo unspawnable"), sh_task("a", "true"),
         sh_task("b", "true")],
    )
    log = run_local(wf, host, 2, tmp_path)
    boom = [e for e in log if e.task_uid == "boom"]
    assert [e.kind for e in boom] == [
        ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_FAILED
    ]
    assert boom[-1].detail.startswith("spawn_error: ")
    # its slots went back to the table and the other tasks ran
    (pilot,) = pilots
    assert pilot.table.placement_of("boom") is None
    assert pilot.table.free_cores == [8]
    assert {e.task_uid for e in log if e.kind == ev.TASK_DONE} == {"a", "b"}
    assert log[-1].kind == ev.JOB_END
    assert log[-1].detail == "done=2 failed=1 canceled=0"
    assert list(json.loads(log[0].detail)) == [
        "backend", "platform", "allocation_nodes", "cores_total",
        "cores_reserved", "gpus_per_node", "bootstrap_s", "walltime_s",
        "max_parallel",
    ]


class _UnwatchableSelector(selectors.DefaultSelector):
    def register(self, fileobj, events, data=None):
        if data == "sleeper":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().register(fileobj, events, data)


@pytest.mark.parametrize("fails", ["pidfd_open", "register"])
def test_a_child_that_cannot_be_watched_is_killed_and_failed(
    tmp_path, monkeypatch, fails
):
    # the second task spawns, but its pidfd cannot be opened or watched:
    # its child is killed and reaped, and the run goes on to a full log
    host = small_platform(cores=8, nodes=1)
    real_popen, real_pidfd_open = subprocess.Popen, os.pidfd_open
    children = {}

    def popen(argv, **kw):
        proc = real_popen(argv, **kw)
        children[argv[0]] = proc
        return proc

    def pidfd_open(pid, *args):
        if "sleep" in children and children["sleep"].pid == pid:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real_pidfd_open(pid, *args)

    monkeypatch.setattr(local_backend.subprocess, "Popen", popen)
    if fails == "pidfd_open":
        monkeypatch.setattr(local_backend.os, "pidfd_open", pidfd_open)
    else:
        monkeypatch.setattr(
            local_backend.selectors, "DefaultSelector", _UnwatchableSelector
        )
    wf = single_stage("s", [
        make_task("a", executable="/bin/true"),
        make_task("sleeper", executable="sleep", arguments=("30",)),
        make_task("b", executable="/bin/true"),
    ])
    before = _open_fds()
    start = time.monotonic()
    log = run_local(wf, host, 2, tmp_path)
    assert time.monotonic() - start < 10
    assert _open_fds() == before
    sleeper = [e for e in log if e.task_uid == "sleeper"]
    assert [e.kind for e in sleeper] == [
        ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_FAILED
    ]
    code = errno.EMFILE if fails == "pidfd_open" else errno.ENOSPC
    assert sleeper[-1].detail.startswith(f"spawn_error: [Errno {code}] ")
    # the child was killed and reaped, not left running
    assert children["sleep"].returncode == -signal.SIGKILL
    assert log[-1].kind == ev.JOB_END
    assert log[-1].detail == "done=2 failed=1 canceled=0"


def test_without_a_name_limit_a_long_uid_fails_as_it_spawns(
    local, tmp_path, monkeypatch
):
    # where the file system cannot say how long a name it takes, run checks
    # no uid length up front: a uid too long to name its log file is tried,
    # and fails the task as it spawns
    uid = "u" * os.pathconf(tmp_path, "PC_NAME_MAX")  # <uid>.out is too long

    def pathconf(path, name):
        raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

    monkeypatch.setattr(local_backend.os, "pathconf", pathconf)
    assert local_backend._name_max(tmp_path) == -1
    wf = single_stage("s", [sh_task(uid, "touch spawned")])
    log = run_local(wf, local, 1, tmp_path / "out")
    assert log.last_kind(uid) == ev.TASK_FAILED
    assert log[-2].detail.startswith(
        f"spawn_error: [Errno {errno.ENAMETOOLONG}]"
    )
    assert not (tmp_path / "out" / "spawned").exists()


def test_signalling_the_group_of_a_reaped_child_is_quiet():
    # once its leader is reaped, the child's process group is gone; signal
    # 0 sends nothing, should the pid be taken again meanwhile
    proc = subprocess.Popen(["/bin/true"], start_new_session=True)
    proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    local_backend._signal_group(proc, 0)


def test_concurrency_never_exceeds_max_parallel(local, tmp_path):
    wf = single_stage(
        "sleeps", [sh_task(f"s{i}", "sleep 0.05") for i in range(10)]
    )
    log = run_local(wf, local, 3, tmp_path)
    series = concurrency_series(log)
    assert max(p.n_running for p in series.points) <= 3
    assert sum(1 for e in log if e.kind == ev.TASK_DONE) == 10


def test_pre_exec_runs_before_executable(local, tmp_path):
    task = TaskDescription(
        uid="prep",
        executable="/bin/sh",
        arguments=("-c", "test -f prepared.txt"),
        pre_exec=("touch prepared.txt",),
    )
    log = run_local(single_stage("s", [task]), local, 1, tmp_path)
    assert any(e.kind == ev.TASK_DONE for e in log)


def test_log_round_trips_same_schema(local, tmp_path):
    wf = single_stage("s", [sh_task("a", "true")])
    log = run_local(wf, local, 1, tmp_path)
    path = tmp_path / "events.jsonl"
    log.save_jsonl(path)
    loaded = EventLog.load_jsonl(path)
    assert [e.kind for e in loaded] == [e.kind for e in log]
    assert json.loads(loaded[0].detail)["backend"] == "local"
    kinds = events_by_task(loaded)["a"]
    assert [k for k in kinds if k in ev.TERMINAL_KINDS] == [ev.TASK_DONE]


def test_wall_clock_timestamps_relative_to_job_start(local, tmp_path):
    wf = single_stage("s", [sh_task("a", "sleep 0.02")])
    log = run_local(wf, local, 1, tmp_path)
    ts = [e.ts for e in log]
    assert ts[0] == 0.0
    assert ts == sorted(ts)
    assert log.job_end_ts() >= 0.02


def test_rejects_nonpositive_parallelism(local, tmp_path):
    wf = single_stage("s", [sh_task("a", "true")])
    with pytest.raises(ConfigError):
        run_local(wf, local, 0, tmp_path)


def test_duplicate_uid_across_pipelines(local, tmp_path):
    a = single_stage("s", [sh_task("t", "true")], workflow_name="p1")
    b = single_stage("s", [sh_task("t", "true")], workflow_name="p2")
    with pytest.raises(ConfigError, match="more than one pipeline"):
        run_local([a, b], local, 2, tmp_path)
    assert not (tmp_path / "task-logs").exists()


def test_task_wider_than_host_rejected_before_spawning(local, tmp_path):
    wide = sh_task("wide", "touch spawned", cpu_processes=usable_cores(local.node) + 1)
    wf = WorkflowSpec(
        name="w",
        stages=(
            Stage(name="s0", tasks=(sh_task("first", "touch spawned"),)),
            Stage(name="s1", tasks=(wide,)),
        ),
    )
    with pytest.raises(Unplaceable, match="wide"):
        run_local(wf, local, 2, tmp_path)
    assert not (tmp_path / "spawned").exists()


def test_host_wide_tasks_run_one_at_a_time(local, tmp_path):
    # each task takes every usable core, so the slot table admits one at a
    # time even though max_parallel allows two
    cores = usable_cores(local.node)
    wf = single_stage(
        "s",
        [sh_task(f"w{i}", "sleep 0.05", cpu_threads_per_process=cores)
         for i in range(3)],
    )
    log = run_local(wf, local, 2, tmp_path)
    assert sum(1 for e in log if e.kind == ev.TASK_DONE) == 3
    assert max(
        p.n_running + p.n_scheduled_pending_launch
        for p in concurrency_series(log).points
    ) == 1
    stack = compute_utilization(log)
    for unit in (stack.nodes, stack.cores, stack.gpus):
        assert 0 <= unit.busy_s <= unit.capacity_s


def test_a_freed_slot_refills_while_a_long_task_runs(tmp_path):
    # the short tasks cycle through the second slot while the first stays
    # busy, so a wait on the oldest child would finish "long" first
    host = small_platform(cores=8, nodes=1)
    wf = single_stage(
        "s",
        [sh_task("long", "sleep 0.5")]
        + [sh_task(f"short{i}", "true") for i in range(4)],
    )
    log = run_local(wf, host, 2, tmp_path)
    done = [e.task_uid for e in log if e.kind == ev.TASK_DONE]
    assert done == [f"short{i}" for i in range(4)] + ["long"]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_every_descriptor_is_closed(tmp_path):
    host = small_platform(cores=8, nodes=1)
    wf = single_stage("s", [sh_task(f"t{i}", "true") for i in range(50)])
    before = _open_fds()
    log = run_local(wf, host, 4, tmp_path)
    assert log[-1].detail == "done=50 failed=0 canceled=0"
    assert _open_fds() == before


def test_waits_on_exits_without_sleeping(local, tmp_path, monkeypatch):
    def no_sleep(seconds):
        raise AssertionError(f"run_local slept {seconds}s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    wf = single_stage("s", [sh_task(f"t{i}", "sleep 0.05") for i in range(4)])
    log = run_local(wf, local, 2, tmp_path)
    assert log[-1].detail == "done=4 failed=0 canceled=0"


def test_interrupt_cancels_the_rest_and_keeps_a_complete_log(
    tmp_path, sigint_raises
):
    # the first task sends this process SIGINT while run_local waits on it
    host = small_platform(cores=8, nodes=1)
    wf = WorkflowSpec(
        name="stopped",
        stages=(
            Stage(name="s0", tasks=(
                sh_task("killer", f"kill -INT {os.getpid()}; exec sleep 30"),
                sh_task("waiting", "true"),
            )),
            Stage(name="s1", tasks=(sh_task("later", "true"),)),
        ),
    )
    before = _open_fds()
    start = time.monotonic()
    with pytest.raises(Interrupted) as caught:
        run_local(wf, host, 1, tmp_path)
    assert time.monotonic() - start < 10
    assert _open_fds() == before
    log = caught.value.log
    assert log[-1].kind == ev.JOB_END
    assert log[-1].detail == "done=0 failed=0 canceled=3"
    canceled = [(e.task_uid, e.detail) for e in log
                if e.kind == ev.TASK_CANCELED]
    assert canceled == [(uid, "interrupted")
                        for uid in ("killer", "waiting", "later")]


def test_interrupt_kills_a_task_that_ignores_sigterm(
    tmp_path, sigint_raises, monkeypatch
):
    # the task ignores SIGTERM, so stop must SIGKILL it after the grace
    monkeypatch.setattr(local_backend, "_TERM_GRACE_S", 0.2)
    host = small_platform(cores=8, nodes=1)
    wf = single_stage("s", [sh_task(
        "stubborn",
        f"echo $$ > pid; trap '' TERM; kill -INT {os.getpid()}; "
        "exec sleep 30",
    )])
    before = _open_fds()
    start = time.monotonic()
    with pytest.raises(Interrupted) as caught:
        run_local(wf, host, 1, tmp_path)
    assert time.monotonic() - start < 10
    assert _open_fds() == before
    log = caught.value.log
    assert log.complete
    assert log[-1].detail == "done=0 failed=0 canceled=1"
    assert [(e.task_uid, e.detail) for e in log
            if e.kind == ev.TASK_CANCELED] == [("stubborn", "interrupted")]
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "pid").read_text()), 0)


def test_interrupt_while_spawning_kills_the_task(
    tmp_path, sigint_raises, monkeypatch
):
    # SIGINT lands after the fork, before run_local has the child's pidfd:
    # stop must still know and kill the task
    spawned = []
    real_popen = subprocess.Popen

    def spawn_then_interrupt(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        spawned.append(proc)
        os.kill(os.getpid(), signal.SIGINT)
        return proc

    monkeypatch.setattr(
        local_backend.subprocess, "Popen", spawn_then_interrupt
    )
    host = small_platform(cores=8, nodes=1)
    wf = single_stage("s", [sh_task("spawning", "exec sleep 30")])
    before = _open_fds()
    try:
        with pytest.raises(Interrupted) as caught:
            run_local(wf, host, 1, tmp_path)
        [proc] = spawned
        assert proc.returncode == -signal.SIGTERM
    finally:
        for proc in spawned:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert _open_fds() == before
    log = caught.value.log
    assert log[-1].detail == "done=0 failed=0 canceled=1"
    assert [(e.task_uid, e.detail) for e in log
            if e.kind == ev.TASK_CANCELED] == [("spawning", "interrupted")]


def test_interrupt_after_job_end_keeps_the_complete_log(
    tmp_path, monkeypatch
):
    # the interrupt lands after the drive loop logged JOB_END: nothing is
    # canceled and no second JOB_END is appended
    class InterruptedAtEnd(Pilot):
        def end(self, ts):
            super().end(ts)
            raise KeyboardInterrupt

    monkeypatch.setattr(local_backend, "Pilot", InterruptedAtEnd)
    host = small_platform(cores=8, nodes=1)
    wf = single_stage("s", [sh_task("a", "true"), sh_task("b", "true")])
    with pytest.raises(Interrupted) as caught:
        run_local(wf, host, 2, tmp_path)
    log = caught.value.log
    assert [e.kind for e in log].count(ev.JOB_END) == 1
    assert log[-1].detail == "done=2 failed=0 canceled=0"
