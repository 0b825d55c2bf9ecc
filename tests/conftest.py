"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import gc
import json
import random
import signal
import sys

import pytest

from ensemblekit import events as ev
from ensemblekit.engine import run_simulated
from ensemblekit.events import Event, EventLog, scheduled_detail
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    WalltimePolicy,
    get_profile,
    task_footprint,
)
from ensemblekit.pst import Stage, TaskDescription, WorkflowSpec


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt in this process, and takes its default
    action in the processes it starts, even when this process was started
    with SIGINT ignored (as a background job of a script is)."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def count_bytecodes(fn, *args):
    """How many bytecodes Python runs in ``fn(*args)``, with the garbage
    collector off: ``sys.settrace`` opcode events before 3.12, and
    ``sys.monitoring`` INSTRUCTION events from 3.12 on, where settrace
    counts none. A count repeats exactly within one Python minor version;
    it does not see C-level work, such as the JSON decoder's or a dict's
    growth."""
    count = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        if sys.version_info >= (3, 12):
            monitoring = sys.monitoring
            tool = next(i for i in range(6) if monitoring.get_tool(i) is None)
            instruction = monitoring.events.INSTRUCTION

            def on_instruction(code, offset):
                nonlocal count
                count += 1

            monitoring.use_tool_id(tool, "count_bytecodes")
            monitoring.register_callback(tool, instruction, on_instruction)
            monitoring.set_events(tool, instruction)
            try:
                fn(*args)
            finally:
                monitoring.set_events(tool, 0)
                monitoring.register_callback(tool, instruction, None)
                monitoring.free_tool_id(tool)
        else:
            def trace(frame, event, arg):
                nonlocal count
                if event == "opcode":
                    count += 1
                elif event == "call":
                    frame.f_trace_opcodes = True
                return trace

            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                fn(*args)
            finally:
                sys.settrace(previous)
    finally:
        if collecting:
            gc.enable()
    return count


def make_task(
    uid,
    procs=1,
    threads=1,
    gpus=0,
    expected=None,
    executable="/bin/true",
    **kw,
):
    return TaskDescription(
        uid=uid,
        executable=executable,
        cpu_processes=procs,
        cpu_threads_per_process=threads,
        gpus_per_process=gpus,
        expected_runtime_s=expected,
        **kw,
    )


def exaconstit_task(uid, expected=None):
    """8-node member: 64 ranks at 7 cores + 1 GPU each."""
    return make_task(uid, procs=64, threads=7, gpus=1, expected=expected)


def chunks_of(desc, node):
    """The ranks per node of desc on node's shape, from task_footprint
    alone: full chunks, the rest last; unlike task_footprints, it does not
    ask that the task fit an allocation."""
    nodes, ppn = task_footprint(desc, node)
    return (ppn,) * (nodes - 1) + (desc.cpu_processes - ppn * (nodes - 1),)


def single_stage(name, tasks, workflow_name=None):
    return WorkflowSpec(
        name=workflow_name or name, stages=(Stage(name=name, tasks=tuple(tasks)),)
    )


def small_platform(
    cores=8, reserved=0, gpus=0, nodes=4, bootstrap=0.0, max_walltime=100000.0
):
    return PlatformConfig(
        name="test",
        node=NodeSpec(cores_total=cores, cores_reserved=reserved, gpus=gpus),
        node_count=nodes,
        policy=WalltimePolicy(tiers=((nodes, max_walltime),)),
        bootstrap_overhead_s=bootstrap,
    )


def platform_doc(config):
    """A platform config as the JSON document ``--platform`` reads."""
    node = config.node
    return {
        "name": config.name,
        "node": {
            "cores_total": node.cores_total,
            "cores_reserved": node.cores_reserved,
            "gpus": node.gpus,
        },
        "node_count": config.node_count,
        "bootstrap_overhead_s": config.bootstrap_overhead_s,
        "policy": {"tiers": [list(t) for t in config.policy.tiers]},
    }


def save_platform(config, path):
    path.write_text(json.dumps(platform_doc(config), indent=2) + "\n")


def simulated_attempts(platform, runtime_model, *faults):
    """A retry_loop attempt runner over run_simulated: attempt k runs with
    the ``node_faults``/``task_faults`` keywords ``faults[k-1]``, later
    attempts run clean."""

    def run_attempt(spec, attempt, nodes, walltime_s):
        kwargs = faults[attempt - 1] if attempt <= len(faults) else {}
        return run_simulated(
            spec, platform, nodes, walltime_s, runtime_model, **kwargs
        )

    return run_attempt


@pytest.fixture
def frontier():
    return get_profile("frontier-sim")


# -- synthetic logs and independent oracles -----------------------------------


def log_of(events):
    """An EventLog of ``events``, each appended through its checks."""
    log = EventLog()
    for event in events:
        log.append(event)
    return log


def build_log(task_events, boot_ts=0.0, end_ts=None, allocation_nodes=8):
    """Assemble a complete, ts-sorted log from per-task event tuples.

    ``task_events``: list of (uid, node_ids, chunks, threads, gpus_pp,
    sched_ts, launch_ts, terminal_ts, terminal_kind); launch/terminal may be
    None for tasks canceled early.
    """
    rows = []
    for uid, node_ids, chunks, threads, gpus_pp, sched, launch, term, kind in (
        task_events
    ):
        if sched is not None:
            rows.append(
                Event(
                    ts=sched,
                    kind=ev.TASK_SCHEDULED,
                    task_uid=uid,
                    node_ids=tuple(node_ids),
                    detail=scheduled_detail(threads, gpus_pp, list(chunks)),
                )
            )
        if launch is not None:
            rows.append(
                Event(
                    ts=launch,
                    kind=ev.TASK_LAUNCHED,
                    task_uid=uid,
                    node_ids=tuple(node_ids),
                )
            )
        if term is not None:
            rows.append(
                Event(ts=term, kind=kind, task_uid=uid, node_ids=tuple(node_ids))
            )
    rows.sort(key=lambda e: e.ts)
    last = max((e.ts for e in rows), default=boot_ts)
    meta = json.dumps(
        {
            "backend": "sim",
            "platform": "test",
            "allocation_nodes": allocation_nodes,
            "cores_total": 8,
            "cores_reserved": 0,
            "gpus_per_node": 2,
            "bootstrap_s": boot_ts,
            "walltime_s": 100000.0,
        }
    )
    return log_of([
        Event(ts=0.0, kind=ev.JOB_START, detail=meta),
        Event(ts=boot_ts, kind=ev.BOOTSTRAP_DONE),
        *rows,
        Event(ts=end_ts if end_ts is not None else last, kind=ev.JOB_END),
    ])


def random_complete_log(rng: random.Random, max_tasks=25, node_pool=6):
    """A random but well-formed complete log, for oracle-equivalence tests.

    Tasks share nodes, but each reserves only what its nodes (8 cores and
    2 GPUs, as :func:`build_log` records) have left beside the tasks drawn
    before it whose [schedule, terminal] span meets its own; a task that
    finds no room is not drawn.
    """
    n = rng.randint(0, max_tasks)
    boot = round(rng.uniform(0.0, 5.0), 3)
    task_events = []
    horizon = boot
    for i in range(n):
        uid = f"t{i:03d}"
        threads = rng.randint(1, 2)
        gpus_pp = rng.randint(0, 1)
        sched = round(boot + rng.uniform(0.0, 40.0), 3)
        fate = rng.random()
        if fate < 0.12:
            # canceled while still pending launch
            launch = None
            term = round(sched + rng.uniform(0.0, 20.0), 3)
            kind = ev.TASK_CANCELED
        else:
            launch = round(sched + rng.uniform(0.0, 5.0), 3)
            term = round(launch + rng.uniform(0.0, 30.0), 3)
            kind = rng.choice(
                [ev.TASK_DONE, ev.TASK_DONE, ev.TASK_FAILED, ev.TASK_CANCELED]
            )
        # ranks each node has room for beside the overlapping tasks
        room = {}
        for node in range(node_pool):
            cores, gpus = 8, 2
            for _, ids, chunks, t, g, lo, _, hi, _ in task_events:
                if node in ids and lo <= term and sched <= hi:
                    ranks = chunks[ids.index(node)]
                    cores -= t * ranks
                    gpus -= g * ranks
            ranks = cores // threads
            if gpus_pp:
                ranks = min(ranks, gpus // gpus_pp)
            if ranks >= 1:
                room[node] = min(ranks, 4)
        if not room:
            continue
        n_nodes = rng.randint(1, min(3, len(room)))
        node_ids = sorted(rng.sample(sorted(room), n_nodes))
        chunks = [rng.randint(1, room[node]) for node in node_ids]
        task_events.append(
            (uid, node_ids, chunks, threads, gpus_pp, sched, launch, term,
             kind)
        )
        horizon = max(horizon, term)
    end = round(horizon + rng.uniform(0.0, 5.0), 3)
    return build_log(task_events, boot_ts=boot, end_ts=end), task_events, boot, end


def events_by_task(log):
    """uid -> {kind: event} over the task events of ``log``."""
    out = {}
    for event in log:
        if event.task_uid is not None:
            out.setdefault(event.task_uid, {})[event.kind] = event
    return out


def terminal_ts(kinds):
    """The ts of the terminal event in one task's {kind: event}."""
    return next(e.ts for kind, e in kinds.items() if kind in ev.TERMINAL_KINDS)


def oracle_usage(task_events, boot, end, allocation_nodes, cores_per_node,
                 gpus_per_node):
    """Per-instant integration of busy resources over event boundaries.

    Independent of the production accounting path: counts held nodes and
    reserved cores/GPUs at interval midpoints and integrates.
    """
    spans = []
    for uid, node_ids, chunks, threads, gpus_pp, sched, launch, term, kind in (
        task_events
    ):
        if launch is None or term is None:
            continue
        cores = sum(c * threads for c in chunks)
        gpus = sum(c * gpus_pp for c in chunks)
        spans.append((launch, term, set(node_ids), cores, gpus))
    boundaries = sorted({0.0, boot, end} | {s[0] for s in spans} | {s[1] for s in spans})
    busy_nodes = busy_cores = busy_gpus = 0.0
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi > end:
            break
        mid = (lo + hi) / 2
        width = hi - lo
        held: set[int] = set()
        cores = gpus = 0
        for launch, term, nodes, c, g in spans:
            if launch <= mid < term:
                held |= nodes
                cores += c
                gpus += g
        busy_nodes += len(held) * width
        busy_cores += cores * width
        busy_gpus += gpus * width
    return busy_nodes, busy_cores, busy_gpus


def oracle_counts_at(task_events, ts):
    """Per-instant recount of (pending-launch, running) at time ts."""
    pending = running = 0
    for uid, node_ids, chunks, threads, gpus_pp, sched, launch, term, kind in (
        task_events
    ):
        if sched is None or sched > ts:
            continue
        launched = launch is not None and launch <= ts
        terminated = term is not None and term <= ts
        if terminated:
            continue
        if launched:
            running += 1
        else:
            pending += 1
    return pending, running
