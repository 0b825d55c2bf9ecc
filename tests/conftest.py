"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import json
import random
import signal

import pytest

from ensemblekit import events as ev
from ensemblekit.engine import run_simulated
from ensemblekit.events import Event, EventLog, scheduled_detail
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    WalltimePolicy,
    get_profile,
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


def simulated_attempts(platform, runtime_model, *failure_models):
    """A retry_loop attempt runner over run_simulated: attempt k runs with
    ``failure_models[k-1]``, later attempts run clean."""

    def run_attempt(specs, attempt, nodes, walltime_s):
        faults = failure_models[attempt - 1:attempt]
        return run_simulated(
            specs, platform, nodes, walltime_s, runtime_model,
            faults[0] if faults else None,
        )

    return run_attempt


@pytest.fixture
def frontier():
    return get_profile("frontier-sim")


# -- synthetic logs and independent oracles -----------------------------------


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
    log = EventLog()
    log.append(Event(ts=0.0, kind=ev.JOB_START, detail=meta))
    log.append(Event(ts=boot_ts, kind=ev.BOOTSTRAP_DONE))
    for row in rows:
        log.append(row)
    log.append(Event(ts=end_ts if end_ts is not None else last, kind=ev.JOB_END))
    return log


def random_complete_log(rng: random.Random, max_tasks=25, node_pool=6):
    """A random but well-formed complete log, for oracle-equivalence tests."""
    n = rng.randint(0, max_tasks)
    boot = round(rng.uniform(0.0, 5.0), 3)
    task_events = []
    horizon = boot
    for i in range(n):
        uid = f"t{i:03d}"
        n_nodes = rng.randint(1, 3)
        node_ids = sorted(rng.sample(range(node_pool), n_nodes))
        chunks = [rng.randint(1, 4) for _ in node_ids]
        threads = rng.randint(1, 2)
        gpus_pp = rng.randint(0, 1)
        sched = round(boot + rng.uniform(0.0, 40.0), 3)
        fate = rng.random()
        if fate < 0.12:
            # canceled while still pending launch
            term = round(sched + rng.uniform(0.0, 20.0), 3)
            task_events.append(
                (uid, node_ids, chunks, threads, gpus_pp, sched, None, term,
                 ev.TASK_CANCELED)
            )
        else:
            launch = round(sched + rng.uniform(0.0, 5.0), 3)
            term = round(launch + rng.uniform(0.0, 30.0), 3)
            kind = rng.choice(
                [ev.TASK_DONE, ev.TASK_DONE, ev.TASK_FAILED, ev.TASK_CANCELED]
            )
            task_events.append(
                (uid, node_ids, chunks, threads, gpus_pp, sched, launch, term,
                 kind)
            )
        horizon = max(horizon, term)
    end = round(horizon + rng.uniform(0.0, 5.0), 3)
    return build_log(task_events, boot_ts=boot, end_ts=end), task_events, boot, end


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
