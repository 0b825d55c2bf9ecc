"""Utilization, concurrency and throughput analytics over event logs.

Everything here is a pure function of the log: recomputation is idempotent
and logs are never mutated. An :class:`EventLog` follows the task lifecycle
by construction, so the folds here do not check it again; its machine comes
from its JOB_START, and each reservation is checked against it. The identity
ovh + busy + idle = capacity, busy <= capacity, holds per unit system (nodes,
cores, GPUs). Busy time counts launch to terminal; slots reserved but not
yet launched count as idle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from ensemblekit import events as ev
from ensemblekit.errors import EnsembleKitError, InsufficientData, MalformedLog
from ensemblekit.events import EventLog, allocation, scheduled_slots
from ensemblekit.platform import usable_cores
from ensemblekit.pst import _value

# the share of a unit's capacity by which float rounding may push busy past
# what capacity leaves after overhead
_ROUNDING = 1e-9


@dataclass(frozen=True)
class UnitUsage:
    """Capacity accounting in one unit system (node-, core- or GPU-seconds)."""

    capacity_s: float
    ovh_s: float
    busy_s: float
    idle_s: float
    utilization_fraction: float


@dataclass(frozen=True)
class UtilizationStack:
    nodes: UnitUsage
    cores: UnitUsage
    gpus: UnitUsage


@dataclass(frozen=True)
class ConcurrencyPoint:
    ts: float
    n_scheduled_pending_launch: int
    n_running: int


@dataclass(frozen=True)
class ConcurrencySeries:
    points: tuple[ConcurrencyPoint, ...]


@dataclass(frozen=True)
class RateSummary:
    """Scheduling/launch rates over the initial ramp.

    The ramp ends at the first instant the running count reaches its series
    maximum (it stops increasing there); with no launches in the log the
    whole log is the ramp. Rates are None when fewer than two events of the
    kind fall in the ramp or they share one timestamp.
    """

    scheduling_rate_tasks_per_s: Optional[float]
    launching_rate_tasks_per_s: Optional[float]
    ramp_end_ts: Optional[float]
    sched_first_ts: Optional[float]
    sched_last_ts: Optional[float]
    sched_count: int
    launch_first_ts: Optional[float]
    launch_last_ts: Optional[float]
    launch_count: int


def compute_utilization(log: EventLog) -> UtilizationStack:
    """Fold a complete log into the three-band stack (ovh, busy, idle) in
    node-, core- and GPU-seconds of the log's :func:`allocation`, in one
    pass that keeps each node's free cores and GPUs and its holders.

    Node-busy runs from a node's holder count leaving 0 to its return (a
    launch at the instant it returned continues the span); core/GPU busy is
    the reserved slot-seconds from launch to terminal. The sums run in a
    fixed order (spans by start, nodes by first launch, tasks by schedule),
    and a unit busy for the whole run reads idle 0, not a few ulps below.
    MalformedLog: a node outside the allocation, chunks not one per node, a
    node reserved past its free slots, a task scheduled before
    BOOTSTRAP_DONE or open at JOB_END, or an accounted value beyond the
    float range.
    """
    node, allocation_nodes = allocation(log)
    end_ts, boot_ts = log.job_end_ts(), log.bootstrap_ts()
    cores_per_node, gpus_per_node = usable_cores(node), node.gpus
    # per node, by first reservation: free slots and holder count
    index: dict[int, int] = {}  # node id -> its place in these lists
    free_cores, free_gpus, holders = [], [], []
    # per node, the end of its last span with a holder; and by first launch,
    # each node's spans so far as [start, end, start, end, ..., start]
    span_end: list[Optional[float]] = []
    spans: dict[int, list[float]] = {}
    # detail -> (cores, GPUs, cores per chunk, GPUs per chunk), parsed once
    shapes: dict[str, tuple[int, int, list[int], list[int]]] = {}
    # node-id tuple -> its nodes' places, found once: append checked every
    # tuple, so equal tuples name the same nodes
    places: dict[tuple[int, ...], list[int]] = {}
    # uid -> [shape, node places, launch ts] until its terminal event, then
    # its seconds from launch to terminal (None if it never ran); and each
    # task's shape, both by schedule
    tasks: dict[str, Optional[list | float]] = {}
    task_shapes: list[tuple[int, int, list[int], list[int]]] = []
    open_tasks = 0
    scheduled, launched = ev.TASK_SCHEDULED, ev.TASK_LAUNCHED
    terminal = ev.TERMINAL_KINDS
    for ts, kind, uid, node_ids, detail in log:
        if kind == scheduled:
            if ts < boot_ts:
                raise MalformedLog(f"task {uid}: scheduled at {ts}, before "
                                   f"BOOTSTRAP_DONE at {boot_ts}")
            shape = shapes.get(detail)
            if shape is None:
                threads, gpus_pp, chunks = scheduled_slots(detail)
                cores = [threads * ranks for ranks in chunks]
                gpus = [gpus_pp * ranks for ranks in chunks]
                shape = shapes[detail] = (sum(cores), sum(gpus), cores, gpus)
            node_ids = node_ids or ()
            if len(node_ids) != len(shape[2]):
                raise MalformedLog(f"task {uid}: {len(shape[2])} chunks on "
                                   f"{len(node_ids)} nodes")
            nodes = places.get(node_ids)
            if nodes is None:
                nodes = []
                for node_id in node_ids:
                    i = index.get(node_id)
                    if i is None:
                        if node_id >= allocation_nodes:
                            break  # raised once the nodes before it are taken
                        i = index[node_id] = len(holders)
                        free_cores.append(cores_per_node)
                        free_gpus.append(gpus_per_node)
                        holders.append(0)
                        span_end.append(None)
                    nodes.append(i)
                else:
                    places[node_ids] = nodes
            for i, cores, gpus in zip(nodes, shape[2], shape[3]):
                cores, gpus = free_cores[i] - cores, free_gpus[i] - gpus
                if cores < 0 or gpus < 0:
                    node_id = node_ids[nodes.index(i)]
                    raise MalformedLog(f"task {uid}: takes more cores or GPUs "
                                       f"of node {node_id} than are free")
                free_cores[i], free_gpus[i] = cores, gpus
            if len(nodes) < len(node_ids):
                raise MalformedLog(f"task {uid}: node {node_ids[len(nodes)]} "
                                   f"is outside the allocation")
            tasks[uid] = [shape, nodes, None]
            task_shapes.append(shape)
            open_tasks += 1
        elif kind == launched:
            task = tasks[uid]
            task[2] = ts
            for i in task[1]:
                n = holders[i]
                holders[i] = n + 1
                if not n:
                    end = span_end[i]
                    if end is None:
                        spans[i] = [ts]
                    elif ts > end:
                        spans[i] += end, ts
        elif kind in terminal and uid in tasks:  # was scheduled
            shape, nodes, launch_ts = tasks[uid]
            tasks[uid] = None if launch_ts is None else ts - launch_ts
            open_tasks -= 1
            for i, cores, gpus in zip(nodes, shape[2], shape[3]):
                free_cores[i] += cores
                free_gpus[i] += gpus
                if launch_ts is not None:
                    n = holders[i] - 1
                    holders[i] = n
                    if not n:
                        span_end[i] = ts
    if open_tasks:
        raise MalformedLog(f"{open_tasks} tasks still scheduled or running "
                           f"at JOB_END")

    busy_nodes = busy_cores = busy_gpus = 0.0
    for i, span in spans.items():
        span.append(span_end[i])
        for k in range(0, len(span), 2):
            busy_nodes += span[k + 1] - span[k]
    for (cores, gpus, _, _), span in zip(task_shapes, tasks.values()):
        if span is not None:
            busy_cores += cores * span
            busy_gpus += gpus * span

    def unit(per_node: float, busy: float) -> UnitUsage:
        capacity = allocation_nodes * per_node * end_ts
        ovh = allocation_nodes * per_node * boot_ts
        idle = capacity - ovh - busy
        if idle < 0 and -idle <= _ROUNDING * capacity:
            # busy for the whole run: the rounding of the products and the
            # sum left idle a few ulps below zero
            busy, idle = capacity - ovh, 0.0
        if not all(map(math.isfinite, (capacity, ovh, busy, idle))):
            raise MalformedLog(
                f"accounting leaves the float range: capacity {capacity}, "
                f"ovh {ovh}, busy {busy}, idle {idle}"
            )
        fraction = busy / capacity if capacity > 0 else 0.0
        return UnitUsage(capacity, ovh, busy, idle, fraction)

    return UtilizationStack(
        nodes=unit(1.0, busy_nodes),
        cores=unit(float(cores_per_node), busy_cores),
        gpus=unit(float(gpus_per_node), busy_gpus),
    )


# (pending-launch, running) that a task's last event counts it in; a task
# with no event yet or a terminal one counts in neither
_PHASE_COUNTS = {ev.TASK_SCHEDULED: (1, 0), ev.TASK_LAUNCHED: (0, 1)}


def concurrency_series(log: EventLog) -> ConcurrencySeries:
    """Sweep the log into (ts, pending-launch, running) change points.

    TASK_SCHEDULED increments pending, TASK_LAUNCHED moves pending to
    running, terminal events decrement whichever phase the task occupies.
    Events sharing a timestamp coalesce into one point.
    """
    phase: dict[str, str] = {}  # each task's last event kind
    counts = _PHASE_COUNTS.get
    pending = running = 0
    points: list[ConcurrencyPoint] = []
    current_ts: Optional[float] = None
    for ts, kind, uid, _, _ in log:
        if uid is None:  # only TASK_* events name a task
            continue
        was_p, was_r = counts(phase.get(uid), (0, 0))
        now_p, now_r = counts(kind, (0, 0))
        phase[uid] = kind
        if current_ts is not None and ts != current_ts:
            points.append(ConcurrencyPoint(current_ts, pending, running))
        current_ts = ts
        pending += now_p - was_p
        running += now_r - was_r
    if current_ts is not None:
        points.append(ConcurrencyPoint(current_ts, pending, running))
    return ConcurrencySeries(points=tuple(points))


def throughput(log: EventLog, series: ConcurrencySeries) -> RateSummary:
    """Scheduling and launching rates over the initial ramp of ``series``,
    the log's :func:`concurrency_series`."""
    sched = [e.ts for e in log if e.kind == ev.TASK_SCHEDULED]
    if len(sched) < 2:
        raise InsufficientData(
            f"need at least 2 TASK_SCHEDULED events, have {len(sched)}"
        )
    launched = [e.ts for e in log if e.kind == ev.TASK_LAUNCHED]
    max_running = max((p.n_running for p in series.points), default=0)
    ramp_end: Optional[float] = None
    if max_running > 0:
        ramp_end = next(
            p.ts for p in series.points if p.n_running == max_running
        )

    def in_ramp(ts_list: list[float]) -> list[float]:
        if ramp_end is None:
            return ts_list
        return [t for t in ts_list if t <= ramp_end]

    def rate(ts_list: list[float]) -> Optional[float]:
        if len(ts_list) < 2:
            return None
        span = ts_list[-1] - ts_list[0]
        if span <= 0:
            return None
        return (len(ts_list) - 1) / span

    s_in, l_in = in_ramp(sched), in_ramp(launched)
    return RateSummary(
        scheduling_rate_tasks_per_s=rate(s_in),
        launching_rate_tasks_per_s=rate(l_in),
        ramp_end_ts=ramp_end,
        sched_first_ts=s_in[0] if s_in else None,
        sched_last_ts=s_in[-1] if s_in else None,
        sched_count=len(s_in),
        launch_first_ts=l_in[0] if l_in else None,
        launch_last_ts=l_in[-1] if l_in else None,
        launch_count=len(l_in),
    )


# -- export -------------------------------------------------------------------

_UNIT_FIELDS = ["capacity_s", "ovh_s", "busy_s", "idle_s", "utilization_fraction"]


# one point of a series' JSON export, its fields at depth 3
_POINT = (
    "    {\n"
    '      "ts": %s,\n'
    '      "n_scheduled_pending_launch": %s,\n'
    '      "n_running": %s\n'
    "    }"
)


def export(obj, format: str, path: str | Path) -> Path:
    """Write a stack, series or rate summary as CSV (with header row) or
    JSON mirroring the type fields, byte-equal to
    ``json.dumps(asdict(obj), indent=2)`` and a newline. Output is
    bit-stable."""
    path = Path(path)
    if format not in ("csv", "json"):
        raise EnsembleKitError(f"unknown export format {format!r}")
    if not isinstance(obj, (UtilizationStack, ConcurrencySeries, RateSummary)):
        raise EnsembleKitError(f"cannot export {type(obj).__name__}")
    if format == "json":
        if not isinstance(obj, ConcurrencySeries):
            text = json.dumps(asdict(obj), indent=2)
        elif not obj.points:
            text = '{\n  "points": []\n}'
        else:  # the one export that grows with the log: point by point
            text = '{\n  "points": [\n%s\n  ]\n}' % ",\n".join(
                _POINT % (
                    _value(p.ts, 3),
                    _value(p.n_scheduled_pending_launch, 3),
                    _value(p.n_running, 3),
                )
                for p in obj.points
            )
        path.write_text(text + "\n")
        return path
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if isinstance(obj, UtilizationStack):
            writer.writerow(["unit"] + _UNIT_FIELDS)
            for unit_name in ("nodes", "cores", "gpus"):
                usage = getattr(obj, unit_name)
                writer.writerow(
                    [unit_name] + [repr(getattr(usage, f)) for f in _UNIT_FIELDS]
                )
        elif isinstance(obj, ConcurrencySeries):
            writer.writerow(["ts", "n_scheduled_pending_launch", "n_running"])
            for p in obj.points:
                row = p.ts, p.n_scheduled_pending_launch, p.n_running
                if (type(row[0]) is float and type(row[1]) is int
                        and type(row[2]) is int):
                    f.write("%r,%d,%d\r\n" % row)  # as the writer writes it
                else:
                    writer.writerow([repr(row[0]), row[1], row[2]])
        else:
            writer.writerow(["field", "value"])
            for key, value in asdict(obj).items():
                writer.writerow([key, "" if value is None else repr(value)])
    return path
