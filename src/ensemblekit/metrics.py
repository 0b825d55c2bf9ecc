"""Utilization, concurrency and throughput analytics over event logs.

Everything here is a pure function of the log: recomputation is idempotent
and logs are never mutated. An :class:`EventLog` follows the task lifecycle
by construction, so the folds here do not check it again. The accounting
identity ovh + busy + idle = capacity holds per unit system (nodes, cores,
GPUs). Busy time counts launch to terminal; slots reserved but not yet
launched count as idle.
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
from ensemblekit.events import EventLog, scheduled_slots
from ensemblekit.platform import NodeSpec, usable_cores

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


@dataclass
class _Timeline:
    sched_ts: Optional[float] = None
    launch_ts: Optional[float] = None
    terminal_ts: Optional[float] = None
    terminal_kind: Optional[str] = None
    node_ids: tuple[int, ...] = ()
    cores: int = 0
    gpus: int = 0


def task_timelines(log: EventLog) -> dict[str, _Timeline]:
    """Per-task schedule/launch/terminal timestamps and reserved slots."""
    out: dict[str, _Timeline] = {}
    # TASK_SCHEDULED detail -> its slots: tasks of one shape share a detail,
    # so each distinct one is parsed (and checked) once
    slots: dict[str, tuple[int, int]] = {}
    for ts, kind, uid, node_ids, detail in log:
        if kind == ev.TASK_SCHEDULED:
            out[uid] = tl = _Timeline(sched_ts=ts)
            tl.node_ids = node_ids or ()
            reserved = slots.get(detail)
            if reserved is None:
                reserved = slots[detail] = scheduled_slots(detail)
            tl.cores, tl.gpus = reserved
        elif kind == ev.TASK_LAUNCHED:
            out[uid].launch_ts = ts
        elif kind in ev.TERMINAL_KINDS:
            tl = out.setdefault(uid, _Timeline())
            tl.terminal_ts = ts
            tl.terminal_kind = kind
    return out


def compute_utilization(
    log: EventLog, node: NodeSpec, allocation_nodes: int
) -> UtilizationStack:
    """Fold a complete log into the three-band stack (ovh, busy, idle) in
    node-, core- and GPU-seconds of ``allocation_nodes`` nodes shaped like
    ``node``.

    Node-busy counts each node's time covered by at least one holder (the
    interval union, which equals nodes-held times duration whenever tasks do
    not share nodes). Core/GPU busy counts the reserved slot-seconds between
    launch and terminal. A unit busy for the whole run reads idle 0, not
    the few ulps below it that float rounding leaves. Raises MalformedLog
    when an accounted value leaves the float range.
    """
    end_ts = log.job_end_ts()
    boot_ts = log.bootstrap_ts()
    timelines = task_timelines(log)

    node_intervals: dict[int, list[tuple[float, float]]] = {}
    busy_cores = 0.0
    busy_gpus = 0.0
    for tl in timelines.values():
        if tl.launch_ts is None or tl.terminal_ts is None:
            continue
        span = tl.terminal_ts - tl.launch_ts
        for node_id in tl.node_ids:
            node_intervals.setdefault(node_id, []).append(
                (tl.launch_ts, tl.terminal_ts)
            )
        busy_cores += tl.cores * span
        busy_gpus += tl.gpus * span

    busy_nodes = 0.0
    for intervals in node_intervals.values():
        intervals.sort()
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                busy_nodes += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        busy_nodes += cur_hi - cur_lo

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
        return UnitUsage(
            capacity_s=capacity,
            ovh_s=ovh,
            busy_s=busy,
            idle_s=idle,
            utilization_fraction=fraction,
        )

    return UtilizationStack(
        nodes=unit(1.0, busy_nodes),
        cores=unit(float(usable_cores(node)), busy_cores),
        gpus=unit(float(node.gpus), busy_gpus),
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
    pending = running = 0
    points: list[ConcurrencyPoint] = []
    current_ts: Optional[float] = None
    for event in log:
        uid = event.task_uid
        if uid is None:  # only TASK_* events name a task
            continue
        was_p, was_r = _PHASE_COUNTS.get(phase.get(uid), (0, 0))
        now_p, now_r = _PHASE_COUNTS.get(event.kind, (0, 0))
        phase[uid] = event.kind
        if current_ts is not None and event.ts != current_ts:
            points.append(ConcurrencyPoint(current_ts, pending, running))
        current_ts = event.ts
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


def export(obj, format: str, path: str | Path) -> Path:
    """Write a stack, series or rate summary as CSV (with header row) or
    JSON mirroring the type fields. Output is bit-stable."""
    path = Path(path)
    if format == "json":
        path.write_text(json.dumps(asdict(obj), indent=2) + "\n")
        return path
    if format != "csv":
        raise EnsembleKitError(f"unknown export format {format!r}")
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
                writer.writerow(
                    [repr(p.ts), p.n_scheduled_pending_launch, p.n_running]
                )
        elif isinstance(obj, RateSummary):
            writer.writerow(["field", "value"])
            for key, value in asdict(obj).items():
                writer.writerow([key, "" if value is None else repr(value)])
        else:
            raise EnsembleKitError(f"cannot export {type(obj).__name__}")
    return path
