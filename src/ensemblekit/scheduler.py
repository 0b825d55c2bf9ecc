"""Pilot-side placement: per-node free core/GPU slot tables, and the
:class:`Pilot` that keeps one job's tasks, slots and event log and runs
its one drive loop for both backends.

Placement is strict FIFO with no backfill: the queue head blocks everything
behind it. Nodes are chosen first-fit by ascending node id, each carrying a
full chunk of ``procs_per_node`` ranks except possibly the last. Tasks may
share a node when slots allow. All of it is deterministic: identical table
and queue inputs yield identical placements. Both backends run a job
through :meth:`Pilot.drive`: :func:`task_footprints` rejects the job up
front when a task could never fit, and after each of the backend's events
the loop places queue-head tasks (:meth:`Pilot.place`) while they fit, and
logs JOB_END once every task is terminal.

Every node of the table stays eligible for the life of the job: a failed
node is never taken out, so the pilot keeps placing work on it, which is
the one-failure-per-wave cascade of a persistent fault. Failed tasks are
retried as a fresh job by :mod:`ensemblekit.resilience`.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import (
    DoubleRelease,
    EnsembleKitError,
    MalformedLog,
    Unplaceable,
)
from ensemblekit.events import Event, EventLog
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    task_footprint,
    usable_cores,
)
from ensemblekit.pst import JobRun, TaskDescription, WorkflowSpec


class Placement(NamedTuple):
    """Reserved slots for one task: ``chunks[i]`` ranks on node
    ``node_ids[i]``, plus the per-rank core/GPU widths needed to undo the
    reservation."""

    task_uid: str
    node_ids: tuple[int, ...]
    chunks: tuple[int, ...]
    cpu_threads_per_process: int
    gpus_per_process: int


class SlotTable:
    """Free core/GPU slots per node of one allocation.

    Single-writer: only the owning pilot's drive loop mutates a table. A
    min-heap of node ids with a free core keeps first-fit scans cheap at the
    8000-node scale; the arrays stay authoritative. A node without a free
    core can host no chunk (every rank needs at least one core), so it
    leaves the heap until a release frees one. ``holders[node_id]`` is the
    set of task uids whose active placement covers that node.
    """

    def __init__(self, node: NodeSpec, node_count: int):
        if node_count < 1:
            raise EnsembleKitError("node_count must be >= 1")
        self.node = node
        self.node_count = node_count
        cores = usable_cores(node)
        self.free_cores = [cores] * node_count
        self.free_gpus = [node.gpus] * node_count
        self.holders: list[set[str]] = [set() for _ in range(node_count)]
        self._active: dict[str, Placement] = {}
        self._avail = list(range(node_count))  # already a heap: sorted
        self._queued = [True] * node_count
        # bumped by every release: only a release makes room
        self.releases = 0

    # kept though nothing in the package calls it: perfbench/tracer.py
    # wraps it by name and reads the length of the copy it returns
    def active_placements(self) -> dict[str, Placement]:
        """A copy of every active placement by task uid; O(active), so the
        engine's per-event paths use ``placement_of`` and ``holders``."""
        return dict(self._active)

    def placement_of(self, uid: str) -> Optional[Placement]:
        return self._active.get(uid)


def task_footprints(
    table: SlotTable, descs: Iterable[TaskDescription]
) -> dict[str, tuple[int, int]]:
    """Footprint of every task on the table's node shape, by uid, computed
    once per distinct (procs, threads, GPUs) shape.

    Raises Unplaceable for a task that could never fit the table, naming
    the first task of its shape, so a job is rejected before anything of it
    runs.
    """
    out: dict[str, tuple[int, int]] = {}
    by_shape: dict[tuple[int, int, int], tuple[int, int]] = {}
    for desc in descs:
        shape = (
            desc.cpu_processes,
            desc.cpu_threads_per_process,
            desc.gpus_per_process,
        )
        fp = by_shape.get(shape)
        if fp is None:
            fp = task_footprint(desc, table.node)
            if fp[0] > table.node_count:
                raise Unplaceable(
                    f"task {desc.uid} needs {fp[0]} nodes; allocation "
                    f"has {table.node_count}"
                )
            by_shape[shape] = fp
        out[desc.uid] = fp
    return out


def try_place(
    table: SlotTable, desc: TaskDescription, footprint: tuple[int, int]
) -> Optional[Placement]:
    """Reserve slots for one task, or return None leaving the table unchanged.

    Scans nodes in ascending id order. All chunks are ``procs_per_node``
    ranks except the last, which carries the remainder.
    """
    uid = desc.uid
    if uid in table._active:
        raise EnsembleKitError(f"task {uid} already placed")
    nodes_needed, procs_per_node = footprint
    threads = desc.cpu_threads_per_process
    gpus_pp = desc.gpus_per_process
    remainder = desc.cpu_processes - procs_per_node * (nodes_needed - 1)
    free_cores, free_gpus = table.free_cores, table.free_gpus
    avail, queued = table._avail, table._queued

    chosen: list[int] = []
    popped: list[int] = []
    # the cores and GPUs of the next chunk: every chunk but the last is
    # full, and the last carries the remainder
    chunk = procs_per_node if nodes_needed > 1 else remainder
    cores, gpus = chunk * threads, chunk * gpus_pp
    while avail and len(chosen) < nodes_needed:
        node_id = heapq.heappop(avail)
        queued[node_id] = False
        popped.append(node_id)
        if free_cores[node_id] >= cores and free_gpus[node_id] >= gpus:
            chosen.append(node_id)
            if len(chosen) == nodes_needed - 1:
                cores, gpus = remainder * threads, remainder * gpus_pp

    placement = None
    if len(chosen) == nodes_needed:
        chunks = (procs_per_node,) * (nodes_needed - 1) + (remainder,)
        for node_id, procs in zip(chosen, chunks):
            free_cores[node_id] -= procs * threads
            free_gpus[node_id] -= procs * gpus_pp
            table.holders[node_id].add(uid)
        placement = Placement(uid, tuple(chosen), chunks, threads, gpus_pp)
        table._active[uid] = placement
    # a popped node without a free core stays out until a release frees one
    for node_id in popped:
        if free_cores[node_id] > 0:
            heapq.heappush(avail, node_id)
            queued[node_id] = True
    return placement


def release(table: SlotTable, placement: Placement) -> None:
    """Return all reserved cores and GPUs of a placement to their nodes."""
    uid = placement.task_uid
    if table._active.get(uid) is not placement:
        raise DoubleRelease(f"placement for task {uid} is not active")
    del table._active[uid]
    table.releases += 1
    threads = placement.cpu_threads_per_process
    gpus_pp = placement.gpus_per_process
    free_cores, free_gpus, holders = (
        table.free_cores, table.free_gpus, table.holders
    )
    avail, queued = table._avail, table._queued
    for node_id, procs in zip(placement.node_ids, placement.chunks):
        free_cores[node_id] += procs * threads
        free_gpus[node_id] += procs * gpus_pp
        holders[node_id].remove(uid)
        if not queued[node_id] and free_cores[node_id] > 0:
            heapq.heappush(avail, node_id)
            queued[node_id] = True


class Pilot:
    """The agent of one job: its stage progression (a :class:`JobRun`), its
    slot table, the FIFO queue of tasks eligible to place, and its event
    log, whose last event of each task is that task's state.

    Both backends run a job through :meth:`drive` and these methods, which
    keep the stages, the slots and the log in step; a backend adds only how
    and when tasks start and end. JOB_START is logged at ts 0 on creation.
    Its metadata lists the platform and allocation, then ``backend``,
    ``bootstrap_s`` and ``walltime_s`` (given in ``meta``, or null, 0 and
    null), then any further ``meta`` keys in the order given.
    """

    def __init__(
        self,
        specs: Sequence[WorkflowSpec],
        platform: PlatformConfig,
        nodes: int,
        **meta,
    ):
        self.job = JobRun(specs)
        self.table = SlotTable(platform.node, nodes)
        self.footprints = task_footprints(self.table, self.job.runs.values())
        self.queue: deque[TaskDescription] = deque()
        # the queue head that last failed to place, and table.releases then
        self._blocked: tuple[Optional[TaskDescription], int] = (None, 0)
        # the TASK_SCHEDULED detail of each reservation shape placed so far
        self._details: dict[tuple[int, int, tuple[int, ...]], str] = {}
        # the terminal events logged so far, by kind
        self._ends = dict.fromkeys(ev.TERMINAL_KINDS, 0)
        self.log = EventLog()
        start = {
            "backend": None,
            "platform": platform.name,
            "allocation_nodes": nodes,
            "cores_total": platform.node.cores_total,
            "cores_reserved": platform.node.cores_reserved,
            "gpus_per_node": platform.node.gpus,
            "bootstrap_s": 0.0,
            "walltime_s": None,
        }
        start.update(meta)  # a key already above keeps its place
        self.emit(0.0, ev.JOB_START, detail=json.dumps(start))

    def emit(self, ts, kind, uid=None, node_ids=None, detail="") -> None:
        self.log.append(Event(ts, kind, uid, node_ids, detail))

    def boot(self, ts: float) -> None:
        """Log BOOTSTRAP_DONE and queue every pipeline's first stage."""
        self.emit(ts, ev.BOOTSTRAP_DONE)
        self.queue.extend(self.job.first_stages())

    def place(self, ts: float) -> Optional[TaskDescription]:
        """Place the queue's head task: pop it, reserve its slots and log
        TASK_SCHEDULED with the placed chunks. Returns None, leaving queue
        and table unchanged, when the queue is empty or its head does not
        fit now. A head that failed to place is not tried again before a
        release: a failed try_place leaves the table as it was, and only a
        release makes room."""
        if not self.queue:
            return None
        desc = self.queue[0]
        blocked, releases = self._blocked
        if desc is blocked and releases == self.table.releases:
            return None
        placement = try_place(self.table, desc, self.footprints[desc.uid])
        if placement is None:
            self._blocked = (desc, self.table.releases)
            return None
        self.queue.popleft()
        # one detail text per (threads, GPUs, chunks) reservation shape
        key = (placement.cpu_threads_per_process, placement.gpus_per_process,
               placement.chunks)
        detail = self._details.get(key)
        if detail is None:
            detail = self._details[key] = ev.scheduled_detail(*key)
        self.emit(ts, ev.TASK_SCHEDULED, desc.uid, placement.node_ids, detail)
        return desc

    def launch(self, uid: str, ts: float) -> None:
        """Log TASK_LAUNCHED for a placed task, on its placement's nodes."""
        node_ids = self.table.placement_of(uid).node_ids
        self.emit(ts, ev.TASK_LAUNCHED, uid, node_ids)

    def finish(self, uid: str, kind: str, ts: float, detail: str = "") -> None:
        """Apply a terminal event: the log, the release of the task's slots,
        and the queueing of the tasks of the stage it opened.
        MalformedLog, changing nothing, for a kind that is not terminal."""
        if kind not in ev.TERMINAL_KINDS:
            raise MalformedLog(f"task {uid}: {kind} is not a terminal event")
        placement = self.table.placement_of(uid)
        node_ids = None if placement is None else placement.node_ids
        self.emit(ts, kind, uid, node_ids, detail)
        self._ends[kind] += 1
        if placement is not None:
            release(self.table, placement)
        self.queue.extend(self.job.finish(uid))

    def cancel_all(self, ts: float, detail: str) -> None:
        """Finish every task not yet terminal TASK_CANCELED, in job order,
        and empty the queue."""
        last_kind = self.log.last_kind
        for uid in self.job.runs:
            if last_kind(uid) not in ev.TERMINAL_KINDS:
                self.finish(uid, ev.TASK_CANCELED, ts, detail)
        self.queue.clear()

    @property
    def tally(self) -> str:
        """Terminal-event counts as the JOB_END detail reports them."""
        n = self._ends
        return (
            f"done={n[ev.TASK_DONE]} failed={n[ev.TASK_FAILED]} "
            f"canceled={n[ev.TASK_CANCELED]}"
        )

    def end(self, ts: float) -> None:
        """Log JOB_END with the terminal-event tally."""
        self.emit(ts, ev.JOB_END, detail=self.tally)

    def drive(self, backend) -> None:
        """Run the job to JOB_END, the one loop of both backends: place
        queue-head tasks while they fit and ``backend.ready()``, hand each
        to ``backend.start(desc)``, then ``backend.advance()`` to apply the
        next event; once every task is terminal, end at ``backend.now()``."""
        ready, now, start, advance = (
            backend.ready, backend.now, backend.start, backend.advance
        )
        place, queue, job = self.place, self.queue, self.job
        while True:
            while queue and ready() and (desc := place(now())) is not None:
                start(desc)
            advance()
            if job.all_terminal:
                break
        self.end(now())
