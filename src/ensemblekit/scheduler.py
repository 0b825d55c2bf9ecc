"""Pilot-side placement: per-node free core/GPU slot tables, and the
:class:`Pilot` that keeps one job's tasks, slots and event log.

Placement is strict FIFO with no backfill: the queue head blocks everything
behind it. Nodes are chosen first-fit by ascending node id, each carrying a
full chunk of ``procs_per_node`` ranks except possibly the last. Tasks may
share a node when slots allow. All of it is deterministic: identical table
and queue inputs yield identical placements. Both backends run a job
through a :class:`Pilot`: :func:`task_footprints` rejects the job up front
when a task could never fit, and :meth:`Pilot.place` places the head of the
queue.

Every node of the table stays eligible for the life of the job: a failed
node is never taken out, so the pilot keeps placing work on it, which is
the one-failure-per-wave cascade of a persistent fault. Failed tasks are
retried as a fresh job by :mod:`ensemblekit.resilience`.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import DoubleRelease, EnsembleKitError, Unplaceable
from ensemblekit.events import Event, EventLog
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    task_footprint,
    usable_cores,
)
from ensemblekit.pst import (
    JobRun,
    TaskDescription,
    TaskRun,
    TaskState,
    WorkflowSpec,
    transition_task,
)


@dataclass(frozen=True)
class Placement:
    """Reserved slots for one task: (node_id, ranks on that node) pairs plus
    the per-rank core/GPU widths needed to undo the reservation."""

    task_uid: str
    assignments: tuple[tuple[int, int], ...]
    cpu_threads_per_process: int
    gpus_per_process: int

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.assignments)

    def cores_on(self, procs: int) -> int:
        return procs * self.cpu_threads_per_process

    def gpus_on(self, procs: int) -> int:
        return procs * self.gpus_per_process


class SlotTable:
    """Free core/GPU slots per node of one allocation.

    Single-writer: only the owning backend's event loop mutates a table. A min-heap
    of node ids with a free core keeps first-fit scans cheap at the
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

    def _offer(self, node_id: int) -> None:
        if not self._queued[node_id] and self.free_cores[node_id] > 0:
            heapq.heappush(self._avail, node_id)
            self._queued[node_id] = True

    def active_placements(self) -> dict[str, Placement]:
        """A copy of every active placement by task uid; O(active), so the
        engine's per-event paths use ``placement_of`` and ``holders``."""
        return dict(self._active)

    def placement_of(self, uid: str) -> Optional[Placement]:
        return self._active.get(uid)


def task_footprints(
    table: SlotTable, descs: Iterable[TaskDescription]
) -> dict[str, tuple[int, int]]:
    """Footprint of every task on the table's node shape, by uid.

    Raises Unplaceable for a task that could never fit the table, so a job
    is rejected before anything of it runs.
    """
    out: dict[str, tuple[int, int]] = {}
    for desc in descs:
        fp = task_footprint(desc, table.node)
        if fp[0] > table.node_count:
            raise Unplaceable(
                f"task {desc.uid} needs {fp[0]} nodes; allocation "
                f"has {table.node_count}"
            )
        out[desc.uid] = fp
    return out


def try_place(
    table: SlotTable, desc: TaskDescription, footprint: tuple[int, int]
) -> Optional[Placement]:
    """Reserve slots for one task, or return None leaving the table unchanged.

    Scans nodes in ascending id order. All chunks are ``procs_per_node``
    ranks except the last, which carries the remainder.
    """
    if desc.uid in table._active:
        raise EnsembleKitError(f"task {desc.uid} already placed")
    nodes_needed, procs_per_node = footprint
    threads = desc.cpu_threads_per_process
    gpus_pp = desc.gpus_per_process
    remainder = desc.cpu_processes - procs_per_node * (nodes_needed - 1)
    chunks = [procs_per_node] * (nodes_needed - 1) + [remainder]

    chosen: list[tuple[int, int]] = []
    popped: list[int] = []
    while table._avail and len(chosen) < nodes_needed:
        node_id = heapq.heappop(table._avail)
        table._queued[node_id] = False
        popped.append(node_id)
        chunk = chunks[len(chosen)]
        if (
            table.free_cores[node_id] >= chunk * threads
            and table.free_gpus[node_id] >= chunk * gpus_pp
        ):
            chosen.append((node_id, chunk))

    if len(chosen) < nodes_needed:
        for node_id in popped:
            table._offer(node_id)
        return None

    placement = Placement(
        task_uid=desc.uid,
        assignments=tuple(chosen),
        cpu_threads_per_process=threads,
        gpus_per_process=gpus_pp,
    )
    for node_id, procs in chosen:
        table.free_cores[node_id] -= procs * threads
        table.free_gpus[node_id] -= procs * gpus_pp
        table.holders[node_id].add(desc.uid)
    for node_id in popped:
        table._offer(node_id)
    table._active[desc.uid] = placement
    return placement


def release(table: SlotTable, placement: Placement) -> None:
    """Return all reserved cores and GPUs of a placement to their nodes."""
    if table._active.get(placement.task_uid) is not placement:
        raise DoubleRelease(
            f"placement for task {placement.task_uid} is not active"
        )
    del table._active[placement.task_uid]
    for node_id, procs in placement.assignments:
        table.free_cores[node_id] += placement.cores_on(procs)
        table.free_gpus[node_id] += placement.gpus_on(procs)
        table.holders[node_id].remove(placement.task_uid)
        table._offer(node_id)


class Pilot:
    """The agent of one job: its tasks (a :class:`JobRun`), its slot table,
    the FIFO queue of tasks eligible to place, and its event log.

    Both backends drive a job only through these methods, which keep the
    task states, the slots and the log in step; a backend adds only how
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
        self.footprints = task_footprints(
            self.table, (run.desc for run in self.job.runs.values())
        )
        self.queue: deque[TaskRun] = deque()
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
        self.log.append(
            Event(ts=ts, kind=kind, task_uid=uid, node_ids=node_ids, detail=detail)
        )

    def boot(self, ts: float) -> None:
        """Log BOOTSTRAP_DONE and queue every pipeline's first stage."""
        self.emit(ts, ev.BOOTSTRAP_DONE)
        self.queue.extend(self.job.first_stages())

    def place(self, ts: float) -> Optional[TaskRun]:
        """Place the queue's head task: pop it, mark it SCHEDULED on its nodes
        and log TASK_SCHEDULED with the placed chunks. Returns None, leaving
        queue and table unchanged, when the queue is empty or its head does
        not fit now."""
        if not self.queue:
            return None
        run = self.queue[0]
        desc = run.desc
        placement = try_place(self.table, desc, self.footprints[desc.uid])
        if placement is None:
            return None
        self.queue.popleft()
        transition_task(run, TaskState.SCHEDULED, ts)
        run.node_ids = placement.node_ids
        self.emit(
            ts,
            ev.TASK_SCHEDULED,
            desc.uid,
            placement.node_ids,
            ev.scheduled_detail(
                desc.cpu_threads_per_process,
                desc.gpus_per_process,
                [procs for _, procs in placement.assignments],
            ),
        )
        return run

    def launch(self, run: TaskRun, ts: float) -> None:
        """Mark a placed task RUNNING and log TASK_LAUNCHED."""
        transition_task(run, TaskState.RUNNING, ts)
        self.emit(ts, ev.TASK_LAUNCHED, run.desc.uid, run.node_ids)

    def finish(self, uid: str, kind: str, ts: float, detail: str = "") -> None:
        """Apply a terminal event: the task's state, the log, the release of
        its slots, and the queueing of the stage it opened."""
        opened = self.job.finish(uid, ev.STATE_OF_KIND[kind], ts)
        self.emit(ts, kind, uid, self.job.runs[uid].node_ids or None, detail)
        placement = self.table.placement_of(uid)
        if placement is not None:
            release(self.table, placement)
        self.queue.extend(opened)

    def cancel_all(self, ts: float, detail: str) -> None:
        """Finish every task not yet terminal TASK_CANCELED, in job order,
        and empty the queue."""
        for uid, run in self.job.runs.items():
            if not run.state.terminal:
                self.finish(uid, ev.TASK_CANCELED, ts, detail)
        self.queue.clear()

    def end(self, ts: float) -> None:
        """Log JOB_END with the terminal-state tally."""
        self.emit(ts, ev.JOB_END, detail=self.job.tally)
