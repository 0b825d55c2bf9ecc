"""Pilot-side placement: per-node free core/GPU slot tables.

Placement is strict FIFO with no backfill: the queue head blocks everything
behind it. Nodes are chosen first-fit by ascending node id, each carrying a
full chunk of ``procs_per_node`` ranks except possibly the last. Tasks may
share a node when slots allow. All of it is deterministic: identical table
and queue inputs yield identical placements. Both backends place through
this module: :func:`task_footprints` rejects a job up front when a task
could never fit, and :func:`schedule_head` places the head of the queue.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import (
    DoubleRelease,
    EnsembleKitError,
    UnknownNode,
    Unplaceable,
)
from ensemblekit.events import Event, EventLog
from ensemblekit.platform import NodeSpec, task_footprint, usable_cores
from ensemblekit.pst import TaskDescription, TaskRun, TaskState, transition_task


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
        self.healthy = [True] * node_count
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

    def snapshot(self) -> tuple[tuple[int, int, bool], ...]:
        """Immutable (free_cores, free_gpus, healthy) view, by node id."""
        return tuple(
            (self.free_cores[i], self.free_gpus[i], self.healthy[i])
            for i in range(self.node_count)
        )


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


def schedule_head(
    table: SlotTable,
    footprints: dict[str, tuple[int, int]],
    queue: deque[TaskRun],
    log: EventLog,
    ts: float,
) -> Optional[TaskRun]:
    """Place the queue's head task: pop it, mark it SCHEDULED on its nodes
    and log TASK_SCHEDULED with the placed chunks. Returns None, leaving
    queue and table unchanged, when the head does not fit now."""
    run = queue[0]
    desc = run.desc
    placement = try_place(table, desc, footprints[desc.uid])
    if placement is None:
        return None
    queue.popleft()
    transition_task(run, TaskState.SCHEDULED, ts)
    run.node_ids = placement.node_ids
    log.append(
        Event(
            ts=ts,
            kind=ev.TASK_SCHEDULED,
            task_uid=desc.uid,
            node_ids=placement.node_ids,
            detail=ev.scheduled_detail(
                desc.cpu_threads_per_process,
                desc.gpus_per_process,
                [procs for _, procs in placement.assignments],
            ),
        )
    )
    return run


def try_place(
    table: SlotTable, desc: TaskDescription, footprint: tuple[int, int]
) -> Optional[Placement]:
    """Reserve slots for one task, or return None leaving the table unchanged.

    Scans healthy nodes in ascending id order. All chunks are
    ``procs_per_node`` ranks except the last, which carries the remainder.
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
        if not table.healthy[node_id]:
            continue
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


def drain_queue(
    table: SlotTable, queue: Sequence[TaskDescription]
) -> tuple[list[Placement], list[TaskDescription]]:
    """Place tasks head-first; the first one that does not fit blocks the
    rest (no backfill). Returns placements in queue order plus the waiters."""
    placements: list[Placement] = []
    waiting = list(queue)
    while waiting:
        desc = waiting[0]
        footprint = task_footprint(desc, table.node)
        placement = try_place(table, desc, footprint)
        if placement is None:
            break
        placements.append(placement)
        waiting.pop(0)
    return placements, waiting


def mark_node_health(table: SlotTable, node_id: int, healthy: bool) -> None:
    """Exclude (or re-admit) a node for future placements; existing
    placements on it are untouched."""
    if not 0 <= node_id < table.node_count:
        raise UnknownNode(f"node {node_id} outside table of {table.node_count}")
    table.healthy[node_id] = healthy
    if healthy:
        table._offer(node_id)
