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
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import (
    ConfigError,
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

# tuple's own constructor: Event(...) and Placement(...) run NamedTuple's
# __new__ in Python, several times the cost of the tuple it builds
_new = tuple.__new__


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
    leaves the heap until a release frees one: the heap holds each node
    with a free core exactly once. The table keeps no per-node record of
    which tasks a node holds: a placement names its nodes, and the simulator
    keeps the uids launched on the nodes its node faults name
    (:class:`~ensemblekit.engine.SimState`). An allocation too large for
    memory to hold its tables is a ConfigError.
    """

    def __init__(self, node: NodeSpec, node_count: int):
        if node_count < 1:
            raise EnsembleKitError("node_count must be >= 1")
        self.node = node
        self.node_count = node_count
        cores = usable_cores(node)
        try:
            self.free_cores = [cores] * node_count
            self.free_gpus = [node.gpus] * node_count
            self._avail = list(range(node_count))  # already a heap: sorted
        except MemoryError:
            raise ConfigError(
                f"an allocation of {node_count} nodes is too large to hold "
                f"its slot tables"
            ) from None
        self._active: dict[str, Placement] = {}
        # bumped by every release: only a release makes room
        self.releases = 0

    # kept though nothing in the package calls it: perfbench/tracer.py
    # wraps it by name and reads the length of the copy it returns
    def active_placements(self) -> dict[str, Placement]:
        """A copy of every active placement by task uid; O(active), so the
        engine's per-event paths use ``placement_of``."""
        return dict(self._active)

    def placement_of(self, uid: str) -> Optional[Placement]:
        return self._active.get(uid)


def task_footprints(
    table: SlotTable, descs: Iterable[TaskDescription]
) -> dict[str, tuple[tuple[int, ...], str]]:
    """Each task's ``(chunks, detail)`` record on the table's node shape, by
    uid: its ranks per node, ``procs_per_node`` on every node but the last,
    which carries the rest, and its TASK_SCHEDULED detail. The tasks of one
    (procs, threads, GPUs) shape share one record, built once.

    Raises Unplaceable for a task that could never fit the table, naming
    the first task of its shape, so a job is rejected before anything of it
    runs.
    """
    out: dict[str, tuple[tuple[int, ...], str]] = {}
    by_shape: dict[tuple[int, int, int], tuple[tuple[int, ...], str]] = {}
    for desc in descs:
        shape = (
            desc.cpu_processes,
            desc.cpu_threads_per_process,
            desc.gpus_per_process,
        )
        record = by_shape.get(shape)
        if record is None:
            nodes, ppn = task_footprint(desc, table.node)
            if nodes > table.node_count:
                raise Unplaceable(
                    f"task {desc.uid} needs {nodes} nodes; allocation "
                    f"has {table.node_count}"
                )
            rest = desc.cpu_processes - ppn * (nodes - 1)
            chunks = (ppn,) * (nodes - 1) + (rest,)
            record = by_shape[shape] = (
                chunks, ev.scheduled_detail(shape[1], shape[2], chunks)
            )
        out[desc.uid] = record
    return out


def try_place(
    table: SlotTable, desc: TaskDescription, chunks: tuple[int, ...]
) -> Optional[Placement]:
    """Reserve ``chunks[i]`` ranks of one task on the i-th node chosen, first
    fit in ascending id order, or return None leaving the table unchanged.
    Every chunk but the last is the first one's size, as in
    :func:`task_footprints`; the placement carries ``chunks`` itself."""
    uid = desc.uid
    if uid in table._active:
        raise EnsembleKitError(f"task {uid} already placed")
    nodes_needed = len(chunks)
    threads = desc.cpu_threads_per_process
    gpus_pp = desc.gpus_per_process
    free_cores, free_gpus = table.free_cores, table.free_gpus
    avail = table._avail

    chosen: list[int] = []
    popped: list[int] = []
    # the cores and GPUs of the next chunk: the first chunk's size until
    # all but the last node are chosen, then the last chunk's
    cores, gpus = chunks[0] * threads, chunks[0] * gpus_pp
    while avail and len(chosen) < nodes_needed:
        node_id = heapq.heappop(avail)
        popped.append(node_id)
        if free_cores[node_id] >= cores and free_gpus[node_id] >= gpus:
            chosen.append(node_id)
            if len(chosen) == nodes_needed - 1:
                cores, gpus = chunks[-1] * threads, chunks[-1] * gpus_pp

    placement = None
    if len(chosen) == nodes_needed:
        for node_id, procs in zip(chosen, chunks):
            free_cores[node_id] -= procs * threads
            free_gpus[node_id] -= procs * gpus_pp
        placement = _new(
            Placement, (uid, tuple(chosen), chunks, threads, gpus_pp)
        )
        table._active[uid] = placement
    # a popped node without a free core stays out until a release frees one
    for node_id in popped:
        if free_cores[node_id] > 0:
            heapq.heappush(avail, node_id)
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
    free_cores, free_gpus = table.free_cores, table.free_gpus
    avail = table._avail
    for node_id, procs in zip(placement.node_ids, placement.chunks):
        # a node is out of the heap exactly when it has no free core, and
        # every chunk frees at least one
        if not free_cores[node_id]:
            heapq.heappush(avail, node_id)
        free_cores[node_id] += procs * threads
        free_gpus[node_id] += procs * gpus_pp


class Pilot:
    """The agent of one job: its stage progression (a :class:`JobRun`), its
    slot table, the FIFO queue of tasks eligible to place, and its event
    log, whose last event of each task is that task's state.

    Both backends run a job through :meth:`drive` and these methods, which
    keep the stages, the slots and the log in step; a backend adds only how
    and when tasks start and end. JOB_START, logged at ts 0 on creation,
    carries the job's :func:`~ensemblekit.events.run_metadata`.
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
        self.log = EventLog()
        start = ev.run_metadata(platform, nodes, **meta)
        self.emit(0.0, ev.JOB_START, detail=start)

    def emit(self, ts, kind, uid=None, node_ids=None, detail="") -> None:
        # every event of a job is built here, once per event: tuple.__new__
        # builds the same Event as Event(...) without its Python __new__
        self.log.append(_new(Event, (ts, kind, uid, node_ids, detail)))

    def boot(self, ts: float) -> None:
        """Log BOOTSTRAP_DONE and queue every pipeline's first stage."""
        self.emit(ts, ev.BOOTSTRAP_DONE)
        self.queue.extend(self.job.first_stages())

    def place(self, ts: float) -> Optional[TaskDescription]:
        """Place the queue's head task: pop it, reserve its shape's chunks
        and log TASK_SCHEDULED with its shape's detail. Returns None,
        leaving queue and table unchanged, when the queue is empty or its
        head does not fit now. A head that failed to place is not tried
        again before a release: a failed try_place leaves the table as it
        was, and only a release makes room."""
        if not self.queue:
            return None
        desc = self.queue[0]
        blocked, releases = self._blocked
        if desc is blocked and releases == self.table.releases:
            return None
        chunks, detail = self.footprints[desc.uid]
        placement = try_place(self.table, desc, chunks)
        if placement is None:
            self._blocked = (desc, self.table.releases)
            return None
        self.queue.popleft()
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
        """Terminal-event counts as the JOB_END detail reports them: a
        task's last event is its one terminal event, if it has one."""
        last_kind = self.log.last_kind
        kinds = [last_kind(uid) for uid in self.job.runs]
        return (
            f"done={kinds.count(ev.TASK_DONE)} "
            f"failed={kinds.count(ev.TASK_FAILED)} "
            f"canceled={kinds.count(ev.TASK_CANCELED)}"
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
