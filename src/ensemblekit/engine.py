"""Discrete-event simulator for one allocation ("batch job").

The backend that one job's :class:`~ensemblekit.scheduler.Pilot` drives
in simulated time. The pilot's one drive loop places tasks and ends the
job, and keeps the tasks, slots and append-only event log; this module
decides when each placed task launches and how it ends, and :func:`step`
applies one heap event. Strictly single-threaded and deterministic:
identical inputs and seeds yield byte-identical logs.

A job of T tasks and F node faults ends within 2 + F + 2T steps: each step
pops one heap entry, and only the bootstrap, the walltime, the node faults,
one launch per placed task and one end per launched task are pushed. A
launch is never stale: only the walltime, which ends the job, finishes a
task between its schedule and its launch.

How long a task runs is one :class:`RuntimeModel` for the whole job.

Fault injection: :func:`run_simulated` takes the job's :class:`NodeFault`
and :class:`TaskFault` lists. A node fault fails its node's holders, the
tasks launched there and not yet ended, and comes before a launch at the
same instant; a task placed but not yet launched survives it. A persistent
fault also fails every later run on the node, at its natural end: nothing
diagnoses the node, so the scheduler keeps placing work there, which
reproduces the cascade of sequential failures one bad node causes in a
wave-structured run. Task faults fail one task at a fraction of its
runtime. The simulator records a node's holders as they launch, and only
while a fault of that node is still to come.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import ConfigError, PolicyViolation
from ensemblekit.events import EventLog
from ensemblekit.platform import PlatformConfig, max_walltime_for, usable_cores
from ensemblekit.pst import TaskDescription, WorkflowSpec
from ensemblekit.scheduler import Pilot


@dataclass(frozen=True)
class RuntimeModel:
    """How long every task runs, plus the seed: a fixed ``lo_s``, a uniform
    draw from [``lo_s``, ``hi_s``], or each task's own expected_runtime_s
    hint (``kind`` "fixed", "uniform" or "expected").

    Draws are keyed by (seed, task uid) so a task's duration does not depend
    on scheduling order: each draw reseeds the model's one generator, which
    draws what ``random.Random(f"{seed}/{uid}")`` would.
    """

    kind: str = "expected"  # "fixed" | "uniform" | "expected"
    lo_s: float = 0.0
    hi_s: float = 0.0
    seed: int = 0
    _rng: random.Random = field(
        default_factory=random.Random, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "expected"):
            raise ConfigError(f"unknown duration kind {self.kind!r}")
        if not (math.isfinite(self.lo_s) and math.isfinite(self.hi_s)):
            raise ConfigError("duration bounds must be finite")
        if self.kind == "fixed" and self.lo_s <= 0:
            raise ConfigError("fixed duration must be > 0")
        if self.kind == "uniform":
            if self.lo_s <= 0 or self.hi_s < self.lo_s:
                raise ConfigError("uniform duration needs 0 < lo <= hi")

    def duration_for(self, desc: TaskDescription) -> float:
        if self.kind == "fixed":
            return self.lo_s
        if self.kind == "uniform":
            rng = self._rng
            rng.seed(f"{self.seed}/{desc.uid}")
            return rng.uniform(self.lo_s, self.hi_s)
        if desc.expected_runtime_s is None:
            raise ConfigError(
                f"task {desc.uid} has no expected_runtime_s and the runtime "
                f"model is 'expected'"
            )
        return desc.expected_runtime_s


@dataclass(frozen=True)
class NodeFault:
    node_id: int
    at_ts: float
    persistent: bool


@dataclass(frozen=True)
class TaskFault:
    uid: str
    at_fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.at_fraction <= 1:
            raise ConfigError("at_fraction must be in (0, 1]")


# Internal event priorities at equal timestamps: completions run before
# failures, failures before launches, walltime expiry last.
_PRIO_BOOTSTRAP = 0
_PRIO_COMPLETE = 1
_PRIO_FAIL = 2
_PRIO_LAUNCH = 3
_PRIO_WALLTIME = 4


class SimState:
    """Mutable state of a running simulation, and the backend its
    :class:`Pilot` drives: each :meth:`advance` applies one heap event
    through :func:`step`. The job's tasks, slots and log live in the pilot;
    the state adds the pending-event heap, the runtime model, the injected
    node and task faults, and launch timing. For each node a node fault
    names, and no other, it keeps the uids launched there since the node's
    previous fault, until its last fault fires: a fault's holders are those
    whose task has not ended."""

    def __init__(
        self,
        specs: Sequence[WorkflowSpec],
        platform: PlatformConfig,
        allocation_nodes: int,
        walltime_s: float,
        runtime_model: RuntimeModel,
        node_faults: Sequence[NodeFault] = (),
        task_faults: Sequence[TaskFault] = (),
        launch_delay_s: float = 0.0,
        launch_rate_cap: Optional[float] = None,
    ):
        if runtime_model.kind == "expected":
            # a task without a hint is rejected before the job starts, not
            # when it launches, or never if the walltime cancels it first
            for spec in specs:
                for desc in spec.tasks():
                    runtime_model.duration_for(desc)
        self.pilot = Pilot(
            specs,
            platform,
            allocation_nodes,
            backend="sim",
            bootstrap_s=platform.bootstrap_overhead_s,
            walltime_s=walltime_s,
        )
        self.log = self.pilot.log
        self.runtime_model = runtime_model
        self.task_faults: dict[str, float] = {
            f.uid: f.at_fraction for f in task_faults
        }
        unknown = sorted(
            uid for uid in self.task_faults if uid not in self.pilot.job.runs
        )
        if unknown:
            raise ConfigError(f"task faults name no task of the job: {unknown}")
        self.persistent_failed: set[int] = set()
        self.launch_delay_s = launch_delay_s
        self.launch_rate_cap = launch_rate_cap
        self.next_launch_ts = 0.0
        self.ts = 0.0
        self._seq = itertools.count()
        self.heap: list[tuple[float, int, str, int, str, object]] = []
        # faulted node id -> the time of its last fault, and, until that
        # fault fires, the uids launched on it since its previous fault
        self._last_fault: dict[int, float] = {}
        self._holders: dict[int, list[str]] = {}

        self._push(
            platform.bootstrap_overhead_s, _PRIO_BOOTSTRAP, "", "bootstrap", None
        )
        for fault in node_faults:
            if not 0 <= fault.node_id < allocation_nodes:
                raise ConfigError(
                    f"fault node {fault.node_id} outside allocation"
                )
            if not 0 <= fault.at_ts <= walltime_s:
                raise ConfigError("fault at_ts outside job walltime")
            self._push(
                fault.at_ts, _PRIO_FAIL, f"node:{fault.node_id}",
                "node_fault", fault,
            )
            last = self._last_fault.get(fault.node_id, fault.at_ts)
            self._last_fault[fault.node_id] = max(last, fault.at_ts)
        self._push(walltime_s, _PRIO_WALLTIME, "", "walltime", None)

    def _push(self, ts: float, prio: int, key: str, action: str, data) -> None:
        heapq.heappush(self.heap, (ts, prio, key, next(self._seq), action, data))

    # -- the backend the pilot drives ---------------------------------------

    def now(self) -> float:
        return self.ts

    def ready(self) -> bool:
        return True

    def start(self, desc: TaskDescription) -> None:
        """Schedule a placed task's launch after the launch delay, and no
        sooner than the launch rate cap allows."""
        launch_ts = self.ts + self.launch_delay_s
        if self.launch_rate_cap is not None:
            launch_ts = max(launch_ts, self.next_launch_ts)
            self.next_launch_ts = launch_ts + 1.0 / self.launch_rate_cap
        self._push(launch_ts, _PRIO_LAUNCH, desc.uid, "launch", None)

    def advance(self) -> None:
        """Apply the next heap event through :func:`step`."""
        step(self)


# kept a module function taking and returning the state: perfbench/tracer.py
# reads state.heap[0][4] and len(state.log) around each call
def step(state: SimState) -> SimState:
    """Pop the earliest pending event, apply it, enqueue consequents.

    Simultaneous events process in (ts, kind-priority, uid) order with
    completions before failures before launches. The pilot's drive loop,
    not this step, places the tasks the event lets fit. A launch is never
    stale, and an end is stale only when a node fault failed its task
    first. A job of T tasks and F node faults takes at most 2 + F + 2T
    steps, and the walltime entry keeps the heap from emptying while tasks
    are open: its step makes every task terminal.
    """
    ts, prio, key, _seq, action, data = heapq.heappop(state.heap)
    state.ts = ts
    pilot = state.pilot
    if action == "bootstrap":
        pilot.boot(ts)
    elif action == "complete" or action == "task_fail":
        # a task runs once per job, so an end whose task's last event is not
        # its launch is stale: a node fault finished it first
        if state.log.last_kind(key) == ev.TASK_LAUNCHED:
            kind = ev.TASK_DONE if action == "complete" else ev.TASK_FAILED
            pilot.finish(key, kind, ts, data)
    elif action == "node_fault":
        pilot.emit(
            ts,
            ev.NODE_FAILED,
            node_ids=(data.node_id,),
            detail="persistent" if data.persistent else "transient",
        )
        if data.persistent:
            state.persistent_failed.add(data.node_id)
        # each task running on the node launched after its previous fault,
        # which popped the node's list: fail those not ended, in uid order
        last_kind = state.log.last_kind
        running = sorted(
            uid for uid in state._holders.pop(data.node_id, ())
            if last_kind(uid) == ev.TASK_LAUNCHED
        )
        for uid in running:
            pilot.finish(
                uid, ev.TASK_FAILED, ts, f"node_failure node={data.node_id}"
            )
    elif action == "launch":
        pilot.launch(key, ts)
        duration = state.runtime_model.duration_for(pilot.job.runs[key])
        bad = ()
        last_fault = state._last_fault  # empty without node faults
        if last_fault:
            nodes = pilot.table.placement_of(key).node_ids
            # held where a fault of the node is still to come: one at this
            # instant popped before this launch
            for node_id in nodes:
                if ts < last_fault.get(node_id, ts):
                    state._holders.setdefault(node_id, []).append(key)
            if state.persistent_failed:
                bad = sorted(state.persistent_failed.intersection(nodes))
        if bad:
            # node is accepting launches but every run on it is doomed;
            # the crash surfaces at the task's natural end
            state._push(
                ts + duration, _PRIO_FAIL, key, "task_fail",
                f"node_failure node={bad[0]}",
            )
        elif key in state.task_faults:
            fail_ts = ts + state.task_faults[key] * duration
            state._push(fail_ts, _PRIO_FAIL, key, "task_fail", "task_fault")
        else:
            state._push(ts + duration, _PRIO_COMPLETE, key, "complete", "")
    elif action == "walltime":
        pilot.cancel_all(ts, "walltime")
    return state


def run_simulated(
    specs: Sequence[WorkflowSpec] | WorkflowSpec,
    platform: PlatformConfig,
    allocation_nodes: int,
    walltime_s: float,
    runtime_model: RuntimeModel,
    *,
    node_faults: Sequence[NodeFault] = (),
    task_faults: Sequence[TaskFault] = (),
    launch_delay_s: float = 0.0,
    launch_rate_cap: Optional[float] = None,
) -> EventLog:
    """Simulate one batch job over the given pipelines and return its log.

    Deterministic given seeds. The log starts with JOB_START at ts 0 and
    BOOTSTRAP_DONE at the platform's bootstrap overhead; tasks still running
    at the walltime are canceled and the job ends exactly then.
    ``node_faults`` and ``task_faults`` are injected into this job:
    ConfigError for a fault on a node outside the allocation or at a time
    outside [0, walltime_s], or on a task the job does not hold.
    """
    if isinstance(specs, WorkflowSpec):
        specs = [specs]
    if not 1 <= allocation_nodes <= platform.node_count:
        raise ConfigError(
            f"allocation of {allocation_nodes} nodes outside platform "
            f"{platform.name} ({platform.node_count} nodes)"
        )
    if not math.isfinite(walltime_s):
        raise ConfigError(f"walltime {walltime_s} must be finite")
    # the widest unit's slot-seconds bound every figure the log's accounting
    # computes; node_count and the node's counts are at most MAX_SLOTS, so
    # the integer product converts to a float
    node = platform.node
    capacity = (
        allocation_nodes * max(usable_cores(node), node.gpus, 1) * walltime_s
    )
    if not math.isfinite(capacity):
        raise ConfigError(
            f"{allocation_nodes} nodes for {walltime_s}s leave the float "
            f"range in slot-seconds"
        )
    limit = max_walltime_for(platform.policy, allocation_nodes)
    if walltime_s > limit:
        raise PolicyViolation(
            f"walltime {walltime_s}s exceeds policy limit {limit}s "
            f"for {allocation_nodes} nodes"
        )
    if walltime_s <= platform.bootstrap_overhead_s:
        raise ConfigError("walltime must exceed the bootstrap overhead")
    if not (math.isfinite(launch_delay_s) and launch_delay_s >= 0):
        raise ConfigError(
            f"launch delay {launch_delay_s} must be finite and >= 0"
        )
    if launch_rate_cap is not None and not (
        math.isfinite(launch_rate_cap) and launch_rate_cap > 0
    ):
        raise ConfigError(
            f"launch rate cap {launch_rate_cap} must be finite and > 0"
        )
    state = SimState(
        specs,
        platform,
        allocation_nodes,
        walltime_s,
        runtime_model,
        node_faults,
        task_faults,
        launch_delay_s=launch_delay_s,
        launch_rate_cap=launch_rate_cap,
    )
    state.pilot.drive(state)
    return state.log
