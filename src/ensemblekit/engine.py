"""Discrete-event simulator for one allocation ("batch job").

The backend that one job's :class:`~ensemblekit.scheduler.Pilot` drives
in simulated time. The pilot's one drive loop places tasks and ends the
job, and keeps the tasks, slots and append-only event log; this module
decides when each placed task launches and how it ends, and :func:`step`
applies one heap event. Strictly single-threaded and deterministic:
identical inputs and seeds yield byte-identical logs.

Fault injection: a persistent node fault kills the task running on the node
at fault time and every task launched onto it afterwards; the scheduler keeps
placing work there because nothing diagnoses the node, which reproduces the
cascade of sequential failures one bad node causes in a wave-structured run.
A transient fault kills current holders only. Task faults fail one task at a
fraction of its runtime.
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
class DurationSpec:
    """How long a task class runs: a fixed value, a uniform draw, or the
    task's own expected_runtime_s hint."""

    kind: str  # "fixed" | "uniform" | "expected"
    lo_s: float = 0.0
    hi_s: float = 0.0

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

    @classmethod
    def fixed(cls, seconds: float) -> "DurationSpec":
        return cls(kind="fixed", lo_s=seconds, hi_s=seconds)

    @classmethod
    def uniform(cls, lo_s: float, hi_s: float) -> "DurationSpec":
        return cls(kind="uniform", lo_s=lo_s, hi_s=hi_s)

    @classmethod
    def expected(cls) -> "DurationSpec":
        return cls(kind="expected")


@dataclass(frozen=True)
class RuntimeModel:
    """One duration distribution for every task, plus the seed.

    Draws are keyed by (seed, task uid) so a task's duration does not depend
    on scheduling order: each draw reseeds the model's one generator, which
    draws what ``random.Random(f"{seed}/{uid}")`` would.
    """

    default: DurationSpec = field(default_factory=DurationSpec.expected)
    seed: int = 0
    _rng: random.Random = field(
        default_factory=random.Random, init=False, repr=False, compare=False
    )

    def duration_for(self, desc: TaskDescription) -> float:
        spec = self.default
        if spec.kind == "fixed":
            return spec.lo_s
        if spec.kind == "uniform":
            rng = self._rng
            rng.seed(f"{self.seed}/{desc.uid}")
            return rng.uniform(spec.lo_s, spec.hi_s)
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


@dataclass(frozen=True)
class FailureModel:
    node_faults: tuple[NodeFault, ...] = ()
    task_faults: tuple[TaskFault, ...] = ()


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
    the state adds the pending-event heap, the runtime and fault models and
    launch timing."""

    def __init__(
        self,
        specs: Sequence[WorkflowSpec],
        platform: PlatformConfig,
        allocation_nodes: int,
        walltime_s: float,
        runtime_model: RuntimeModel,
        failure_model: Optional[FailureModel],
        launch_delay_s: float = 0.0,
        launch_rate_cap: Optional[float] = None,
    ):
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
        failure_model = failure_model or FailureModel()
        self.task_faults: dict[str, float] = {
            f.uid: f.at_fraction for f in failure_model.task_faults
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
        # no job of this size takes more steps: more means an internal stall
        self._steps_left = 200 * max(len(self.pilot.job.runs), 1) + 10_000
        self._seq = itertools.count()
        self.heap: list[tuple[float, int, str, int, str, object]] = []

        self._push(
            platform.bootstrap_overhead_s, _PRIO_BOOTSTRAP, "", "bootstrap", None
        )
        for fault in failure_model.node_faults:
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
        self._push(walltime_s, _PRIO_WALLTIME, "", "walltime", None)

    # -- helpers ------------------------------------------------------------

    def _push(self, ts: float, prio: int, key: str, action: str, data) -> None:
        heapq.heappush(self.heap, (ts, prio, key, next(self._seq), action, data))

    def _running_holders(self, node_id: int) -> list[str]:
        # sorted: set order of strings depends on PYTHONHASHSEED
        last_kind = self.log.last_kind
        return sorted(
            uid
            for uid in self.pilot.table.holders[node_id]
            if last_kind(uid) == ev.TASK_LAUNCHED
        )

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
        """Apply the next heap event through :func:`step`. RuntimeError if
        no event is left while tasks are open, or after more steps than a
        job of this size takes."""
        if not self.heap:
            raise RuntimeError("simulation ran out of events with tasks open")
        self._steps_left -= 1
        if self._steps_left < 0:
            raise RuntimeError("simulation did not converge (internal stall)")
        step(self)

    # -- handlers -----------------------------------------------------------

    def _handle_launch(self, ts: float, uid: str) -> None:
        if self.log.last_kind(uid) != ev.TASK_SCHEDULED:
            return  # stale: task was canceled or failed before launching
        self.pilot.launch(uid, ts)
        duration = self.runtime_model.duration_for(self.pilot.job.runs[uid])
        failed = self.persistent_failed  # empty until a persistent fault
        if failed:
            nodes = self.pilot.table.placement_of(uid).node_ids
            bad = sorted(failed.intersection(nodes))
        else:
            bad = ()
        if bad:
            # node is accepting launches but every run on it is doomed;
            # the crash surfaces at the task's natural end
            self._push(
                ts + duration, _PRIO_FAIL, uid, "task_fail",
                f"node_failure node={bad[0]}",
            )
        elif uid in self.task_faults:
            fail_ts = ts + self.task_faults[uid] * duration
            self._push(fail_ts, _PRIO_FAIL, uid, "task_fail", "task_fault")
        else:
            self._push(ts + duration, _PRIO_COMPLETE, uid, "complete", None)

    def _handle_end_of_run(
        self, ts: float, uid: str, kind: str, detail: str
    ) -> None:
        # a task runs once per job, so an end whose task's last event is not
        # its launch is stale: a node fault or the walltime finished it first
        if self.log.last_kind(uid) != ev.TASK_LAUNCHED:
            return
        self.pilot.finish(uid, kind, ts, detail)

    def _handle_node_fault(self, ts: float, fault: NodeFault) -> None:
        self.pilot.emit(
            ts,
            ev.NODE_FAILED,
            node_ids=(fault.node_id,),
            detail="persistent" if fault.persistent else "transient",
        )
        if fault.persistent:
            self.persistent_failed.add(fault.node_id)
        for uid in self._running_holders(fault.node_id):
            self.pilot.finish(
                uid, ev.TASK_FAILED, ts, f"node_failure node={fault.node_id}"
            )


# kept a module function taking and returning the state: perfbench/tracer.py
# reads state.heap[0][4] and len(state.log) around each call
def step(state: SimState) -> SimState:
    """Pop the earliest pending event, apply it, enqueue consequents.

    Simultaneous events process in (ts, kind-priority, uid) order with
    completions before failures before launches. The pilot's drive loop,
    not this step, places the tasks the event lets fit.
    """
    ts, prio, key, _seq, action, data = heapq.heappop(state.heap)
    state.ts = ts
    if action == "bootstrap":
        state.pilot.boot(ts)
    elif action == "complete":
        state._handle_end_of_run(ts, key, ev.TASK_DONE, "")
    elif action == "task_fail":
        state._handle_end_of_run(ts, key, ev.TASK_FAILED, data)
    elif action == "node_fault":
        state._handle_node_fault(ts, data)
    elif action == "launch":
        state._handle_launch(ts, key)
    elif action == "walltime":
        state.pilot.cancel_all(ts, "walltime")
    return state


def run_simulated(
    specs: Sequence[WorkflowSpec] | WorkflowSpec,
    platform: PlatformConfig,
    allocation_nodes: int,
    walltime_s: float,
    runtime_model: RuntimeModel,
    failure_model: Optional[FailureModel] = None,
    *,
    launch_delay_s: float = 0.0,
    launch_rate_cap: Optional[float] = None,
) -> EventLog:
    """Simulate one batch job over the given pipelines and return its log.

    Deterministic given seeds. The log starts with JOB_START at ts 0 and
    BOOTSTRAP_DONE at the platform's bootstrap overhead; tasks still running
    at the walltime are canceled and the job ends exactly then.
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
        failure_model,
        launch_delay_s=launch_delay_s,
        launch_rate_cap=launch_rate_cap,
    )
    state.pilot.drive(state)
    return state.log
