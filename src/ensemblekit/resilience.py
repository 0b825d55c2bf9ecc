"""Order-preserving failure resubmission.

Failed tasks harvested from a job's event log are regrouped by their original
stage, in original stage order, into a fresh workflow with a right-sized
allocation request: enough nodes for full concurrency of the widest failed
stage, never more than the original job used. Retries run as fresh jobs on a
fresh allocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from ensemblekit import events as ev
from ensemblekit.errors import (
    ConfigError,
    EmptyPlan,
    IncompleteLog,
    MalformedLog,
)
from ensemblekit.events import EventLog
from ensemblekit.engine import FailureModel, RuntimeModel, run_simulated
from ensemblekit.platform import PlatformConfig, max_walltime_for, task_footprint
from ensemblekit.pst import Stage, WorkflowSpec

KIND_NODE_FAILURE = "node_failure"
KIND_TASK_FAULT = "task_fault"
KIND_CANCELED = "canceled"


@dataclass(frozen=True)
class FailureRecord:
    uid: str
    stage_name: str
    stage_index: int
    kind: str
    ts: float


def _failure_kind(event) -> str:
    if event.kind == ev.TASK_CANCELED:
        return KIND_CANCELED
    if event.detail.startswith("node_failure"):
        return KIND_NODE_FAILURE
    return KIND_TASK_FAULT


def collect_failures(
    log: EventLog, spec: WorkflowSpec, retry_canceled: bool = False
) -> list[FailureRecord]:
    """One record per task of the spec whose terminal event in this log is
    TASK_FAILED (or TASK_CANCELED when retry_canceled). DONE tasks never
    appear; tasks from other pipelines in the same log are ignored. A log
    holds at most one terminal event per task (:meth:`EventLog.append`
    checks it)."""
    if not log.complete:
        raise IncompleteLog("cannot collect failures from a log without JOB_END")
    stage_of = spec.stage_index()
    stage_names = {t.uid: t.stage_name for t in spec.tasks()}
    retried = {ev.TASK_FAILED}
    if retry_canceled:
        retried.add(ev.TASK_CANCELED)
    records = []
    for event in log:
        uid = event.task_uid
        if event.kind not in retried or uid not in stage_of:
            continue
        records.append(
            FailureRecord(
                uid=uid,
                stage_name=stage_names[uid],
                stage_index=stage_of[uid],
                kind=_failure_kind(event),
                ts=event.ts,
            )
        )
    return records


@dataclass
class ResubmissionPlan:
    """A runnable retry workflow plus its allocation request."""

    workflow: WorkflowSpec
    nodes: int
    walltime_s: float

    def sidecar(self, attempt: int, parent_log: str) -> dict:
        return {
            "attempt": attempt,
            "parent_log": parent_log,
            "allocation": {"nodes": self.nodes, "walltime_s": self.walltime_s},
        }

    def save(self, path: str | Path, attempt: int, parent_log: str) -> None:
        path = Path(path)
        self.workflow.save(path)
        sidecar_path = path.with_suffix(path.suffix + ".meta.json")
        sidecar_path.write_text(
            json.dumps(self.sidecar(attempt, parent_log), indent=2) + "\n"
        )


def plan_resubmission(
    records: Sequence[FailureRecord],
    spec: WorkflowSpec,
    platform: PlatformConfig,
    original_allocation_nodes: int,
) -> ResubmissionPlan:
    """Rebuild the failed tasks into a smaller job preserving stage order.

    The allocation is sized for full concurrency of the widest failed stage
    and capped by the original allocation; the walltime comes from the policy
    table.
    """
    if not records:
        raise EmptyPlan("no failure records to plan from")
    failed_uids = {r.uid for r in records}
    unknown = failed_uids - {t.uid for t in spec.tasks()}
    if unknown:
        raise MalformedLog(f"records reference unknown tasks: {sorted(unknown)}")

    stages = []
    widths = []
    for stage in spec.stages:
        tasks = tuple(t for t in stage.tasks if t.uid in failed_uids)
        if not tasks:
            continue
        stages.append(Stage(name=stage.name, tasks=tasks))
        widths.append(
            sum(task_footprint(t, platform.node)[0] for t in tasks)
        )

    nodes = min(original_allocation_nodes, max(widths))
    walltime_s = max_walltime_for(platform.policy, nodes)
    return ResubmissionPlan(
        workflow=WorkflowSpec(name=f"{spec.name}-retry", stages=tuple(stages)),
        nodes=nodes,
        walltime_s=walltime_s,
    )


@dataclass
class EngineConfig:
    """Everything retry_loop needs to run one attempt of a simulated job.

    ``failure_models[k-1]`` applies to attempt k; later attempts run clean.
    Every attempt runs as a fresh job: nothing of an earlier attempt's
    allocation carries over.
    """

    allocation_nodes: int
    walltime_s: float
    runtime_model: RuntimeModel
    failure_models: tuple[Optional[FailureModel], ...] = ()
    launch_delay_s: float = 0.0
    launch_rate_cap: Optional[float] = None
    retry_canceled: bool = False

    def failure_model_for(self, attempt: int) -> Optional[FailureModel]:
        if 1 <= attempt <= len(self.failure_models):
            return self.failure_models[attempt - 1]
        return None


RunAttempt = Callable[[Sequence[WorkflowSpec], int, int, float], EventLog]


def retry_loop(
    specs: Sequence[WorkflowSpec] | WorkflowSpec,
    platform: PlatformConfig,
    engine_cfg: EngineConfig,
    max_attempts: int,
    run_attempt: Optional[RunAttempt] = None,
) -> tuple[list[EventLog], list[FailureRecord]]:
    """Run a job, then re-submit failures as fresh smaller jobs until clean
    or out of attempts. Returns all logs and whatever is still failed.

    ``run_attempt(specs, attempt, nodes, walltime_s)`` can replace the
    simulated backend (the CLI uses this for local execution).
    """
    if max_attempts < 1:
        raise ConfigError("max_attempts must be >= 1")
    if isinstance(specs, WorkflowSpec):
        specs = [specs]

    def default_run(specs_, attempt, nodes, walltime_s):
        return run_simulated(
            specs_,
            platform,
            nodes,
            walltime_s,
            engine_cfg.runtime_model,
            engine_cfg.failure_model_for(attempt),
            launch_delay_s=engine_cfg.launch_delay_s,
            launch_rate_cap=engine_cfg.launch_rate_cap,
        )

    runner = run_attempt or default_run
    logs: list[EventLog] = []
    current: list[WorkflowSpec] = list(specs)
    nodes = engine_cfg.allocation_nodes
    walltime_s = engine_cfg.walltime_s
    unresolved: list[FailureRecord] = []

    for attempt in range(1, max_attempts + 1):
        log = runner(current, attempt, nodes, walltime_s)
        logs.append(log)
        per_spec = [
            (spec, collect_failures(log, spec, engine_cfg.retry_canceled))
            for spec in current
        ]
        unresolved = [r for _, records in per_spec for r in records]
        if not unresolved or attempt == max_attempts:
            break
        plans = [
            plan_resubmission(
                records, spec, platform, engine_cfg.allocation_nodes
            )
            for spec, records in per_spec
            if records
        ]
        current = [p.workflow for p in plans]
        nodes = min(engine_cfg.allocation_nodes, sum(p.nodes for p in plans))
        walltime_s = max_walltime_for(platform.policy, nodes)
    return logs, unresolved
