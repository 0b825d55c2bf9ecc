"""ensemblekit: pipeline-stage-task workflows on simulated or local backends.

The package splits along the life of a batch job: ``pst`` holds the workflow
model, lifecycle rules and the stage progression of a job (``JobRun``),
``platform`` the machine shape and walltime policy, ``scheduler`` the
slot-table placement and the ``Pilot`` that keeps one job's tasks, slots and
event log, ``engine``/``local`` the two execution backends (each drives a
``Pilot`` and adds only how tasks start and end), ``resilience`` the
failure-resubmission protocol over a caller's attempt runner, and
``metrics`` the utilization/concurrency/throughput accounting over event
logs.
"""

from ensemblekit.engine import (
    DurationSpec,
    FailureModel,
    RuntimeModel,
    run_simulated,
)
from ensemblekit.events import Event, EventLog
from ensemblekit.local import run_local
from ensemblekit.metrics import (
    compute_utilization,
    concurrency_series,
    throughput,
)
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    WalltimePolicy,
    get_profile,
    load_platform_config,
    max_walltime_for,
    task_footprint,
    usable_cores,
)
from ensemblekit.pst import (
    JobRun,
    Stage,
    TaskDescription,
    TaskState,
    WorkflowSpec,
    transition_task,
    validate_workflow,
)
from ensemblekit.resilience import (
    FailureRecord,
    ResubmissionPlan,
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from ensemblekit.scheduler import (
    Placement,
    SlotTable,
    release,
    try_place,
)
from ensemblekit.workloads import generate_example

__version__ = "0.1.0"

__all__ = [
    "DurationSpec",
    "Event",
    "EventLog",
    "FailureModel",
    "FailureRecord",
    "JobRun",
    "NodeSpec",
    "Placement",
    "PlatformConfig",
    "ResubmissionPlan",
    "RuntimeModel",
    "SlotTable",
    "Stage",
    "TaskDescription",
    "TaskState",
    "WalltimePolicy",
    "WorkflowSpec",
    "collect_failures",
    "compute_utilization",
    "concurrency_series",
    "generate_example",
    "get_profile",
    "load_platform_config",
    "max_walltime_for",
    "plan_resubmission",
    "release",
    "retry_loop",
    "run_local",
    "run_simulated",
    "task_footprint",
    "throughput",
    "transition_task",
    "try_place",
    "usable_cores",
    "validate_workflow",
]
