"""ensemblekit: pipeline-stage-task workflows on simulated or local backends.

The package splits along the life of a batch job: ``pst`` holds the workflow
model and the stage progression of a job (``JobRun``), ``platform`` the
machine shape and walltime policy, ``events`` the append-only event log,
which holds each task's lifecycle state and checks every event against it,
``scheduler`` the slot-table placement and the ``Pilot`` that keeps one
job's stages, slots and event log and runs its one drive loop,
``engine``/``local`` the two execution backends that loop drives (each adds
only how tasks start and end; the simulator's ``step`` applies one heap
event), ``resilience`` the failure-resubmission protocol over a caller's
attempt runner, and ``metrics`` the utilization/concurrency/throughput
accounting over event logs.
"""

from ensemblekit.engine import RuntimeModel, run_simulated
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
    WorkflowSpec,
    validate_workflow,
)
from ensemblekit.resilience import (
    ResubmissionPlan,
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from ensemblekit.workloads import generate_example

__version__ = "0.1.0"

__all__ = [
    "Event",
    "EventLog",
    "JobRun",
    "NodeSpec",
    "PlatformConfig",
    "ResubmissionPlan",
    "RuntimeModel",
    "Stage",
    "TaskDescription",
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
    "retry_loop",
    "run_local",
    "run_simulated",
    "task_footprint",
    "throughput",
    "usable_cores",
    "validate_workflow",
]
