import ensemblekit

PUBLIC = [
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


def test_package_exports_exactly_its_public_names():
    assert sorted(ensemblekit.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(ensemblekit, name).__module__.startswith("ensemblekit.")
