"""Command-line surface: simulate, run, report, resubmit, example.

Exit codes are a function of outcome class only: 0 success, 1 execution
failure or malformed input log, 2 configuration error. :func:`main` maps
every error a subcommand raises to its code in one place.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from ensemblekit import events as ev
from ensemblekit import metrics
from ensemblekit.errors import (
    ConfigError,
    EnsembleKitError,
    InsufficientData,
    InvalidNodeSpec,
    MalformedLog,
    ParseError,
    PolicyGap,
    PolicyViolation,
    UnknownShape,
    Unplaceable,
    ValidationError,
)
from ensemblekit.engine import (
    DurationSpec,
    FailureModel,
    NodeFault,
    RuntimeModel,
    TaskFault,
)
from ensemblekit.events import EventLog
from ensemblekit.local import run_local
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    get_profile,
    load_platform_config,
    max_walltime_for,
)
from ensemblekit.pst import WorkflowSpec, validate_workflow
from ensemblekit.resilience import (
    EngineConfig,
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from ensemblekit.workloads import SHAPES, generate_example

_CONFIG_ERRORS = (
    ConfigError,
    ParseError,
    ValidationError,
    PolicyViolation,
    PolicyGap,
    UnknownShape,
    Unplaceable,
    FileNotFoundError,
)


def _parse_runtime(text: str) -> DurationSpec:
    usage = f"bad --runtime {text!r}; use expected, fixed:S or uniform:LO,HI"
    if text == "expected":
        return DurationSpec.expected()
    kind, _, args = text.partition(":")
    try:
        if kind == "fixed":
            return DurationSpec.fixed(float(args))
        if kind == "uniform":
            lo, hi = args.split(",")
            return DurationSpec.uniform(float(lo), float(hi))
    except ValueError as e:
        raise ConfigError(usage) from e
    raise ConfigError(usage)


def _parse_fail_node(text: str) -> NodeFault:
    usage = f"bad --fail-node {text!r}; use NODE@TS or NODE@TS:transient"
    spec, _, flavor = text.partition(":")
    node, _, ts = spec.partition("@")
    if not ts or flavor not in ("", "transient", "persistent"):
        raise ConfigError(usage)
    try:
        node_id, at_ts = int(node), float(ts)
    except ValueError as e:
        raise ConfigError(usage) from e
    return NodeFault(
        node_id=node_id, at_ts=at_ts, persistent=flavor != "transient"
    )


def _parse_fail_task(text: str) -> TaskFault:
    usage = f"bad --fail-task {text!r}; use UID@FRACTION"
    uid, _, frac = text.partition("@")
    try:
        at_fraction = float(frac)
    except ValueError as e:
        raise ConfigError(usage) from e
    return TaskFault(uid=uid, at_fraction=at_fraction)


def _load_platform(args) -> PlatformConfig:
    target = getattr(args, "platform", None)
    if target:
        # a config file path, or a profile name as a convenience
        if Path(target).exists():
            return load_platform_config(target)
        return get_profile(target)
    return get_profile(getattr(args, "profile", None) or "local")


def _example_params(args) -> dict:
    params: dict = {"seed": args.seed}
    if getattr(args, "tasks", None) is not None:
        params["tasks"] = args.tasks
    if getattr(args, "cases", None) is not None:
        params["cases"] = args.cases
    if getattr(args, "uq_params", None) is not None:
        params["uq_params"] = args.uq_params
    if getattr(args, "sleep", None) is not None:
        params["sleep_s"] = args.sleep
    if getattr(args, "desk", False):
        params["desk"] = True
    if getattr(args, "no_optimizer", False):
        params["optimizer"] = False
    return params


def _load_workflow(args) -> WorkflowSpec:
    if getattr(args, "workflow", None):
        path = Path(args.workflow)
        if not path.exists():
            raise FileNotFoundError(f"workflow file not found: {path}")
        try:
            spec = WorkflowSpec.load(path)
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise ParseError(f"{path}: {e}") from e
    elif getattr(args, "example", None):
        spec = generate_example(args.example, _example_params(args))
    else:
        raise ConfigError("one of --workflow or --example is required")
    violations = validate_workflow(spec)
    if violations:
        raise ValidationError("; ".join(violations))
    return spec


def _attempt_path(base: Path, attempt: int) -> Path:
    if attempt == 1:
        return base
    return base.with_name(f"{base.stem}.attempt{attempt}{base.suffix}")


def _summarize(log: EventLog, node: NodeSpec, nodes: int) -> str:
    counts = {"done": 0, "failed": 0, "canceled": 0}
    for event in log:
        if event.kind == ev.TASK_DONE:
            counts["done"] += 1
        elif event.kind == ev.TASK_FAILED:
            counts["failed"] += 1
        elif event.kind == ev.TASK_CANCELED:
            counts["canceled"] += 1
    makespan = log.job_end_ts()
    stack = metrics.compute_utilization(log, node, nodes)
    return (
        f"done={counts['done']} failed={counts['failed']} "
        f"canceled={counts['canceled']} makespan={makespan:.1f}s "
        f"node_utilization={stack.nodes.utilization_fraction:.3f}"
    )


def cmd_simulate(args) -> int:
    platform = _load_platform(args)
    spec = _load_workflow(args)
    nodes = args.nodes
    if nodes is None:
        raise ConfigError("--nodes is required for the simulated backend")
    walltime = args.walltime
    if walltime is None:
        walltime = max_walltime_for(platform.policy, nodes)
    runtime_model = RuntimeModel(
        default=_parse_runtime(args.runtime), seed=args.seed
    )
    failure_model = FailureModel(
        node_faults=tuple(_parse_fail_node(t) for t in args.fail_node),
        task_faults=tuple(_parse_fail_task(t) for t in args.fail_task),
    )
    cfg = EngineConfig(
        allocation_nodes=nodes,
        walltime_s=walltime,
        runtime_model=runtime_model,
        failure_models=(failure_model,),
        launch_delay_s=args.launch_delay,
        launch_rate_cap=args.launch_rate_cap,
        retry_canceled=args.retry_canceled,
    )
    logs, unresolved = retry_loop(spec, platform, cfg, args.max_attempts)
    out = Path(args.out)
    for i, log in enumerate(logs, start=1):
        path = _attempt_path(out, i)
        log.save_jsonl(path)
        print(f"attempt {i}: {path} {_summarize(log, platform.node, nodes)}")
    if unresolved:
        print(
            "unresolved failures: "
            + " ".join(sorted(r.uid for r in unresolved))
        )
        return 1
    return 0


def cmd_run(args) -> int:
    platform = _load_platform(args)
    spec = _load_workflow(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_attempt(specs, attempt, nodes, walltime_s):
        attempt_dir = out_dir if attempt == 1 else out_dir / f"attempt-{attempt}"
        attempt_dir.mkdir(parents=True, exist_ok=True)
        log = run_local(specs, platform, args.max_parallel, attempt_dir)
        log.save_jsonl(attempt_dir / "events.jsonl")
        return log

    cfg = EngineConfig(
        allocation_nodes=1,
        walltime_s=86400.0,
        runtime_model=RuntimeModel(default=DurationSpec.expected()),
        retry_canceled=args.retry_canceled,
    )
    logs, unresolved = retry_loop(
        spec, platform, cfg, args.max_attempts, run_attempt=run_attempt
    )
    for i, log in enumerate(logs, start=1):
        done = sum(1 for e in log if e.kind == ev.TASK_DONE)
        failed = sum(1 for e in log if e.kind == ev.TASK_FAILED)
        print(f"attempt {i}: done={done} failed={failed}")
    if unresolved:
        print(
            "unresolved failures: "
            + " ".join(sorted(r.uid for r in unresolved))
        )
        return 1
    return 0


def _existing_log(path: str) -> Path:
    log_path = Path(path)
    if not log_path.exists():
        raise FileNotFoundError(f"log not found: {log_path}")
    return log_path


def _allocation_nodes(log: EventLog) -> int:
    """The allocation size in the log's run metadata; MalformedLog unless
    it is there and >= 1."""
    try:
        nodes = int(log.job_meta()["allocation_nodes"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise MalformedLog(f"log missing run metadata: {e}") from e
    if nodes < 1:
        raise MalformedLog(f"log allocation_nodes {nodes} is below 1")
    return nodes


def cmd_report(args) -> int:
    log_path = _existing_log(args.log)
    log = EventLog.load_jsonl(log_path)
    meta = log.job_meta()
    try:
        node = NodeSpec(
            cores_total=int(meta["cores_total"]),
            cores_reserved=int(meta.get("cores_reserved", 0)),
            gpus=int(meta.get("gpus_per_node", 0)),
        )
    except (
        KeyError, TypeError, ValueError, OverflowError, InvalidNodeSpec
    ) as e:
        raise MalformedLog(f"log missing run metadata: {e}") from e
    nodes = _allocation_nodes(log)
    stack = metrics.compute_utilization(log, node, nodes)
    series = metrics.concurrency_series(log)
    try:
        rates = metrics.throughput(log, series)
    except InsufficientData:
        rates = None
    prefix = Path(args.out) if args.out else log_path.with_suffix("")
    fmt = args.format
    written = [
        metrics.export(stack, fmt, f"{prefix}_utilization.{fmt}"),
        metrics.export(series, fmt, f"{prefix}_concurrency.{fmt}"),
    ]
    if rates is not None:
        written.append(metrics.export(rates, fmt, f"{prefix}_rates.{fmt}"))
    for path in written:
        print(path)
    return 0


def cmd_resubmit(args) -> int:
    log_path = _existing_log(args.log)
    spec = _load_workflow(args)
    log = EventLog.load_jsonl(log_path)
    platform = _load_platform(args)
    nodes = args.nodes if args.nodes is not None else _allocation_nodes(log)
    records = collect_failures(log, spec, retry_canceled=args.retry_canceled)
    if not records:
        print("no failed tasks; nothing to resubmit")
        return 0
    plan = plan_resubmission(records, spec, platform, nodes)
    plan.save(args.out, attempt=args.attempt, parent_log=str(log_path))
    print(
        f"{args.out}: {len(records)} tasks in "
        f"{len(plan.workflow.stages)} stages, "
        f"allocation nodes={plan.nodes} walltime_s={plan.walltime_s}"
    )
    return 0


def cmd_example(args) -> int:
    if not args.example:
        raise ConfigError("--example SHAPE is required")
    spec = generate_example(args.example, _example_params(args))
    spec.save(args.out)
    print(f"{args.out}: {spec.task_count()} tasks in {len(spec.stages)} stages")
    return 0


def _add_workflow_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workflow", help="workflow JSON file")
    parser.add_argument(
        "--example", choices=SHAPES, help="generate a named example workflow"
    )
    parser.add_argument("--tasks", type=int, help="example: ensemble size")
    parser.add_argument("--cases", type=int, help="example: melt-pool cases")
    parser.add_argument("--uq-params", type=int, help="example: UQ parameters")
    parser.add_argument(
        "--desk", action="store_true", help="example: single-core task shapes"
    )
    parser.add_argument(
        "--sleep", type=float, help="example: mock payload sleep seconds"
    )
    parser.add_argument(
        "--no-optimizer",
        action="store_true",
        help="example: drop the trailing optimization task",
    )


def _add_platform_flags(parser: argparse.ArgumentParser, default_profile) -> None:
    parser.add_argument("--platform", help="platform config JSON file")
    parser.add_argument(
        "--profile",
        default=default_profile,
        help=f"built-in platform profile (default: {default_profile})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensemblekit",
        description="Ensemble workflow engine: simulate, run, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run pipelines on the simulated cluster")
    _add_workflow_source(p)
    _add_platform_flags(p, "frontier-sim")
    p.add_argument("--nodes", type=int, help="allocation size in nodes")
    p.add_argument("--walltime", type=float, help="job walltime seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--runtime",
        default="expected",
        help="task runtime model: expected | fixed:S | uniform:LO,HI",
    )
    p.add_argument(
        "--fail-node",
        action="append",
        default=[],
        metavar="NODE@TS[:transient]",
        help="inject a node fault (attempt 1 only)",
    )
    p.add_argument(
        "--fail-task",
        action="append",
        default=[],
        metavar="UID@FRACTION",
        help="fail a task at a fraction of its runtime (attempt 1 only)",
    )
    p.add_argument("--launch-rate-cap", type=float, default=None)
    p.add_argument("--launch-delay", type=float, default=0.0)
    p.add_argument("--max-attempts", type=int, default=1)
    p.add_argument("--retry-canceled", action="store_true")
    p.add_argument("--out", required=True, help="event log output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="execute pipelines as local subprocesses")
    _add_workflow_source(p)
    _add_platform_flags(p, "local")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-parallel", type=int, default=2)
    p.add_argument("--max-attempts", type=int, default=1)
    p.add_argument("--retry-canceled", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="compute metrics exports from a log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="output path prefix (default: log stem)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("resubmit", help="plan a retry job from a log")
    _add_workflow_source(p)
    _add_platform_flags(p, "frontier-sim")
    p.add_argument("--log", required=True)
    p.add_argument("--nodes", type=int, help="original allocation nodes")
    p.add_argument("--attempt", type=int, default=2)
    p.add_argument("--retry-canceled", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="plan workflow JSON path")
    p.set_defaults(func=cmd_resubmit)

    p = sub.add_parser("example", help="write an example workflow JSON")
    _add_workflow_source(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*_CONFIG_ERRORS, EnsembleKitError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2 if isinstance(e, _CONFIG_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
