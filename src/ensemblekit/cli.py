"""Command-line surface: simulate, run, report, resubmit, example.

Each input has one route in: ``simulate``, ``run`` and ``resubmit`` read
the workflow from ``--workflow FILE`` (``example`` writes one), and the
machine from ``--platform FILE`` or, without it, the built-in profile
``--profile NAME``.

Exit codes are a function of outcome class only: 0 success, 1 execution
failure, malformed input log or interrupt (Ctrl-C), 2 configuration error
(any :class:`~ensemblekit.errors.ConfigError`, or an ``OSError`` from a path
that cannot be read or written: missing, a directory where a file is wanted,
or the other way round). :func:`main` maps every error a subcommand raises
to its code in one place.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import signal
import stat
import sys
from pathlib import Path
from typing import Optional

from ensemblekit import metrics
from ensemblekit.errors import (
    ConfigError,
    EnsembleKitError,
    InsufficientData,
    Interrupted,
)
from ensemblekit.engine import (
    DurationSpec,
    FailureModel,
    NodeFault,
    RuntimeModel,
    TaskFault,
    run_simulated,
)
from ensemblekit.events import EventLog
from ensemblekit.local import run_local
from ensemblekit.platform import (
    PlatformConfig,
    get_profile,
    load_platform_config,
    max_walltime_for,
)
from ensemblekit.pst import WorkflowSpec, check_workflow
from ensemblekit.resilience import (
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from ensemblekit.workloads import SHAPES, generate_example

_CONFIG_ERRORS = (ConfigError, OSError)


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
    if args.platform:
        return load_platform_config(args.platform)
    return get_profile(args.profile)


def _attempt_path(base: Path, attempt: int) -> Path:
    if attempt == 1:
        return base
    return base.with_name(f"{base.stem}.attempt{attempt}{base.suffix}")


def _check_writable(path: Path, attempts: int) -> None:
    """Raise, creating nothing, the OSError that opening the path of an
    attempt up to ``attempts`` for writing would raise because its parent
    is missing or not a directory, or it is a directory."""
    # os.stat raises FileNotFoundError or NotADirectoryError itself, and
    # OSError(errno, ...) makes the subclass of that errno
    if not stat.S_ISDIR(os.stat(path.parent).st_mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    # one listing finds the retries' paths: attempts may outnumber names
    retry = re.compile(rf"{re.escape(path.stem)}\.attempt([1-9][0-9]*)"
                       + re.escape(path.suffix))
    names = os.listdir(path.parent) if attempts > 1 else []
    for p in [path, *(path.parent / name for name in names)]:
        n = retry.fullmatch(p.name)
        if (p is path or n and 1 < int(n[1]) <= attempts) and p.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(p))


def _summarize(log: EventLog) -> str:
    """One attempt's JOB_END tally (its last event's detail, ``done=…
    failed=… canceled=…``), makespan and utilization of the nodes its run
    metadata records, which for a retry are fewer than attempt 1's."""
    stack = metrics.compute_utilization(log)
    return (
        f"{log[-1].detail} makespan={log.job_end_ts():.1f}s "
        f"node_utilization={stack.nodes.utilization_fraction:.3f}"
    )


def _unresolved_exit(unresolved: list[str]) -> int:
    if unresolved:
        print("unresolved failures: " + " ".join(sorted(unresolved)))
        return 1
    return 0


def cmd_simulate(args) -> int:
    platform = _load_platform(args)
    spec = WorkflowSpec.load(args.workflow)
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

    out = Path(args.out)
    _check_writable(out, args.max_attempts)  # fail before the run

    def run_attempt(specs, attempt, nodes, walltime_s):
        # injected faults hit attempt 1 only; retries run clean
        log = run_simulated(
            specs,
            platform,
            nodes,
            walltime_s,
            runtime_model,
            failure_model if attempt == 1 else None,
            launch_delay_s=args.launch_delay,
            launch_rate_cap=args.launch_rate_cap,
        )
        # written as the attempt ends, so an error or Ctrl-C in a retry
        # keeps the logs of the attempts before it
        path = _attempt_path(out, attempt)
        log.save_jsonl(path)
        print(f"attempt {attempt}: {path} {_summarize(log)}")
        return log

    _, unresolved = retry_loop(
        spec, platform, run_attempt, nodes, walltime, args.max_attempts,
        args.retry_canceled,
    )
    return _unresolved_exit(unresolved)


def cmd_run(args) -> int:
    platform = _load_platform(args)
    spec = WorkflowSpec.load(args.workflow)
    out_dir = Path(args.out)

    def run_attempt(specs, attempt, nodes, walltime_s):
        # run_local makes the attempt's directory
        attempt_dir = out_dir if attempt == 1 else out_dir / f"attempt-{attempt}"
        try:
            log = run_local(specs, platform, args.max_parallel, attempt_dir)
        except Interrupted as e:
            e.log.save_jsonl(attempt_dir / "events.jsonl")
            raise
        log.save_jsonl(attempt_dir / "events.jsonl")
        return log

    # SIGTERM stops the run the way SIGINT does, through KeyboardInterrupt
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # one node and no walltime: the local backend runs on this machine
        logs, unresolved = retry_loop(
            spec, platform, run_attempt, 1, None, args.max_attempts,
            args.retry_canceled,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    for i, log in enumerate(logs, start=1):
        print(f"attempt {i}: {_summarize(log)}")
    return _unresolved_exit(unresolved)


def cmd_report(args) -> int:
    log_path = Path(args.log)
    log = EventLog.load_jsonl(log_path)
    stack = metrics.compute_utilization(log)
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
    if args.attempt < 2:
        raise ConfigError(f"--attempt must be >= 2, not {args.attempt}")
    log_path = Path(args.log)
    # no job runs here to validate the workflow, so check it before use
    spec = WorkflowSpec.load(args.workflow)
    check_workflow(spec)
    log = EventLog.load_jsonl(log_path)
    platform = _load_platform(args)
    nodes = metrics.allocation(log)[1]
    failed = collect_failures(log, spec, retry_canceled=args.retry_canceled)
    # plan only from a log report accepts; after collect_failures, whose
    # message names the tasks left open
    metrics.compute_utilization(log)
    if not failed:
        print("no failed tasks; nothing to resubmit")
        return 0
    plan = plan_resubmission(failed, spec, platform, nodes)
    plan.save(args.out, attempt=args.attempt, parent_log=str(log_path))
    print(
        f"{args.out}: {len(failed)} tasks in "
        f"{len(plan.workflow.stages)} stages, "
        f"allocation nodes={plan.nodes} walltime_s={plan.walltime_s}"
    )
    return 0


def cmd_example(args) -> int:
    if not args.example:
        raise ConfigError("--example SHAPE is required")
    # only the flags given, so that the shape can reject one it does not read
    params = {key: value for key, value in (
        ("tasks", args.tasks), ("cases", args.cases),
        ("uq_params", args.uq_params), ("sleep_s", args.sleep),
        ("seed", args.seed), ("desk", args.desk), ("optimizer", args.optimizer),
    ) if value is not None}
    spec = generate_example(args.example, params)
    spec.save(args.out)
    print(f"{args.out}: {spec.task_count()} tasks in {len(spec.stages)} stages")
    return 0


def _add_inputs(parser: argparse.ArgumentParser, default_profile) -> None:
    parser.add_argument("--workflow", required=True, help="workflow JSON file")
    parser.add_argument("--platform", help="platform config JSON file")
    parser.add_argument(
        "--profile",
        default=default_profile,
        help="built-in platform profile, frontier-sim or local, used "
        f"without --platform (default: {default_profile})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensemblekit",
        description="Ensemble workflow engine: simulate, run, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run pipelines on the simulated cluster")
    _add_inputs(p, "frontier-sim")
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
    _add_inputs(p, "local")
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
    _add_inputs(p, "frontier-sim")
    p.add_argument("--log", required=True)
    p.add_argument("--attempt", type=int, default=2, help="at least 2")
    p.add_argument("--retry-canceled", action="store_true")
    p.add_argument("--out", required=True, help="plan workflow JSON path")
    p.set_defaults(func=cmd_resubmit)

    p = sub.add_parser("example", help="write an example workflow JSON")
    p.add_argument(
        "--example", choices=SHAPES, help="named example workflow shape"
    )
    p.add_argument("--tasks", type=int, help="ensemble size")
    p.add_argument("--cases", type=int, help="melt-pool cases")
    p.add_argument("--uq-params", type=int, help="UQ parameters")
    p.add_argument("--desk", action="store_true", default=None,
                   help="single-core task shapes")
    p.add_argument("--sleep", type=float, help="mock payload sleep seconds")
    p.add_argument("--no-optimizer", action="store_false", default=None,
                   dest="optimizer", help="drop the trailing optimization task")
    p.add_argument("--seed", type=int, help="runtime-hint seed (default 0)")
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
    except KeyboardInterrupt:
        # Ctrl-C stops the command, which then writes nothing more; a local
        # run turns it into Interrupted itself, after logging the run
        print("error: KeyboardInterrupt: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
