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
import gc
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
    NodeFault,
    RuntimeModel,
    TaskFault,
    run_simulated,
)
from ensemblekit.events import EventLog, allocation
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

# the least young-generation collection threshold while a subcommand runs,
# up from CPython's 700: a subcommand allocates per task and per event
# objects that live to its end, so at 700 most young collections trace
# only objects that survive them (README, "Garbage collection")
_GC_YOUNG_THRESHOLD = 20_000


def _parse_runtime(text: str, seed: int) -> RuntimeModel:
    usage = f"bad --runtime {text!r}; use expected, fixed:S or uniform:LO,HI"
    if text == "expected":
        return RuntimeModel(seed=seed)
    kind, _, args = text.partition(":")
    try:
        if kind == "fixed":
            return RuntimeModel("fixed", float(args), seed=seed)
        if kind == "uniform":
            lo, hi = args.split(",")
            return RuntimeModel("uniform", float(lo), float(hi), seed)
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


def _attempt_path(first: Path, retry: tuple[str, str], attempt: int) -> Path:
    """The log path of an attempt: ``first`` for attempt 1, and for attempt
    K the path ``retry[0] + K + retry[1]`` relative to first's parent."""
    if attempt == 1:
        return first
    return first.parent / f"{retry[0]}{attempt}{retry[1]}"


def _check_writable(
    first: Path, retry: tuple[str, str], attempts: int
) -> None:
    """Raise, creating nothing, the OSError that writing the log of an
    attempt up to ``attempts`` (at :func:`_attempt_path`) would raise
    because first's parent is missing or not a directory, a directory on a
    retry's path is a file, the log is a directory, or, where each log has
    a directory of its own (``run``), the task-logs beside it is not one."""
    # os.stat raises FileNotFoundError or NotADirectoryError itself, and
    # OSError(errno, ...) makes the subclass of that errno
    if not stat.S_ISDIR(os.stat(first.parent).st_mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(first))
    # one listing finds the retries' paths: attempts may outnumber names
    head, _, tail = retry[1].partition("/")
    name = re.compile(re.escape(retry[0]) + "([1-9][0-9]*)" + re.escape(head))
    paths = [first]
    for entry in os.listdir(first.parent) if attempts > 1 else []:
        n = name.fullmatch(entry)
        if n and 1 < int(n[1]) <= attempts:
            paths.append(first.parent / entry / tail)
    for path in paths:
        logs = path.parent / "task-logs"  # where run_local makes it
        if tail and os.path.lexists(logs) and not os.path.isdir(logs):
            raise OSError(errno.EEXIST, os.strerror(errno.EEXIST), str(logs))
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            continue  # the attempt makes it
        if stat.S_ISDIR(mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


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
    runtime_model = _parse_runtime(args.runtime, args.seed)
    node_faults = [_parse_fail_node(t) for t in args.fail_node]
    task_faults = [_parse_fail_task(t) for t in args.fail_task]

    out = Path(args.out)
    retry = (f"{out.stem}.attempt", out.suffix)
    _check_writable(out, retry, args.max_attempts)  # fail before the run

    def run_attempt(spec, attempt, nodes, walltime_s):
        # injected faults hit attempt 1 only; retries run clean
        log = run_simulated(
            spec,
            platform,
            nodes,
            walltime_s,
            runtime_model,
            node_faults=node_faults if attempt == 1 else (),
            task_faults=task_faults if attempt == 1 else (),
            launch_delay_s=args.launch_delay,
            launch_rate_cap=args.launch_rate_cap,
        )
        # written as the attempt ends, so an error or Ctrl-C in a retry
        # keeps the logs of the attempts before it
        path = _attempt_path(out, retry, attempt)
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
    first = Path(args.out) / "events.jsonl"
    retry = ("attempt-", "/events.jsonl")
    # fail before the run; a missing --out holds nothing in the way
    if first.parent.exists():
        _check_writable(first, retry, args.max_attempts)

    def run_attempt(spec, attempt, nodes, walltime_s):
        path = _attempt_path(first, retry, attempt)
        # run_local makes the attempt's directory
        try:
            log = run_local(spec, platform, args.max_parallel, path.parent)
        except Interrupted as e:
            e.log.save_jsonl(path)
            raise
        log.save_jsonl(path)
        # printed as the attempt ends, so a Ctrl-C in a retry keeps the
        # lines of the attempts before it
        print(f"attempt {attempt}: {_summarize(log)}")
        return log

    # SIGTERM stops the run the way SIGINT does, through KeyboardInterrupt
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # one node and no walltime: the local backend runs on this machine
        _, unresolved = retry_loop(
            spec, platform, run_attempt, 1, None, args.max_attempts,
            args.retry_canceled,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
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
    nodes = allocation(log)[1]
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
    # one flag takes a list of faults, parsed in one pass; repeating the
    # flag appends to it
    p.add_argument(
        "--fail-node",
        nargs="+",
        action="extend",
        default=[],
        metavar="NODE@TS[:transient]",
        help="inject node faults (attempt 1 only)",
    )
    p.add_argument(
        "--fail-task",
        nargs="+",
        action="extend",
        default=[],
        metavar="UID@FRACTION",
        help="fail tasks at a fraction of their runtime (attempt 1 only)",
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
    thresholds = gc.get_threshold()
    if 0 < thresholds[0] < _GC_YOUNG_THRESHOLD:  # 0: no automatic collection
        gc.set_threshold(_GC_YOUNG_THRESHOLD, *thresholds[1:])
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
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
