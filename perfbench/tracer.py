"""Outside-in layer tracing for the ensemblekit benchmark.

:class:`Tracer` swaps timing and counting wrappers in for the public
functions of the program's layers, keeps one span per call in memory and,
after the run, folds the spans into the per-layer metrics of
:data:`PER_LAYER`. Nothing under ``src/`` knows about it; an untraced run
installs no wrapper at all.

A span is ``(name, t0, t1, parent, info)``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``info`` is what the function's probe
recorded about its arguments and result.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("engine", "scheduler", "events", "metrics", "resilience", "pst",
          "workloads", "local")

# Traced besides every public module-level function of the layers: public
# methods, and the CLI's parser, whose fixed cost would otherwise be most of
# the uncovered time of a short subcommand.
EXTRA = {
    "pst": ("WorkflowSpec.save", "WorkflowSpec.load"),
    "scheduler": ("SlotTable.active_placements",),
    "events": ("EventLog.save_jsonl", "EventLog.load_jsonl"),
    "cli": ("build_parser",),
}

SUBCOMMANDS = ("example", "simulate", "run", "report", "resubmit")
STEP_ACTIONS = ("bootstrap", "launch", "complete", "task_fail", "node_fault",
                "walltime")
MIN_COVERAGE = 0.9

# name, unit, better: every metric a traced run reports, in output order.
PER_LAYER = [
    ("workloads.generate_example.s", "s", "lower"),
    ("pst.WorkflowSpec.save.s", "s", "lower"),
    ("pst.WorkflowSpec.load.s", "s", "lower"),
    ("pst.validate_workflow.s", "s", "lower"),
    ("pst.transition_task.calls", "count", "lower"),
    ("engine.run_simulated.s", "s", "lower"),
    ("engine.run_simulated.self_s", "s", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.useful_step_ratio", "ratio", "higher"),
    *[(f"engine.step.{a}.{q}", unit, "lower")
      for a in STEP_ACTIONS for q, unit in (("calls", "count"),
                                            ("us_per_call", "us"))],
    ("scheduler.try_place.calls", "count", "lower"),
    ("scheduler.try_place.us_per_call", "us", "lower"),
    ("scheduler.try_place.none_ratio", "ratio", "lower"),
    ("scheduler.release.calls", "count", "lower"),
    ("scheduler.release.us_per_call", "us", "lower"),
    ("scheduler.active_placements.calls", "count", "lower"),
    ("scheduler.active_placements.entries_copied", "count", "lower"),
    ("events.save_jsonl.s", "s", "lower"),
    ("events.save_jsonl.MB_per_s", "MB/s", "higher"),
    ("events.load_jsonl.s", "s", "lower"),
    ("events.load_jsonl.events_per_s", "1/s", "higher"),
    ("events.log_bytes", "bytes", "lower"),
    ("metrics.compute_utilization.calls", "count", "lower"),
    ("metrics.compute_utilization.s", "s", "lower"),
    ("metrics.compute_utilization.ns_per_event", "ns", "lower"),
    ("metrics.concurrency_series.s", "s", "lower"),
    ("metrics.concurrency_series.ns_per_event", "ns", "lower"),
    ("metrics.throughput.self_s", "s", "lower"),
    ("metrics.export.s", "s", "lower"),
    ("resilience.retry_loop.attempts", "count", "lower"),
    ("resilience.collect_failures.calls", "count", "lower"),
    ("resilience.collect_failures.s", "s", "lower"),
    ("resilience.plan_resubmission.s", "s", "lower"),
    ("resilience.retried_tasks", "count", "lower"),
    ("local.run_local.s", "s", "lower"),
    ("local.tasks_per_s", "1/s", "higher"),
    ("local.parent_cpu_s", "s", "lower"),
    ("local.child_cpu_s", "s", "lower"),
    ("local.spawn_p50_ms", "ms", "lower"),
    ("local.turnaround_p50_ms", "ms", "lower"),
    ("local.turnaround_p95_ms", "ms", "lower"),
    *[(f"{c}.self_s", "s", "lower") for c in SUBCOMMANDS],
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Span(NamedTuple):
    name: str
    t0: float
    t1: float
    parent: int
    info: object


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(lo: float, hi: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    return (hi - lo) - covered(lo, hi, children)


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _step_before(args, kwargs):
    state = args[0]
    action = state.heap[0][4] if state.heap else "none"
    return action, len(state.log)


def _terminal_events(log) -> int:
    return sum(1 for e in log if e.kind in ("TASK_DONE", "TASK_FAILED",
                                             "TASK_CANCELED"))


def _local_before(args, kwargs):
    return _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)


def _local_after(args, kwargs, log, before):
    """CPU spent during the run plus spawn and turnaround times, from the
    log alone: scheduled -> launched and launched -> terminal."""
    sched, launch, spawn, turnaround = {}, {}, [], []
    for e in log:
        if e.kind == "TASK_SCHEDULED":
            sched[e.task_uid] = e.ts
        elif e.kind == "TASK_LAUNCHED":
            launch[e.task_uid] = e.ts
            spawn.append(e.ts - sched[e.task_uid])
        elif e.kind in ("TASK_DONE", "TASK_FAILED", "TASK_CANCELED"):
            if e.task_uid in launch:
                turnaround.append(e.ts - launch[e.task_uid])
    return {
        "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - before[0],
        "child_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - before[1],
        "tasks": len(sched),
        "spawn_s": spawn,
        "turnaround_s": turnaround,
    }


# name -> (before(args, kwargs), after(args, kwargs, result, before)); the
# probes run outside the span they annotate.
PROBES = {
    "engine.step": (_step_before,
                    lambda a, k, r, b: (b[0], len(r.log) > b[1])),
    "engine.run_simulated": (None, lambda a, k, r, b: len(r)),
    "scheduler.try_place": (None, lambda a, k, r, b: r is None),
    "scheduler.SlotTable.active_placements": (None, lambda a, k, r, b: len(r)),
    "events.EventLog.save_jsonl": (
        None, lambda a, k, r, b: os.path.getsize(_arg(a, k, 1, "path"))),
    "events.EventLog.load_jsonl": (None, lambda a, k, r, b: len(r)),
    "metrics.compute_utilization": (None,
                                    lambda a, k, r, b: len(_arg(a, k, 0, "log"))),
    "metrics.concurrency_series": (None,
                                   lambda a, k, r, b: len(_arg(a, k, 0, "log"))),
    "resilience.retry_loop": (
        None, lambda a, k, r, b: (len(r[0]),
                                  sum(_terminal_events(log) for log in r[0][1:]))),
    "local.run_local": (_local_before, _local_after),
}


class Tracer:
    """Install with :meth:`install`, run, :meth:`uninstall`, then read
    :attr:`spans`. One tracer per process; not thread-safe."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = PROBES.get(name, (None, None))

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ctx = before(args, kwargs) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if after:
                spans[idx] = (name, t0, t1, parent,
                              after(args, kwargs, result, ctx))
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of each layer, everywhere the
        program's modules bound it by name, plus the :data:`EXTRA` calls."""
        importlib.import_module("ensemblekit.cli")
        modules = {layer: importlib.import_module(f"ensemblekit.{layer}")
                   for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n == "ensemblekit" or n.startswith("ensemblekit.")]
        for layer, module in modules.items():
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for mod in package:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, bound, traced)
        for name, qualnames in EXTRA.items():
            module = sys.modules[f"ensemblekit.{name}"]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(f"{name}.{qualname}", raw.__func__))
                else:
                    wrapped = self._wrap(f"{name}.{qualname}", raw)
                self._set(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a root-level span around a block, e.g. one subcommand."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, t0, time.perf_counter(), parent, None)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(raw_spans) -> tuple[dict[str, float], list[str]]:
    """Fold one traced repetition's spans into the :data:`PER_LAYER` values
    (``trace.overhead_s`` excepted, which needs an untraced run too).

    Returns the values and the problems found: a subcommand whose wrapped
    child spans cover less than :data:`MIN_COVERAGE` of it.
    """
    spans = [Span(*s) for s in raw_spans]
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(s)
        children[s.parent].append(i)

    def total(name: str) -> float:
        return sum(s.t1 - s.t0 for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def descendants(i: int):
        todo = list(children[i])
        while todo:
            j = todo.pop()
            yield spans[j]
            todo.extend(children[j])

    out: dict[str, float] = {
        "workloads.generate_example.s": total("workloads.generate_example"),
        "pst.WorkflowSpec.save.s": total("pst.WorkflowSpec.save"),
        "pst.WorkflowSpec.load.s": total("pst.WorkflowSpec.load"),
        "pst.validate_workflow.s": total("pst.validate_workflow"),
        "pst.transition_task.calls": calls("pst.transition_task"),
    }

    sim_s = total("engine.run_simulated")
    sim_events = sum(s.info or 0 for s in by_name["engine.run_simulated"])
    engine_self = 0.0
    for i, s in enumerate(spans):
        if s.name == "engine.run_simulated":
            inner = [(d.t0, d.t1) for d in descendants(i)
                     if d.name.split(".")[0] in ("scheduler", "pst", "events")]
            engine_self += self_time(s.t0, s.t1, inner)
    steps = by_name["engine.step"]
    out.update({
        "engine.run_simulated.s": sim_s,
        "engine.run_simulated.self_s": engine_self,
        "engine.steps": len(steps),
        "engine.events_per_s": ratio(sim_events, sim_s),
        "engine.useful_step_ratio": ratio(
            sum(1 for s in steps if s.info and s.info[1]), len(steps)),
    })
    for action in STEP_ACTIONS:
        mine = [s for s in steps if s.info and s.info[0] == action]
        out[f"engine.step.{action}.calls"] = len(mine)
        out[f"engine.step.{action}.us_per_call"] = ratio(
            sum(s.t1 - s.t0 for s in mine) * 1e6, len(mine))

    tries = by_name["scheduler.try_place"]
    actives = by_name["scheduler.SlotTable.active_placements"]
    out.update({
        "scheduler.try_place.calls": len(tries),
        "scheduler.try_place.us_per_call": ratio(
            total("scheduler.try_place") * 1e6, len(tries)),
        "scheduler.try_place.none_ratio": ratio(
            sum(1 for s in tries if s.info), len(tries)),
        "scheduler.release.calls": calls("scheduler.release"),
        "scheduler.release.us_per_call": ratio(
            total("scheduler.release") * 1e6, calls("scheduler.release")),
        "scheduler.active_placements.calls": len(actives),
        "scheduler.active_placements.entries_copied": sum(
            s.info or 0 for s in actives),
    })

    saved = sum(s.info or 0 for s in by_name["events.EventLog.save_jsonl"])
    loaded = sum(s.info or 0 for s in by_name["events.EventLog.load_jsonl"])
    save_s = total("events.EventLog.save_jsonl")
    load_s = total("events.EventLog.load_jsonl")
    out.update({
        "events.save_jsonl.s": save_s,
        "events.save_jsonl.MB_per_s": ratio(saved / 1e6, save_s),
        "events.load_jsonl.s": load_s,
        "events.load_jsonl.events_per_s": ratio(loaded, load_s),
        "events.log_bytes": saved,
    })

    util_s = total("metrics.compute_utilization")
    conc_s = total("metrics.concurrency_series")
    throughput_self = 0.0
    for i, s in enumerate(spans):
        if s.name == "metrics.throughput":
            throughput_self += self_time(
                s.t0, s.t1, [(spans[j].t0, spans[j].t1) for j in children[i]])
    out.update({
        "metrics.compute_utilization.calls": calls("metrics.compute_utilization"),
        "metrics.compute_utilization.s": util_s,
        "metrics.compute_utilization.ns_per_event": ratio(
            util_s * 1e9,
            sum(s.info or 0 for s in by_name["metrics.compute_utilization"])),
        "metrics.concurrency_series.s": conc_s,
        "metrics.concurrency_series.ns_per_event": ratio(
            conc_s * 1e9,
            sum(s.info or 0 for s in by_name["metrics.concurrency_series"])),
        "metrics.throughput.self_s": throughput_self,
        "metrics.export.s": total("metrics.export"),
    })

    loops = [s.info for s in by_name["resilience.retry_loop"] if s.info]
    out.update({
        "resilience.retry_loop.attempts": sum(n for n, _ in loops),
        "resilience.collect_failures.calls": calls("resilience.collect_failures"),
        "resilience.collect_failures.s": total("resilience.collect_failures"),
        "resilience.plan_resubmission.s": total("resilience.plan_resubmission"),
        "resilience.retried_tasks": sum(r for _, r in loops),
    })

    local_s = total("local.run_local")
    local = [s.info for s in by_name["local.run_local"] if s.info]
    spawn = [v for info in local for v in info["spawn_s"]]
    turnaround = [v for info in local for v in info["turnaround_s"]]
    out.update({
        "local.run_local.s": local_s,
        "local.tasks_per_s": ratio(sum(i["tasks"] for i in local), local_s),
        "local.parent_cpu_s": sum(i["parent_cpu_s"] for i in local),
        "local.child_cpu_s": sum(i["child_cpu_s"] for i in local),
        "local.spawn_p50_ms": statistics.median(spawn) * 1e3 if spawn else 0.0,
        "local.turnaround_p50_ms": (statistics.median(turnaround) * 1e3
                                    if turnaround else 0.0),
        "local.turnaround_p95_ms": _percentile(turnaround, 0.95) * 1e3,
    })

    problems = []
    for command in SUBCOMMANDS:
        out[f"{command}.self_s"] = 0.0
        for i, s in enumerate(spans):
            if s.name != f"cli.{command}":
                continue
            own = self_time(s.t0, s.t1,
                            [(spans[j].t0, spans[j].t1) for j in children[i]])
            out[f"{command}.self_s"] += own
            if s.t1 > s.t0 and 1.0 - own / (s.t1 - s.t0) < MIN_COVERAGE:
                problems.append(
                    f"{command}: wrapped calls cover "
                    f"{1.0 - own / (s.t1 - s.t0):.1%} of the subcommand, "
                    f"below {MIN_COVERAGE:.0%}")
    return out, problems
