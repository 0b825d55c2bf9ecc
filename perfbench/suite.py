"""Workload definitions and output checks for the ensemblekit benchmark.

A workload is a sequence of ``ensemblekit`` subcommands (``example``, then
``simulate`` or ``run``, then ``report``, plus ``resubmit`` on fault-retry)
whose inputs are derived from one seed. The program only ever sees the
generated command lines and files, never the seed derivation.

Every input is sized so that no task is left unfinished after the last
attempt: a task that is not DONE is a failure of the program, not noise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("headline", "cores-full", "fault-retry", "local-desk")

# End-to-end phase each subcommand is charged to; every subcommand counts
# towards wall_s.
PHASE = {
    "example": "setup_s",
    "simulate": "execute_s",
    "run": "execute_s",
    "report": "report_s",
}

_RUNTIME = "uniform:600,1244"
_FRONTIER_BOOTSTRAP_S = 85.0
GOLDEN = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Step:
    command: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    tasks: int  # tasks submitted by attempt 1
    logs: tuple[Path, ...]  # every attempt's event log, attempt 1 first
    report_prefix: Path  # where ``report`` writes its csv exports
    plateau: Optional[int]  # expected maximum of n_running, if known
    deterministic_logs: bool  # simulated logs are byte-reproducible
    plan: Optional[Path] = None  # ``resubmit`` output, fault-retry only


def _exaconstit_steps(
    work: Path, seed: int, tasks: int, nodes: int, desk: bool, faults=()
) -> list[Step]:
    spec = work / "ensemble.json"
    example = ["example", "--example", "exaconstit", "--tasks", str(tasks),
               "--no-optimizer", "--seed", str(seed), "--out", str(spec)]
    if desk:
        example.append("--desk")
    simulate = ["simulate", "--workflow", str(spec), "--profile",
                "frontier-sim", "--nodes", str(nodes), "--walltime", "12000",
                "--seed", str(seed), "--runtime", _RUNTIME,
                "--out", str(work / "run.jsonl")]
    for fault in faults:
        simulate += ["--fail-node", fault]
    return [Step("example", tuple(example)), Step("simulate", tuple(simulate))]


def _report(log: Path, prefix: Path) -> Step:
    return Step("report", ("report", "--log", str(log), "--out", str(prefix),
                           "--format", "csv"))


def node_faults(seed: int, count: int, nodes: int, before_s: float) -> list[str]:
    """``--fail-node`` values drawn from the seed: node uniform over the
    allocation, time uniform between bootstrap and ``before_s``, every
    100th fault persistent and the rest transient."""
    rng = random.Random(f"perfbench-faults/{seed}")
    out = []
    for i in range(count):
        node = rng.randrange(nodes)
        ts = round(rng.uniform(_FRONTIER_BOOTSTRAP_S + 1.0, before_s), 3)
        flavor = "persistent" if i % 100 == 99 else "transient"
        out.append(f"{node}@{ts!r}:{flavor}")
    return out


def build(name: str, seed: int, work: Path, toy: bool = False) -> Workload:
    """The workload ``name`` at ``seed``, writing under ``work``.

    ``toy`` shrinks every size so the benchmark's self-tests run in
    seconds; the benchmark itself always runs full size.
    """
    work = Path(work)
    run_log = work / "run.jsonl"
    prefix = work / "run"
    if name in ("headline", "fault-retry"):
        # 64 ranks x 7 cores + 1 GPU: each member holds 8 whole nodes
        tasks, nodes = (40, 200) if toy else (7875, 8000)
        faults = ()
        if name == "fault-retry":
            faults = node_faults(seed, 20 if toy else 1000, nodes, 7000.0)
        steps = _exaconstit_steps(work, seed, tasks, nodes, False, faults)
        steps.append(_report(run_log, prefix))
        if name == "headline":
            return Workload(name, tuple(steps), tasks, (run_log,), prefix,
                            plateau=nodes // 8, deterministic_logs=True)
        steps[1] = Step("simulate", steps[1].argv + ("--max-attempts", "2"))
        plan = work / "plan.json"
        steps.append(Step("resubmit", (
            "resubmit", "--log", str(run_log), "--workflow",
            str(work / "ensemble.json"), "--profile", "frontier-sim",
            "--out", str(plan))))
        return Workload(name, tuple(steps), tasks,
                        (run_log, work / "run.attempt2.jsonl"), prefix,
                        plateau=None, deterministic_logs=True, plan=plan)
    if name == "cores-full":
        # 1-core tasks: cores fill up while every GPU stays free
        tasks, nodes = (200, 200) if toy else (8000, 1000)
        steps = _exaconstit_steps(work, seed, tasks, nodes, True)
        steps.append(_report(run_log, prefix))
        return Workload(name, tuple(steps), tasks, (run_log,), prefix,
                        plateau=tasks, deterministic_logs=True)
    if name == "local-desk":
        cases, uq = (4, 2) if toy else (40, 10)
        spec = work / "uq.json"
        out = work / "uq-out"
        steps = [
            Step("example", ("example", "--example", "uq-stage1", "--desk",
                             "--cases", str(cases), "--uq-params", str(uq),
                             "--sleep", "0", "--seed", str(seed),
                             "--out", str(spec))),
            Step("run", ("run", "--workflow", str(spec), "--out", str(out),
                         "--max-parallel", "2")),
            _report(out / "events.jsonl", prefix),
        ]
        # af-pre, the cases, af-post, the case x parameter grid, analysis
        tasks = 1 + cases + 1 + cases * uq + 1
        return Workload(name, tuple(steps), tasks, (out / "events.jsonl",),
                        prefix, plateau=None, deterministic_logs=False)
    raise ValueError(f"unknown workload {name!r}; know {WORKLOADS}")


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())


def log_outcome(path: Path, deterministic: bool) -> dict:
    """sha256 (of reproducible logs only) and terminal-event tallies."""
    data = path.read_bytes()
    tallies = {"done": 0, "failed": 0, "canceled": 0}
    kinds = {"TASK_DONE": "done", "TASK_FAILED": "failed",
             "TASK_CANCELED": "canceled"}
    for line in data.splitlines():
        if line.strip():
            key = kinds.get(json.loads(line)["kind"])
            if key:
                tallies[key] += 1
    digest = hashlib.sha256(data).hexdigest() if deterministic else None
    return {"sha256": digest, **tallies}


def check_utilization(path: Path) -> list[str]:
    """ovh + busy + idle = capacity to 1e-9 relative, 0 <= busy <= capacity."""
    problems = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            cap, ovh, busy, idle = (float(row[k]) for k in
                                    ("capacity_s", "ovh_s", "busy_s", "idle_s"))
            if abs(ovh + busy + idle - cap) > 1e-9 * max(abs(cap), 1.0):
                problems.append(f"{row['unit']}: ovh+busy+idle != capacity")
            if not 0.0 <= busy <= cap:
                problems.append(f"{row['unit']}: busy {busy} outside [0, {cap}]")
    return problems


def max_running(path: Path) -> int:
    with open(path, newline="") as f:
        return max((int(r["n_running"]) for r in csv.DictReader(f)), default=0)


def check(wl: Workload, seed: int, exit_codes: dict[str, int],
          golden: Optional[dict]) -> dict:
    """Check one repetition's outputs.

    Returns the per-attempt outcomes, the number of tasks not DONE after
    the last attempt, and a list of problems (empty when every check held).
    ``golden`` maps workload -> seed -> attempt outcomes recorded at an
    earlier commit; seeds absent from it are checked for internal
    consistency only.
    """
    problems = [f"{cmd} exited {rc}" for cmd, rc in exit_codes.items() if rc]
    attempts = []
    for path in wl.logs:
        if not path.exists():
            problems.append(f"missing log {path.name}")
            break
        attempts.append(log_outcome(path, wl.deterministic_logs))
    done = sum(a["done"] for a in attempts)
    not_done = wl.tasks - done
    if not_done:
        problems.append(f"{not_done} of {wl.tasks} tasks not DONE")
    if len(attempts) == 2 and attempts[1]["done"] != attempts[0]["failed"]:
        problems.append("attempt 2 did not finish attempt 1's failures")

    util = wl.report_prefix.with_name(wl.report_prefix.name + "_utilization.csv")
    conc = wl.report_prefix.with_name(wl.report_prefix.name + "_concurrency.csv")
    if util.exists() and conc.exists():
        problems += check_utilization(util)
        if wl.plateau is not None and max_running(conc) != wl.plateau:
            problems.append(
                f"concurrency plateau {max_running(conc)} != {wl.plateau}")
    else:
        problems.append("report exports missing")

    if wl.plan is not None and attempts:
        if not wl.plan.exists():
            problems.append("resubmit wrote no plan")
        else:
            planned = sum(len(s["tasks"]) for s in
                          json.loads(wl.plan.read_text())["stages"])
            if planned != attempts[0]["failed"]:
                problems.append(f"plan holds {planned} tasks, attempt 1 "
                                f"failed {attempts[0]['failed']}")

    if golden is not None:
        expected = golden.get(wl.name, {}).get(str(seed))
        if expected is not None and expected != attempts:
            problems.append(f"logs differ from golden record: {attempts} "
                            f"!= {expected}")
    return {"attempts": attempts, "not_done": not_done, "problems": problems}
