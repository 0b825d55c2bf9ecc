"""ensemblekit benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition is a fresh Python
process (``worker.py``) that drives the CLI through the workload's
subcommands. The number of repetitions depends only on the workload and
``--seconds`` (:func:`repetitions`), never on how fast they run, so both
sides of a comparison fold the same number of values. With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` untraced and
traced repetitions alternate and the per-layer metrics of the traced ones
are reported (medians), plus the tracing overhead. The last line of
standard output is one JSON object; the exit code is 1 when any output
check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import suite  # noqa: E402
import tracer  # noqa: E402

# Every run must end within 180 s; no repetition may outlive this, and no
# repetition is started that would likely end after it.
HARD_LIMIT_S = 165.0

# About the seconds one untraced repetition takes at the commit that added
# the benchmark, on the 2-vCPU VM it was written on (worker process start,
# speed probes and checks included); in the host's slow periods it takes
# up to 1.5x longer. Only the repetition count is derived from it, so a
# faster or slower program runs the same count.
REP_COST_S = {
    "headline": 3.0,
    "cores-full": 4.5,
    "fault-retry": 6.0,
    "local-desk": 3.3,
}

# name, unit, folded over the repetitions of a run by the median
END_TO_END = [
    ("setup_s", "s"),
    ("execute_s", "s"),
    ("report_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("task_done_ratio", "ratio"),
]


def repetitions(workload: str, seconds: int, trace: bool) -> int:
    """Repetitions a run of ``seconds`` makes: what fits at the recorded
    cost, at least 3 (a traced run counts untraced-traced pairs, at least 1)."""
    if trace:
        return max(1, round(seconds / (2 * REP_COST_S[workload])))
    return max(3, round(seconds / REP_COST_S[workload]))


def provenance(root: Path, seed: int) -> dict:
    """Seed, interpreter, host and the identity of the code under test.

    A checkout without git metadata is identified by the sha256 of its
    ``src/`` tree."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    tree = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        tree.update(str(path.relative_to(root)).encode() + b"\0")
        tree.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": tree.hexdigest(),
    }


def run_worker(root: Path, workload: str, seed: int, trace: bool,
               work: Path, timeout: float) -> dict:
    """One repetition in a fresh process; its record, or a failure record."""
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--work", str(work)]
    # a session of its own, so a timeout also ends the task processes
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"problems": [f"repetition timed out after {timeout:.0f}s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"worker exited {proc.returncode}: "
                             f"{err.strip()[-1000:]}"]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "ensemblekit" / "cli.py").is_file():
        print(f"perfbench: no ensemblekit sources under {root / 'src'}; "
              f"run from the root of a source checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    print("provenance " + json.dumps(provenance(root, args.seed)))

    tasks = suite.build(args.workload, args.seed, work).tasks
    kinds = (False, True) if args.trace else (False,)
    count = repetitions(args.workload, args.seconds, bool(args.trace))
    reps: list[dict] = []
    try:
        for _ in range(count):
            t0 = time.monotonic()
            for trace in kinds:
                record = run_worker(
                    root, args.workload, args.seed, trace,
                    work / f"rep{len(reps)}",
                    HARD_LIMIT_S - (time.monotonic() - start))
                record.setdefault("trace", trace)
                reps.append(record)
            if any(r["problems"] for r in reps):
                break
            if (time.monotonic() - start) + 2 * (time.monotonic() - t0) \
                    > HARD_LIMIT_S:
                print(f"perfbench: stopped after {len(reps)} of {count} "
                      f"repetitions to end within {HARD_LIMIT_S:.0f}s",
                      file=sys.stderr)
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = [f"rep {i}: {msg}" for i, r in enumerate(reps)
                for msg in r["problems"]]
    outcomes = {json.dumps(r.get("attempts")) for r in reps}
    if len(outcomes) > 1:
        problems.append(f"repetitions of seed {args.seed} disagree: {outcomes}")
    attempted = tasks * len(reps)
    failed = sum(r.get("not_done", tasks) for r in reps)

    def fold(key, trace=False):
        values = [r[key] for r in reps if key in r and r["trace"] == trace]
        return statistics.median(values) if values else 0.0

    if args.trace:
        traced = [r["layers"] for r in reps if "layers" in r]
        values = {name: statistics.median(t[name] for t in traced)
                  if traced else 0.0
                  for name in tracer.UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = fold("wall_s", True) - fold("wall_s")
        units = tracer.UNITS
    else:
        values = {name: fold(name) for name, _ in END_TO_END[:-1]}
        values["task_done_ratio"] = (attempted - failed) / attempted
        units = dict(END_TO_END)
        raw = [r["raw"] for r in reps if "raw" in r]
        for name in raw[0] if raw else ():
            print(f"unscaled {name} "
                  f"{statistics.median(x[name] for x in raw):.6g} s")

    golden = suite.load_golden().get(args.workload, {})
    print(f"repetitions {len(reps)} of {count}; golden record for seed {args.seed}: "
          f"{'checked' if str(args.seed) in golden else 'none, checked for consistency only'}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"task_fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
