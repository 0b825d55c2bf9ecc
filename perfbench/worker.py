"""One repetition of one benchmark workload, in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --work DIR

Runs the workload's subcommands in sequence through ``ensemblekit.cli.main``
(imported from ``src/`` of the current directory), times each one, checks
the outputs and prints one JSON object. :func:`run_rep` does the same in
the calling process, for the self-tests.

Each subcommand's time is reported at a reference interpreter speed: the
wall time times ``REFERENCE_PROBE_S`` over the mean time a fixed probe
kernel takes right before and right after the subcommand. On a shared host
whose speed changes by up to 1.8x from one minute to the next, this keeps
the speed of the host out of the figure and leaves the cost of the code in
it (README.md, "Speed-scaled times"). ``run`` is not scaled: it waits on
task processes and on its poll timer, which the probe does not measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import io
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import suite  # noqa: E402
import tracer  # noqa: E402


def import_program(root: Path):
    """Import ``ensemblekit.cli`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "ensemblekit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ensemblekit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ensemblekit.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {src}")
    return cli


# What probe() returns on the 2-vCPU VM the benchmark was written on
# (Python 3.11) in its fast periods. A scaled time is in seconds at that
# speed.
REFERENCE_PROBE_S = 0.0125
UNSCALED = ("run",)


def _probe_kernel() -> float:
    """A fixed mix of what the program does most: heap pushes and pops,
    dict building and JSON encoding. It never touches ``src/``, so a change
    to the program cannot move it."""
    t0 = time.perf_counter()
    heap: list = []
    table = {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i] = {"k": i, "v": str(i)}
    while heap:
        heapq.heappop(heap)
    json.dumps(table)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe kernel takes at the host's present speed: the best
    of three, so one interrupt does not count."""
    return min(_probe_kernel() for _ in range(3))


def _call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the command line
            rc = e.code if isinstance(e.code, int) else 1
    return rc, out.getvalue()


def run_rep(workload: str, seed: int, trace: bool, work: Path,
            toy: bool = False, golden: Optional[dict] = None,
            root: Path = Path(".")) -> dict:
    """Run, time and check one repetition; returns the worker's record.

    ``golden`` is the record of earlier logs to compare against (see
    :func:`suite.check`); ``None`` skips that comparison."""
    cli = import_program(root)
    work.mkdir(parents=True, exist_ok=True)
    wl = suite.build(workload, seed, work, toy=toy)
    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    times: dict[str, float] = {}  # wall seconds
    scales: dict[str, float] = {}  # present speed / reference speed
    exit_codes: dict[str, int] = {}
    output: dict[str, str] = {}
    try:
        # the program's leftover garbage is collected before each probe, so
        # that it cannot slow the probe down
        gc.collect()
        before = probe()
        for step in wl.steps:
            scope = tr.span(f"cli.{step.command}") if tr else contextlib.nullcontext()
            with scope:
                t0 = time.perf_counter()
                rc, text = _call(cli, step.argv)
                times[step.command] = time.perf_counter() - t0
            gc.collect()
            after = probe()
            scales[step.command] = (1.0 if step.command in UNSCALED else
                                    REFERENCE_PROBE_S / ((before + after) / 2))
            before = after
            exit_codes[step.command] = rc
            output[step.command] = text
    finally:
        if tr:
            tr.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = suite.check(wl, seed, exit_codes, golden)
    problems = outcome["problems"]
    for command, rc in exit_codes.items():
        if rc:
            problems.append(f"{command} output: {output[command].strip()[-500:]}")
    phases = {"setup_s": 0.0, "execute_s": 0.0, "report_s": 0.0}
    raw = dict(phases)
    for command, seconds in times.items():
        if command in suite.PHASE:
            phases[suite.PHASE[command]] += seconds * scales[command]
            raw[suite.PHASE[command]] += seconds
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        **phases,
        "wall_s": sum(times[c] * scales[c] for c in times),
        "raw": {**raw, "wall_s": sum(times.values())},
        "slowdown": {c: 1.0 / scales[c] for c in times},
        "peak_rss_mb": rss_mb,
        "tasks": wl.tasks,
        "not_done": outcome["not_done"],
        "attempts": outcome["attempts"],
        "problems": problems,
    }
    if tr:
        layers, trace_problems = tracer.layer_metrics(tr.spans)
        record["layers"] = layers
        problems += trace_problems
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, type=Path)
    args = p.parse_args(argv)
    record = run_rep(args.workload, args.seed, bool(args.trace), args.work,
                     golden=suite.load_golden())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
