"""Record the golden event-log digests the benchmark checks against.

    python3 perfbench/make_golden.py --seeds 0-99 [--jobs 2]

Runs each simulated workload once per seed at full size, from the root of a
source checkout, and writes ``perfbench/golden.json``: for every workload
and seed, the sha256 and done/failed/canceled tallies of each attempt's
event log. Regenerate it only at a commit whose logs are known to be right;
a later change that alters any seeded log then fails the benchmark.
local-desk is not recorded: its logs carry wall-clock timestamps.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import suite  # noqa: E402
import worker  # noqa: E402

RECORDED = ("headline", "cores-full", "fault-retry")


def record(workload: str, seed: int) -> list[dict]:
    work = Path(".bench_work") / f"golden-{workload}-{seed}"
    try:
        rep = worker.run_rep(workload, seed, False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rep["problems"]:
        raise RuntimeError(f"{workload} seed {seed}: {rep['problems']}")
    return rep["attempts"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-99", help="inclusive range LO-HI")
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    jobs = [(w, s) for w in RECORDED for s in seeds]
    with ProcessPoolExecutor(
        max_workers=args.jobs, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        results = list(pool.map(record, *zip(*jobs)))
    golden: dict[str, dict[str, list]] = {w: {} for w in RECORDED}
    for (w, s), attempts in zip(jobs, results):
        golden[w][str(s)] = attempts
    lines = ["{"]
    for i, w in enumerate(RECORDED):
        lines.append(f'  "{w}": {{')
        items = list(golden[w].items())
        for j, (s, attempts) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f'    "{s}": {json.dumps(attempts)}{comma}')
        lines.append("  }" + ("," if i < len(RECORDED) - 1 else ""))
    lines.append("}")
    suite.GOLDEN.write_text("\n".join(lines) + "\n")
    try:
        Path(".bench_work").rmdir()
    except OSError:
        pass  # not empty: a benchmark run is using it
    print(f"{suite.GOLDEN}: {len(jobs)} runs recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
