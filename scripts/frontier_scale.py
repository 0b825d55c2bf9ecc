#!/usr/bin/env python3
"""Headline reproduction: 7875 eight-node members on an 8000-node allocation.

Runs the calibrated ensemble on the frontier-sim profile, prints the
utilization stack, ramp rates and concurrency plateau, and writes the event
log plus metric exports next to --out.

Usage:
    python scripts/frontier_scale.py --out /tmp/frontier [--tasks 7875]
        [--seed 1] [--launch-rate-cap 51]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ensemblekit.engine import DurationSpec, RuntimeModel, run_simulated
from ensemblekit.metrics import (
    compute_utilization,
    concurrency_series,
    export,
    throughput,
)
from ensemblekit.platform import get_profile
from ensemblekit.workloads import generate_example

# mean 922 s: the per-member average implied by 90% utilization of
# 8000 nodes over an 8074 s job
CALIBRATED_RUNTIME = DurationSpec.uniform(600.0, 1244.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=7875)
    parser.add_argument("--nodes", type=int, default=8000)
    parser.add_argument("--walltime", type=float, default=12000.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--launch-rate-cap", type=float, default=None)
    parser.add_argument("--out", default="frontier_scale")
    args = parser.parse_args()

    platform = get_profile("frontier-sim")
    workflow = generate_example(
        "exaconstit", {"tasks": args.tasks, "optimizer": False, "seed": args.seed}
    )

    t0 = time.monotonic()
    log = run_simulated(
        workflow,
        platform,
        args.nodes,
        args.walltime,
        RuntimeModel(default=CALIBRATED_RUNTIME, seed=args.seed),
        launch_rate_cap=args.launch_rate_cap,
    )
    wall = time.monotonic() - t0

    stack = compute_utilization(log, platform.node, args.nodes)
    series = concurrency_series(log)
    rates = throughput(log)
    ovh = log.bootstrap_ts()
    end = log.job_end_ts()

    print(f"simulated {args.tasks} members on {args.nodes} nodes "
          f"in {wall:.1f}s wall-clock ({len(log)} events)")
    print(f"  job runtime      {end:10.1f} s")
    print(f"  OVH              {ovh:10.1f} s")
    print(f"  TTX              {end - ovh:10.1f} s")
    print(f"  peak concurrency {max(p.n_running for p in series.points):10d}")
    for unit in ("nodes", "cores", "gpus"):
        usage = getattr(stack, unit)
        print(f"  {unit:5s} utilization {usage.utilization_fraction:9.1%} "
              f"(busy {usage.busy_s:.3e} of {usage.capacity_s:.3e} {unit[:-1]}-s)")
    if rates.launching_rate_tasks_per_s is not None:
        print(f"  ramp launch rate {rates.launching_rate_tasks_per_s:10.1f} tasks/s")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    log.save_jsonl(f"{out}.jsonl")
    export(stack, "csv", f"{out}_utilization.csv")
    export(series, "csv", f"{out}_concurrency.csv")
    export(rates, "csv", f"{out}_rates.csv")
    print(f"wrote {out}.jsonl and metric exports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
